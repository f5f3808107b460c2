#include "sched/list_scheduler.h"

#include <algorithm>

#include "sched/reservation_table.h"
#include "support/check.h"

namespace casted::sched {
namespace {

// True when `kind` carries a signal between clusters, i.e. pays the
// inter-cluster delay when producer and consumer live on different clusters.
// Data edges move register values; guard edges move the check's "no error"
// outcome to the instruction it protects (the paper's DCED "suffers from the
// inter-core latency upon checks" — §IV-B5 — precisely because this signal
// crosses the interconnect when the check sits on the other cluster).
bool carriesValue(dfg::DepKind kind) {
  return kind == dfg::DepKind::kData || kind == dfg::DepKind::kGuard;
}

}  // namespace

std::uint32_t operandReadyCycle(const dfg::DataFlowGraph& graph,
                                std::uint32_t node, std::uint32_t cluster,
                                const std::vector<std::uint32_t>& issueCycle,
                                const std::vector<std::uint32_t>& clusterOf,
                                std::uint32_t interClusterDelay) {
  std::uint32_t ready = 0;
  for (const dfg::Edge& edge : graph.preds(node)) {
    std::uint32_t available = issueCycle[edge.from] + edge.latency;
    if (carriesValue(edge.kind) && clusterOf[edge.from] != cluster) {
      available += interClusterDelay;
    }
    ready = std::max(ready, available);
  }
  return ready;
}

BlockSchedule scheduleBlock(const dfg::DataFlowGraph& graph,
                            const arch::MachineConfig& config) {
  const std::size_t n = graph.size();
  BlockSchedule schedule;
  schedule.issueCycle.assign(n, 0);
  schedule.insns.reserve(n);
  if (n == 0) {
    return schedule;
  }

  ReservationTable table(config);
  std::vector<std::uint32_t> remainingPreds(n, 0);
  std::vector<std::uint32_t> clusterOf(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    remainingPreds[i] = static_cast<std::uint32_t>(graph.preds(i).size());
    const int cluster = graph.insn(i).cluster;
    CASTED_CHECK(cluster >= 0 &&
                 static_cast<std::uint32_t>(cluster) < config.clusterCount)
        << "instruction assigned to invalid cluster " << cluster;
    clusterOf[i] = static_cast<std::uint32_t>(cluster);
  }

  // Ready list ordered by priority: larger height first, then program order.
  // The block's last node, its terminator, never enters it: it is placed
  // after every other node, no earlier than the latest issue cycle so far,
  // so nothing issues after the branch that ends the block.
  const std::uint32_t terminator = static_cast<std::uint32_t>(n - 1);
  std::vector<std::uint32_t> ready;
  auto priorityLess = [&](std::uint32_t a, std::uint32_t b) {
    if (graph.height(a) != graph.height(b)) {
      return graph.height(a) > graph.height(b);
    }
    return a < b;
  };
  for (std::uint32_t i = 0; i < terminator; ++i) {
    if (remainingPreds[i] == 0) {
      ready.push_back(i);
    }
  }
  std::sort(ready.begin(), ready.end(), priorityLess);

  std::uint32_t maxCompletion = 0;
  std::uint32_t lastIssue = 0;
  auto place = [&](std::uint32_t node, std::uint32_t floor) {
    const std::uint32_t cluster = clusterOf[node];
    const ir::FuClass fuClass = graph.insn(node).info().fuClass;
    const std::uint32_t earliest = std::max(
        floor, operandReadyCycle(graph, node, cluster, schedule.issueCycle,
                                 clusterOf, config.interClusterDelay));
    const std::uint32_t cycle = table.earliestIssue(cluster, earliest,
                                                    fuClass);
    const std::uint32_t slot = table.reserve(cluster, cycle, fuClass);
    const std::uint32_t latency = config.latencyFor(graph.insn(node).op);

    schedule.issueCycle[node] = cycle;
    schedule.insns.push_back({node, cycle, cluster, slot, latency});
    maxCompletion = std::max(maxCompletion, cycle + latency);
    lastIssue = std::max(lastIssue, cycle);
  };
  for (std::size_t done = 0; done < terminator; ++done) {
    CASTED_CHECK(!ready.empty()) << "scheduler stalled: DFG has a cycle?";
    // Pop the highest-priority ready node.
    const std::uint32_t node = ready.front();
    ready.erase(ready.begin());
    place(node, 0);
    for (const dfg::Edge& edge : graph.succs(node)) {
      if (--remainingPreds[edge.to] == 0 && edge.to != terminator) {
        // Insert keeping the priority order.
        const auto pos = std::lower_bound(ready.begin(), ready.end(),
                                          edge.to, priorityLess);
        ready.insert(pos, edge.to);
      }
    }
  }
  place(terminator, lastIssue);

  schedule.length = std::max<std::uint32_t>(maxCompletion, 1);
  std::sort(schedule.insns.begin(), schedule.insns.end(),
            [](const ScheduledInsn& a, const ScheduledInsn& b) {
              if (a.cycle != b.cycle) {
                return a.cycle < b.cycle;
              }
              if (a.cluster != b.cluster) {
                return a.cluster < b.cluster;
              }
              return a.slot < b.slot;
            });
  return schedule;
}

FunctionSchedule scheduleFunction(const ir::Function& fn,
                                  const arch::MachineConfig& config,
                                  pm::AnalysisManager* am) {
  FunctionSchedule schedule;
  schedule.blocks.reserve(fn.blockCount());
  for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
    if (am != nullptr) {
      schedule.blocks.push_back(
          scheduleBlock(am->dataFlowGraph(fn, b), config));
    } else {
      const dfg::DataFlowGraph graph(fn.block(b), config);
      schedule.blocks.push_back(scheduleBlock(graph, config));
    }
  }
  return schedule;
}

ProgramSchedule scheduleProgram(const ir::Program& program,
                                const arch::MachineConfig& config,
                                pm::AnalysisManager* am) {
  ProgramSchedule schedule;
  schedule.functions.reserve(program.functionCount());
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    schedule.functions.push_back(
        scheduleFunction(program.function(f), config, am));
  }
  return schedule;
}

}  // namespace casted::sched
