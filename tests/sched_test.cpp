#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>

#include "core/pipeline.h"
#include "dfg/dfg.h"
#include "ir/builder.h"
#include "passes/assignment.h"
#include "passes/error_detection.h"
#include "sched/list_scheduler.h"
#include "sched/reservation_table.h"
#include "support/check.h"
#include "support/rng.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::sched {
namespace {

using ir::IrBuilder;
using ir::Opcode;
using ir::Program;
using ir::Reg;

// --- ReservationTable -------------------------------------------------------

TEST(ReservationTableTest, RespectsIssueWidth) {
  const arch::MachineConfig config = testutil::machine(2, 1);
  ReservationTable table(config);
  EXPECT_TRUE(table.canIssue(0, 0, ir::FuClass::kIntAlu));
  table.reserve(0, 0, ir::FuClass::kIntAlu);
  EXPECT_TRUE(table.canIssue(0, 0, ir::FuClass::kIntAlu));
  table.reserve(0, 0, ir::FuClass::kIntAlu);
  EXPECT_FALSE(table.canIssue(0, 0, ir::FuClass::kIntAlu));
  // Other cluster and other cycle unaffected.
  EXPECT_TRUE(table.canIssue(1, 0, ir::FuClass::kIntAlu));
  EXPECT_TRUE(table.canIssue(0, 1, ir::FuClass::kIntAlu));
}

TEST(ReservationTableTest, EarliestIssueSkipsFullCycles) {
  const arch::MachineConfig config = testutil::machine(1, 1);
  ReservationTable table(config);
  table.reserve(0, 0, ir::FuClass::kIntAlu);
  table.reserve(0, 1, ir::FuClass::kIntAlu);
  EXPECT_EQ(table.earliestIssue(0, 0, ir::FuClass::kIntAlu), 2u);
}

TEST(ReservationTableTest, MemPortLimitEnforced) {
  arch::MachineConfig config = testutil::machine(4, 1);
  config.memPortsPerCluster = 1;
  ReservationTable table(config);
  table.reserve(0, 0, ir::FuClass::kMem);
  EXPECT_FALSE(table.canIssue(0, 0, ir::FuClass::kMem));
  // Non-memory ops can still use the remaining slots.
  EXPECT_TRUE(table.canIssue(0, 0, ir::FuClass::kIntAlu));
}

TEST(ReservationTableTest, ReserveUnavailableThrows) {
  const arch::MachineConfig config = testutil::machine(1, 1);
  ReservationTable table(config);
  table.reserve(0, 0, ir::FuClass::kIntAlu);
  EXPECT_THROW(table.reserve(0, 0, ir::FuClass::kIntAlu), FatalError);
}

// The earliestIssue the full-cycle skip replaced: a linear probe of
// canIssue from `fromCycle`, kept as its oracle.
std::uint32_t linearEarliestIssue(const ReservationTable& table,
                                  std::uint32_t cluster,
                                  std::uint32_t fromCycle, ir::FuClass cls) {
  std::uint32_t cycle = fromCycle;
  while (!table.canIssue(cluster, cycle, cls)) {
    ++cycle;
  }
  return cycle;
}

TEST(ReservationTableTest, EarliestIssueMatchesLinearProbeOnRandomReserves) {
  const ir::FuClass classes[] = {
      ir::FuClass::kIntAlu, ir::FuClass::kIntMul, ir::FuClass::kFpAlu,
      ir::FuClass::kFpDiv,  ir::FuClass::kMem,    ir::FuClass::kBranch};
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    arch::MachineConfig config = testutil::machine(
        1 + static_cast<std::uint32_t>(rng.nextBelow(4)), 1);
    config.clusterCount = 1 + static_cast<std::uint32_t>(rng.nextBelow(3));
    config.memPortsPerCluster = static_cast<std::uint32_t>(rng.nextBelow(3));
    ReservationTable table(config);
    std::uint32_t horizon = 0;
    for (int step = 0; step < 300; ++step) {
      const auto cluster =
          static_cast<std::uint32_t>(rng.nextBelow(config.clusterCount));
      const ir::FuClass cls = classes[rng.nextBelow(std::size(classes))];
      // Mostly probe the crowded prefix, sometimes past everything reserved.
      const auto from =
          static_cast<std::uint32_t>(rng.nextBelow(horizon / 2 + 4));
      const std::uint32_t expected =
          linearEarliestIssue(table, cluster, from, cls);
      ASSERT_EQ(table.earliestIssue(cluster, from, cls), expected)
          << "trial " << trial << " step " << step << " " << config.toString();
      table.reserve(cluster, expected, cls);
      horizon = std::max(horizon, expected + 1);
    }
  }
}

// --- ListScheduler: validity invariants -----------------------------------------

// Checks that `schedule` respects every DFG edge and resource constraint.
void expectValidSchedule(const BlockSchedule& schedule,
                         const dfg::DataFlowGraph& graph,
                         const arch::MachineConfig& config) {
  ASSERT_EQ(schedule.issueCycle.size(), graph.size());
  ASSERT_EQ(schedule.insns.size(), graph.size());

  // Dependence constraints, including the cross-cluster delay on value-
  // carrying edges.
  std::vector<std::uint32_t> clusterOf(graph.size());
  for (const ScheduledInsn& si : schedule.insns) {
    clusterOf[si.node] = si.cluster;
  }
  for (std::uint32_t node = 0; node < graph.size(); ++node) {
    for (const dfg::Edge& edge : graph.preds(node)) {
      std::uint32_t needed = schedule.issueCycle[edge.from] + edge.latency;
      const bool crossing = clusterOf[edge.from] != clusterOf[node];
      if (crossing && (edge.kind == dfg::DepKind::kData ||
                       edge.kind == dfg::DepKind::kGuard)) {
        needed += config.interClusterDelay;
      }
      EXPECT_GE(schedule.issueCycle[node], needed)
          << "edge " << edge.from << "->" << node << " violated";
    }
  }

  // Resource constraints: issue width per (cluster, cycle).
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> perCycle;
  for (const ScheduledInsn& si : schedule.insns) {
    EXPECT_LT(si.cluster, config.clusterCount);
    ++perCycle[{si.cluster, si.cycle}];
  }
  for (const auto& [key, count] : perCycle) {
    EXPECT_LE(count, config.issueWidth);
  }

  // Length covers every completion.
  for (const ScheduledInsn& si : schedule.insns) {
    EXPECT_LE(si.cycle + si.latency, schedule.length);
  }
}

TEST(ListSchedulerTest, SerialChainRespectsLatencies) {
  Program prog;
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  ir::BasicBlock& entry = b.createBlock("entry");
  b.setBlock(entry);
  const Reg a = b.movImm(1);
  const Reg c = b.mul(a, a);  // latency 3
  const Reg d = b.add(c, c);
  b.halt(d);
  const arch::MachineConfig config = testutil::machine(4, 1);
  const dfg::DataFlowGraph graph(entry, config);
  const BlockSchedule schedule = scheduleBlock(graph, config);
  expectValidSchedule(schedule, graph, config);
  // movi@0, mul@1 (after 1-cycle movi), add@1+3=4, halt@5.
  EXPECT_EQ(schedule.issueCycle[0], 0u);
  EXPECT_EQ(schedule.issueCycle[1], 1u);
  EXPECT_EQ(schedule.issueCycle[2], 4u);
  EXPECT_EQ(schedule.issueCycle[3], 5u);
  EXPECT_EQ(schedule.length, 6u);
}

TEST(ListSchedulerTest, IssueWidthLimitsParallelism) {
  Program prog;
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  ir::BasicBlock& entry = b.createBlock("entry");
  b.setBlock(entry);
  for (int i = 0; i < 8; ++i) {
    b.movImm(i);  // 8 independent single-cycle ops
  }
  b.halt(b.movImm(0));
  for (std::uint32_t iw : {1u, 2u, 4u}) {
    const arch::MachineConfig config = testutil::machine(iw, 1);
    const dfg::DataFlowGraph graph(entry, config);
    const BlockSchedule schedule = scheduleBlock(graph, config);
    expectValidSchedule(schedule, graph, config);
    // 10 single-cluster ops over iw slots per cycle.
    EXPECT_EQ(schedule.length, (10 + iw - 1) / iw)
        << "issue width " << iw;
  }
}

TEST(ListSchedulerTest, CrossClusterDelayApplied) {
  Program prog;
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  ir::BasicBlock& entry = b.createBlock("entry");
  b.setBlock(entry);
  const Reg a = b.movImm(1);   // node 0, cluster 0
  const Reg c = b.add(a, a);   // node 1, forced to cluster 1
  b.halt(c);                   // node 2, cluster 0 again
  entry.insns()[1].cluster = 1;
  const arch::MachineConfig config = testutil::machine(2, 3);
  const dfg::DataFlowGraph graph(entry, config);
  const BlockSchedule schedule = scheduleBlock(graph, config);
  expectValidSchedule(schedule, graph, config);
  // add waits 1 (movi) + 3 (delay); halt waits 1 (add) + 3 (delay back).
  EXPECT_EQ(schedule.issueCycle[1], 4u);
  EXPECT_EQ(schedule.issueCycle[2], 8u);
}

TEST(ListSchedulerTest, HonoursAssignedClusters) {
  Program prog = testutil::makeRandomStraightLine(3, 30);
  passes::applyErrorDetection(prog);
  const arch::MachineConfig config = testutil::machine(2, 1);
  passes::assignClusters(prog, config, passes::Scheme::kDced);
  ir::BasicBlock& block = prog.function(0).block(0);
  const dfg::DataFlowGraph graph(block, config);
  const BlockSchedule schedule = scheduleBlock(graph, config);
  for (const ScheduledInsn& si : schedule.insns) {
    EXPECT_EQ(static_cast<int>(si.cluster), block.insns()[si.node].cluster);
  }
}

// Nodes of equal height leave the ready list in program order: on a
// one-wide machine the three independent leaves issue one per cycle,
// lowest index first, after the taller chain head.
TEST(ListSchedulerTest, EqualHeightsIssueInProgramOrder) {
  Program prog;
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  ir::BasicBlock& entry = b.createBlock("entry");
  b.setBlock(entry);
  const Reg a = b.movImm(1);  // node 0: height 2, feeds the halt
  b.movImm(2);                // nodes 1-3: height 1 each
  b.movImm(3);
  b.movImm(4);
  b.halt(a);                  // node 4
  const arch::MachineConfig config = testutil::machine(1, 1);
  const dfg::DataFlowGraph graph(entry, config);
  ASSERT_EQ(graph.height(1), graph.height(2));
  ASSERT_EQ(graph.height(2), graph.height(3));
  const BlockSchedule schedule = scheduleBlock(graph, config);
  expectValidSchedule(schedule, graph, config);
  EXPECT_EQ(schedule.issueCycle,
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(ListSchedulerTest, InvalidClusterRejected) {
  Program prog = testutil::makeTinyProgram();
  prog.function(0).block(0).insns()[0].cluster = 7;
  const arch::MachineConfig config = testutil::machine(2, 1);
  const dfg::DataFlowGraph graph(prog.function(0).block(0), config);
  EXPECT_THROW(scheduleBlock(graph, config), FatalError);
}

TEST(ListSchedulerTest, ScheduleProgramCoversAllBlocks) {
  const Program prog = testutil::makeLoopProgram(5);
  const arch::MachineConfig config = testutil::machine(2, 1);
  const ProgramSchedule schedule = scheduleProgram(prog, config);
  ASSERT_EQ(schedule.functions.size(), 1u);
  ASSERT_EQ(schedule.functions[0].blocks.size(), 3u);
  for (const BlockSchedule& block : schedule.functions[0].blocks) {
    EXPECT_GE(block.length, 1u);
  }
  EXPECT_GT(schedule.functions[0].totalLength(), 0u);
}

TEST(ListSchedulerTest, RenderShowsBundles) {
  const Program prog = testutil::makeTinyProgram();
  const arch::MachineConfig config = testutil::machine(2, 1);
  const ir::BasicBlock& block = prog.function(0).block(0);
  const dfg::DataFlowGraph graph(block, config);
  const BlockSchedule schedule = scheduleBlock(graph, config);
  const std::string rendered = schedule.render(block, 2, 2);
  EXPECT_NE(rendered.find("cluster0"), std::string::npos);
  EXPECT_NE(rendered.find("cluster1"), std::string::npos);
  EXPECT_NE(rendered.find("length:"), std::string::npos);
}

// No instruction of a block issues after the block's terminator (its last
// node), over every block of every function of `bin`.
void expectTerminatorIssuesLast(const core::CompiledProgram& bin,
                                const std::string& label) {
  for (const FunctionSchedule& fn : bin.schedule.functions) {
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const std::vector<std::uint32_t>& cycles = fn.blocks[b].issueCycle;
      ASSERT_FALSE(cycles.empty());
      EXPECT_EQ(cycles.back(),
                *std::max_element(cycles.begin(), cycles.end()))
          << label << " bb" << b;
    }
  }
}

TEST(ListSchedulerTest, TerminatorIssuesLastOnRandomProgramsAndTheFig67Grid) {
  for (std::uint32_t issue = 1; issue <= 4; ++issue) {
    for (std::uint32_t delay = 1; delay <= 4; ++delay) {
      const arch::MachineConfig machine = arch::makePaperMachine(issue, delay);
      for (const passes::Scheme scheme : passes::kAllSchemes) {
        const std::string point = std::to_string(issue) + " " +
                                  std::to_string(delay) + " " +
                                  passes::schemeName(scheme);
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
          expectTerminatorIssuesLast(
              core::compile(testutil::makeRandomCfgProgram(seed), machine,
                            scheme),
              "cfg seed " + std::to_string(seed) + " " + point);
        }
        for (const workloads::Workload& wl : workloads::makeAllWorkloads(1)) {
          expectTerminatorIssuesLast(
              core::compile(wl.program, machine, scheme),
              wl.name + " " + point);
        }
      }
    }
  }
}

// --- memoryPlan --------------------------------------------------------------

// The cache-access plan as both simulator engines built it before
// memoryPlan: memory ops in node order, std::sort by issue cycle, then the
// same-cycle runs.  Kept as memoryPlan's oracle.
MemoryPlan enginePlanOracle(const ir::BasicBlock& block,
                            const BlockSchedule& blockSched) {
  struct MemOp {
    std::uint32_t cycle = 0;
    std::uint32_t node = 0;
  };
  const auto& insns = block.insns();
  std::vector<MemOp> plan;
  for (std::uint32_t node = 0; node < insns.size(); ++node) {
    if (insns[node].isMemory()) {
      plan.push_back({blockSched.issueCycle[node], node});
    }
  }
  std::sort(plan.begin(), plan.end(), [](const MemOp& a, const MemOp& b) {
    return a.cycle < b.cycle;
  });
  MemoryPlan out;
  std::size_t i = 0;
  while (i < plan.size()) {
    const std::uint32_t cycle = plan[i].cycle;
    std::uint32_t size = 0;
    while (i < plan.size() && plan[i].cycle == cycle) {
      out.nodes.push_back(plan[i].node);
      ++size;
      ++i;
    }
    out.bundleSizes.push_back(size);
  }
  return out;
}

TEST(MemoryPlanTest, MatchesTheEnginesFormerConstructionOnRandomCfgPrograms) {
  std::size_t plans = 0;
  std::size_t bigBundles = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    // Long blocks, so some bundles outgrow std::sort's insertion-sort runs.
    const Program source = testutil::makeRandomCfgProgram(seed, 3, 40);
    for (std::uint32_t issue = 1; issue <= 4; ++issue) {
      const arch::MachineConfig config = testutil::machine(issue, 2);
      for (const passes::Scheme scheme : passes::kAllSchemes) {
        const core::CompiledProgram bin =
            core::compile(source, config, scheme);
        const ir::Function& fn = bin.program.function(0);
        for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
          const BlockSchedule& blockSched =
              bin.schedule.functions[0].blocks[b];
          const MemoryPlan expected =
              enginePlanOracle(fn.block(b), blockSched);
          const MemoryPlan actual = memoryPlan(fn.block(b), blockSched);
          ASSERT_EQ(actual.nodes, expected.nodes)
              << "seed " << seed << " issue " << issue << " "
              << passes::schemeName(scheme) << " bb" << b;
          ASSERT_EQ(actual.bundleSizes, expected.bundleSizes)
              << "seed " << seed << " issue " << issue << " "
              << passes::schemeName(scheme) << " bb" << b;
          ++plans;
          bigBundles += std::count_if(
              actual.bundleSizes.begin(), actual.bundleSizes.end(),
              [](std::uint32_t size) { return size > 1; });
        }
      }
    }
  }
  EXPECT_GT(plans, 0u);
  EXPECT_GT(bigBundles, 0u);  // some bundles hold several memory ops
}

// Property sweep: for random ED programs over all (issue, delay, scheme)
// combinations, the schedule must satisfy every dependence and resource
// constraint.
struct SchedulePropertyParam {
  int seed;
  std::uint32_t issueWidth;
  std::uint32_t delay;
  passes::Scheme scheme;
};

class SchedulePropertyTest
    : public ::testing::TestWithParam<SchedulePropertyParam> {};

TEST_P(SchedulePropertyTest, ScheduleIsValid) {
  const SchedulePropertyParam param = GetParam();
  Program prog = testutil::makeRandomStraightLine(
      static_cast<std::uint64_t>(param.seed) * 31 + 1, 50);
  if (param.scheme != passes::Scheme::kNoed) {
    passes::applyErrorDetection(prog);
  }
  const arch::MachineConfig config =
      testutil::machine(param.issueWidth, param.delay);
  passes::assignClusters(prog, config, param.scheme);
  const ir::BasicBlock& block = prog.function(0).block(0);
  const dfg::DataFlowGraph graph(block, config);
  const BlockSchedule schedule = scheduleBlock(graph, config);
  expectValidSchedule(schedule, graph, config);
}

std::vector<SchedulePropertyParam> scheduleParams() {
  std::vector<SchedulePropertyParam> params;
  for (int seed : {1, 2, 3}) {
    for (std::uint32_t iw : {1u, 2u, 4u}) {
      for (std::uint32_t delay : {1u, 4u}) {
        for (passes::Scheme scheme :
             {passes::Scheme::kSced, passes::Scheme::kDced,
              passes::Scheme::kCasted}) {
          params.push_back({seed, iw, delay, scheme});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulePropertyTest,
                         ::testing::ValuesIn(scheduleParams()));

}  // namespace
}  // namespace casted::sched
