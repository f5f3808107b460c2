#include "sched/schedule.h"

#include <algorithm>
#include <sstream>

namespace casted::sched {

std::string BlockSchedule::render(const ir::BasicBlock& block,
                                  std::uint32_t clusterCount,
                                  std::uint32_t issueWidth) const {
  // Gather per (cycle, cluster) mnemonic lists.
  std::uint32_t maxCycle = 0;
  for (const ScheduledInsn& si : insns) {
    maxCycle = std::max(maxCycle, si.cycle);
  }
  std::vector<std::vector<std::string>> cells((maxCycle + 1) * clusterCount);
  for (const ScheduledInsn& si : insns) {
    const ir::Instruction& insn = block.insns()[si.node];
    std::string label = insn.info().name;
    if (insn.origin == ir::InsnOrigin::kDuplicate) {
      label += "'";
    }
    cells[si.cycle * clusterCount + si.cluster].push_back(label);
  }
  // Column widths.
  std::size_t width = 8;
  for (const auto& cell : cells) {
    std::size_t cellWidth = 0;
    for (const std::string& label : cell) {
      cellWidth += label.size() + 1;
    }
    width = std::max(width, cellWidth + 1);
  }
  std::ostringstream out;
  out << "cycle";
  for (std::uint32_t c = 0; c < clusterCount; ++c) {
    std::string head = " | cluster" + std::to_string(c) + " (" +
                       std::to_string(issueWidth) + "-wide)";
    head.resize(std::max(head.size(), width + 3), ' ');
    out << head;
  }
  out << '\n';
  for (std::uint32_t cycle = 0; cycle <= maxCycle; ++cycle) {
    std::string cycleText = std::to_string(cycle);
    cycleText.resize(5, ' ');
    out << cycleText;
    for (std::uint32_t c = 0; c < clusterCount; ++c) {
      std::string body;
      for (const std::string& label : cells[cycle * clusterCount + c]) {
        body += label + ' ';
      }
      std::string cell = " | " + body;
      cell.resize(width + 3, ' ');
      out << cell;
    }
    out << '\n';
  }
  out << "length: " << length << " cycles\n";
  return out.str();
}

MemoryPlan memoryPlan(const ir::BasicBlock& block,
                      const BlockSchedule& schedule) {
  struct MemOp {
    std::uint32_t cycle = 0;
    std::uint32_t node = 0;
  };
  const auto& insns = block.insns();
  std::vector<MemOp> ops;
  for (std::uint32_t node = 0; node < insns.size(); ++node) {
    if (insns[node].isMemory()) {
      ops.push_back({schedule.issueCycle[node], node});
    }
  }
  std::sort(ops.begin(), ops.end(), [](const MemOp& a, const MemOp& b) {
    return a.cycle < b.cycle;
  });
  MemoryPlan plan;
  plan.nodes.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    plan.nodes.push_back(ops[i].node);
    if (i == 0 || ops[i].cycle != ops[i - 1].cycle) {
      plan.bundleSizes.push_back(0);
    }
    ++plan.bundleSizes.back();
  }
  return plan;
}

std::uint64_t FunctionSchedule::totalLength() const {
  std::uint64_t total = 0;
  for (const BlockSchedule& block : blocks) {
    total += block.length;
  }
  return total;
}

}  // namespace casted::sched
