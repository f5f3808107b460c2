#include "dfg/liveness.h"

#include <algorithm>

#include "support/check.h"

namespace casted::dfg {

LivenessInfo computeLiveness(const ir::Function& fn) {
  const std::size_t blocks = fn.blockCount();
  LivenessInfo info;
  info.slots = fn.regSlots();
  const ir::RegSlots& slots = info.slots;
  const ir::SlotSet none(slots.count());
  info.liveIn.assign(blocks, none);
  info.liveOut.assign(blocks, none);

  // Per-block use (upward-exposed) and def sets.
  std::vector<ir::SlotSet> uses(blocks, none);
  std::vector<ir::SlotSet> defs(blocks, none);
  for (ir::BlockId b = 0; b < blocks; ++b) {
    for (const ir::Instruction& insn : fn.block(b).insns()) {
      for (const ir::Reg& use : insn.uses) {
        if (!defs[b].contains(slots.slot(use))) {
          uses[b].insert(slots.slot(use));
        }
      }
      for (const ir::Reg& def : insn.defs) {
        defs[b].insert(slots.slot(def));
      }
    }
  }

  // Backward fixpoint: out = union of successors' in, in = uses | (out - defs).
  ir::SlotSet out = none;
  ir::SlotSet in = none;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ir::BlockId b = blocks; b-- > 0;) {
      out.clear();
      for (ir::BlockId succ : fn.block(b).successors()) {
        out |= info.liveIn[succ];
      }
      in = out;
      in -= defs[b];
      in |= uses[b];
      if (out != info.liveOut[b] || in != info.liveIn[b]) {
        info.liveOut[b] = out;
        info.liveIn[b] = in;
        changed = true;
      }
    }
  }

  // Pressure: walk each block backwards from live-out, keeping per-class
  // counts of the live set.
  ir::SlotSet live = none;
  for (ir::BlockId b = 0; b < blocks; ++b) {
    live = info.liveOut[b];
    std::array<std::uint32_t, 3> counts = {0, 0, 0};
    live.forEach([&](std::uint32_t slot) {
      ++counts[static_cast<int>(slots.cls(slot))];
    });
    auto recordPressure = [&] {
      for (int c = 0; c < 3; ++c) {
        info.maxPressure[c] = std::max(info.maxPressure[c], counts[c]);
      }
    };
    recordPressure();
    const auto& insns = fn.block(b).insns();
    for (std::size_t i = insns.size(); i-- > 0;) {
      const ir::Instruction& insn = insns[i];
      for (const ir::Reg& def : insn.defs) {
        if (live.erase(slots.slot(def))) {
          --counts[static_cast<int>(def.cls)];
        }
      }
      for (const ir::Reg& use : insn.uses) {
        if (live.insert(slots.slot(use))) {
          ++counts[static_cast<int>(use.cls)];
        }
      }
      recordPressure();
    }
  }
  return info;
}

std::array<std::uint32_t, 3> maxPressure(const ir::Program& program) {
  std::array<std::uint32_t, 3> worst = {0, 0, 0};
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    const LivenessInfo info = computeLiveness(program.function(f));
    for (int c = 0; c < 3; ++c) {
      worst[c] = std::max(worst[c], info.maxPressure[c]);
    }
  }
  return worst;
}

}  // namespace casted::dfg
