// Register liveness analysis.
//
// Classic backward may-liveness over the CFG.  Used by dead-code
// elimination, by the register-pressure report (the paper attributes part of
// the SCED slowdown variation to the extra spilling the duplicated registers
// cause — §IV-B1), and by the spill-inserter extension.
//
// Lives next to the DFG because both are *analyses* of the IR: the
// pm::AnalysisManager caches them per function below the pass layer, so a
// chain of passes that does not mutate the IR shares one computation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ir/function.h"
#include "ir/slot_set.h"

namespace casted::dfg {

struct LivenessInfo {
  // The function's register numbering when the analysis ran; the sets below
  // hold its slots.
  ir::RegSlots slots;
  // Indexed by block id.
  std::vector<ir::SlotSet> liveIn;
  std::vector<ir::SlotSet> liveOut;

  // Maximum number of simultaneously live registers of each class at any
  // program point, indexed by RegClass.
  std::array<std::uint32_t, 3> maxPressure = {0, 0, 0};

  bool isLiveOut(ir::BlockId block, ir::Reg reg) const {
    return liveOut[block].contains(slots.slot(reg));
  }
};

// Computes liveness for `fn`.
LivenessInfo computeLiveness(const ir::Function& fn);

// Register-pressure summary for a whole program: the worst per-class
// pressure over all functions.
std::array<std::uint32_t, 3> maxPressure(const ir::Program& program);

}  // namespace casted::dfg
