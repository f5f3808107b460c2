// Issue-slot reservation table.
//
// Shared by the list scheduler and BUG (Algorithm 2 line 17, "Reserve issue
// slots in reservation table").  Tracks, per cluster and cycle, how many of
// the issue slots are taken, plus the memory count behind the memory-port
// limit (MachineConfig::portLimit); a branch closes its cycle on every
// cluster, so no second branch can join it.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/machine_config.h"

namespace casted::sched {

class ReservationTable {
 public:
  explicit ReservationTable(const arch::MachineConfig& config);

  // True when `cls` can issue on `cluster` at `cycle`.
  bool canIssue(std::uint32_t cluster, std::uint32_t cycle,
                ir::FuClass cls) const;

  // Earliest cycle >= `fromCycle` at which `cls` can issue on `cluster`.
  // Full cycles (every slot taken, or closed by a branch) are skipped in
  // near-constant time; cycles only ever fill, so a full cycle stays full.
  std::uint32_t earliestIssue(std::uint32_t cluster, std::uint32_t fromCycle,
                              ir::FuClass cls) const;

  // Marks one slot used; returns the slot index within the cycle.
  std::uint32_t reserve(std::uint32_t cluster, std::uint32_t cycle,
                        ir::FuClass cls);

 private:
  struct CycleState {
    std::uint32_t total = 0;
    std::uint32_t mem = 0;
  };

  const CycleState& state(std::uint32_t cluster, std::uint32_t cycle) const;
  CycleState& mutableState(std::uint32_t cluster, std::uint32_t cycle);

  // First cycle >= `cycle` on `cluster` that is not full.
  std::uint32_t nextOpen(std::uint32_t cluster, std::uint32_t cycle) const;
  // Records that `cycle` on `cluster` can take no further instruction.
  void markFull(std::uint32_t cluster, std::uint32_t cycle);

  const arch::MachineConfig* config_;
  std::vector<std::vector<CycleState>> cycles_;  // [cluster][cycle]
  std::vector<bool> closedCycles_;               // machine-wide group ends
  // Union-find "next free slot" over cycles, per cluster: a full cycle links
  // to a later one, an open cycle (or one past the end) to itself.
  // nextOpen() compresses paths, hence mutable.
  mutable std::vector<std::vector<std::uint32_t>> next_;  // [cluster][cycle]
  static const CycleState kEmpty;
};

}  // namespace casted::sched
