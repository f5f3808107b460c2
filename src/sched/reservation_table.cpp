#include "sched/reservation_table.h"

#include "support/check.h"

namespace casted::sched {

const ReservationTable::CycleState ReservationTable::kEmpty = {};

ReservationTable::ReservationTable(const arch::MachineConfig& config)
    : config_(&config),
      cycles_(config.clusterCount),
      next_(config.clusterCount) {}

const ReservationTable::CycleState& ReservationTable::state(
    std::uint32_t cluster, std::uint32_t cycle) const {
  CASTED_CHECK(cluster < cycles_.size()) << "bad cluster " << cluster;
  if (cycle >= cycles_[cluster].size()) {
    return kEmpty;
  }
  return cycles_[cluster][cycle];
}

ReservationTable::CycleState& ReservationTable::mutableState(
    std::uint32_t cluster, std::uint32_t cycle) {
  CASTED_CHECK(cluster < cycles_.size()) << "bad cluster " << cluster;
  if (cycle >= cycles_[cluster].size()) {
    cycles_[cluster].resize(cycle + 1);
  }
  return cycles_[cluster][cycle];
}

bool ReservationTable::canIssue(std::uint32_t cluster, std::uint32_t cycle,
                                ir::FuClass cls) const {
  if (cycle < closedCycles_.size() && closedCycles_[cycle]) {
    return false;  // a branch already ended this machine-wide bundle
  }
  const CycleState& s = state(cluster, cycle);
  if (s.total >= config_->issueWidth) {
    return false;
  }
  if (cls == ir::FuClass::kMem && s.mem >= config_->portLimit(cls)) {
    return false;
  }
  return true;
}

std::uint32_t ReservationTable::earliestIssue(std::uint32_t cluster,
                                              std::uint32_t fromCycle,
                                              ir::FuClass cls) const {
  std::uint32_t cycle = nextOpen(cluster, fromCycle);
  while (!canIssue(cluster, cycle, cls)) {
    cycle = nextOpen(cluster, cycle + 1);  // a port limit, not a full cycle
  }
  return cycle;
}

std::uint32_t ReservationTable::nextOpen(std::uint32_t cluster,
                                         std::uint32_t cycle) const {
  std::vector<std::uint32_t>& next = next_[cluster];
  std::uint32_t root = cycle;
  while (root < next.size() && next[root] != root) {
    root = next[root];
  }
  while (cycle < next.size() && next[cycle] != cycle) {
    const std::uint32_t parent = next[cycle];
    next[cycle] = root;
    cycle = parent;
  }
  return root;
}

void ReservationTable::markFull(std::uint32_t cluster, std::uint32_t cycle) {
  std::vector<std::uint32_t>& next = next_[cluster];
  if (cycle >= next.size()) {
    const auto old = static_cast<std::uint32_t>(next.size());
    next.resize(cycle + 1);
    for (std::uint32_t c = old; c < cycle; ++c) {
      next[c] = c;
    }
  }
  next[cycle] = cycle + 1;
}

std::uint32_t ReservationTable::reserve(std::uint32_t cluster,
                                        std::uint32_t cycle,
                                        ir::FuClass cls) {
  CASTED_CHECK(canIssue(cluster, cycle, cls))
      << "slot not available: cluster " << cluster << " cycle " << cycle;
  CycleState& s = mutableState(cluster, cycle);
  const std::uint32_t slot = s.total;
  ++s.total;
  if (cls == ir::FuClass::kMem) {
    ++s.mem;
  }
  if (s.total == config_->issueWidth) {
    markFull(cluster, cycle);
  }
  if (cls == ir::FuClass::kBranch) {
    if (cycle >= closedCycles_.size()) {
      closedCycles_.resize(cycle + 1, false);
    }
    closedCycles_[cycle] = true;
    for (std::uint32_t c = 0; c < next_.size(); ++c) {
      markFull(c, cycle);
    }
  }
  return slot;
}

}  // namespace casted::sched
