#include "sim/cache.h"

#include <bit>

#include "support/check.h"

namespace casted::sim {

CacheLevel::CacheLevel(const arch::CacheLevelConfig& config)
    : config_(config),
      setCount_(static_cast<std::uint32_t>(
          config.sizeBytes / config.blockBytes / config.associativity)),
      ways_(static_cast<std::size_t>(setCount_) * config.associativity) {
  CASTED_CHECK(setCount_ > 0) << config.name << " has no sets";
  // The index/tag math assumes power-of-two geometry (it always did — the
  // set mask silently required it; now it is enforced).
  CASTED_CHECK((config.blockBytes & (config.blockBytes - 1)) == 0)
      << config.name << " block size is not a power of two";
  CASTED_CHECK((setCount_ & (setCount_ - 1)) == 0)
      << config.name << " set count is not a power of two";
  blockShift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(config.blockBytes)));
  setShift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(setCount_)));
}

void CacheLevel::reset() {
  // Opening a new epoch invalidates every way without touching the array;
  // clock_ keeps running, which is invisible (LRU is a total order on the
  // current epoch's lastUse values regardless of their absolute base).
  if (++epoch_ == 0) {
    wrapEpoch();
  }
  stats_ = CacheLevelStats{};
}

void CacheLevel::wrapEpoch() {
  // Epoch 0 is what every way held at construction; stamp the whole array
  // back to it and restart at 1.  Under a live checkpoint this is a
  // mutation of every way like any other, so it goes through the undo log.
  for (Way& way : ways_) {
    noteMutation(&way);
    way.epoch = 0;
  }
  epoch_ = 1;
}

void CacheLevel::wrapMark() {
  // The log is empty here (setCheckpoint cleared it), so the stamps can be
  // rewritten freely: 0 is below every mark handed out from now on.
  for (Way& way : ways_) {
    way.mark = 0;
  }
  mark_ = 1;
}

void CacheLevel::setCheckpoint() {
  undoArmed_ = true;
  undo_.clear();
  if (++mark_ == 0) {
    wrapMark();
  }
  saved_ = {clock_, epoch_, stats_};
}

std::size_t CacheLevel::rewindToCheckpoint() {
  CASTED_CHECK(undoArmed_) << config_.name << ": no live cache checkpoint";
  // Each way appears at most once, so the order of the write-backs is free.
  for (const WayUndo& record : undo_) {
    ways_[record.way] = record.old;
  }
  const std::size_t rewound = undo_.size();
  undo_.clear();
  clock_ = saved_.clock;
  epoch_ = saved_.epoch;
  stats_ = saved_.stats;
  return rewound;
}

void CacheLevel::dropCheckpoint() {
  undoArmed_ = false;
  undo_.clear();
}

CacheHierarchy::CacheHierarchy(const arch::CacheConfig& config)
    : memoryLatency_(config.memoryLatency) {
  config.validate();
  levels_.reserve(config.levels.size());
  for (const arch::CacheLevelConfig& level : config.levels) {
    levels_.emplace_back(level);
  }
}

void CacheHierarchy::reset() {
  for (CacheLevel& level : levels_) {
    level.reset();
  }
  memoryAccesses_ = 0;
}

void CacheHierarchy::setCheckpoint() {
  for (CacheLevel& level : levels_) {
    level.setCheckpoint();
  }
  savedMemoryAccesses_ = memoryAccesses_;
}

std::size_t CacheHierarchy::rewindToCheckpoint() {
  std::size_t rewound = 0;
  for (CacheLevel& level : levels_) {
    rewound += level.rewindToCheckpoint();
  }
  memoryAccesses_ = savedMemoryAccesses_;
  return rewound;
}

void CacheHierarchy::dropCheckpoint() {
  for (CacheLevel& level : levels_) {
    level.dropCheckpoint();
  }
}

const CacheLevelStats& CacheHierarchy::levelStats(std::size_t level) const {
  CASTED_CHECK(level < levels_.size()) << "bad cache level " << level;
  return levels_[level].stats();
}

}  // namespace casted::sim
