#include "sim/cache.h"

#include <bit>

#include "support/check.h"

namespace casted::sim {

CacheLevel::CacheLevel(const arch::CacheLevelConfig& config)
    : config_(config),
      ways_(config.associativity),
      setCount_(static_cast<std::uint32_t>(
          config.sizeBytes / config.blockBytes / config.associativity)) {
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
  CASTED_CHECK(blockShift_ + setShift_ > 0)
      << config.name << " has one set of 1-byte blocks: no tag is free to"
      << " mark an empty slot";
  sets_.assign(static_cast<std::size_t>(setCount_) * (ways_ + 1), kEmpty);
}

std::size_t CacheLevel::undoTo(std::size_t size) {
  // Below a checkpoint a set can have one record per roll-forward segment,
  // so only newest-first leaves it with its oldest pre-image.
  const std::size_t record = ways_ + 2;
  const std::size_t replayed = (undo_.size() - size) / record;
  while (undo_.size() > size) {
    const auto first = undo_.end() - static_cast<std::ptrdiff_t>(record);
    std::copy(first + 1, undo_.end(),
              sets_.begin() + static_cast<std::ptrdiff_t>(*first));
    undo_.erase(first, undo_.end());
  }
  return replayed;
}

void CacheLevel::reset() {
  undoTo(0);
  stats_ = CacheLevelStats{};
  checkpoint_.reset();
}

void CacheLevel::setCheckpoint() {
  ++mark_;
  checkpoint_ = Checkpoint{undo_.size(), stats_};
}

std::size_t CacheLevel::rewindToCheckpoint() {
  CASTED_CHECK(checkpoint_.has_value())
      << config_.name << ": no live cache checkpoint";
  const std::size_t rewound = undoTo(checkpoint_->logSize);
  stats_ = checkpoint_->stats;
  return rewound;
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
  memoryAccessLog_.clear();
}

void CacheHierarchy::setCheckpoint() {
  for (CacheLevel& level : levels_) {
    level.setCheckpoint();
  }
  savedMemoryAccesses_ = memoryAccessLog_.size();
}

std::size_t CacheHierarchy::rewindToCheckpoint() {
  std::size_t rewound = 0;
  for (CacheLevel& level : levels_) {
    rewound += level.rewindToCheckpoint();
  }
  memoryAccessLog_.resize(savedMemoryAccesses_);
  return rewound;
}

const CacheLevelStats& CacheHierarchy::levelStats(std::size_t level) const {
  CASTED_CHECK(level < levels_.size()) << "bad cache level " << level;
  return levels_[level].stats();
}

}  // namespace casted::sim
