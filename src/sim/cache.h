// Cache hierarchy model (Table I).
//
// Three set-associative LRU levels over a flat physical address space, plus
// main memory.  The hierarchy is shared by both clusters (the target's
// memory subsystem sits outside the clusters, Fig. 1) and is *timing only*:
// data lives in sim::Memory; the caches track which lines are resident and
// answer "how many cycles did this access cost".
//
// Misses use write-allocate fills into every level (inclusive).  Write-back
// traffic is not modelled — stores cost the same as loads at the same level,
// which preserves the paper-relevant behaviour (miss stalls and MLP).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/machine_config.h"

namespace casted::sim {

struct CacheLevelStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double hitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

// One set-associative LRU level.  The lookup/fill path is header-inline:
// every simulated memory access goes through it (millions of calls per
// campaign), and the call overhead is measurable for both engines.
class CacheLevel {
 public:
  explicit CacheLevel(const arch::CacheLevelConfig& config);

  // True when the line holding `address` is resident; updates LRU on hit.
  bool lookup(std::uint64_t address) {
    ++clock_;
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    Way* base = &ways_[set * config_.associativity];
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
      if (base[w].epoch == epoch_ && base[w].tag == tag) {
        noteMutation(&base[w]);
        base[w].lastUse = clock_;
        ++stats_.hits;
        return true;
      }
    }
    ++stats_.misses;
    return false;
  }

  // Inserts the line holding `address`, evicting the LRU way.
  void fill(std::uint64_t address) {
    ++clock_;
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    Way* base = &ways_[set * config_.associativity];
    Way* victim = &base[0];
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
      if (base[w].epoch != epoch_) {
        victim = &base[w];
        break;
      }
      if (base[w].lastUse < victim->lastUse) {
        victim = &base[w];
      }
    }
    noteMutation(victim);
    victim->epoch = epoch_;
    victim->tag = tag;
    victim->lastUse = clock_;
  }

  // Invalidates every line and zeroes the stats.  O(1) (bar one pass over
  // the array when the epoch wraps): validity is an epoch stamp per way, so
  // a reset just opens a new epoch instead of touching the (potentially
  // megabytes of) way array — that keeps the reusable decoded-engine
  // contexts cheap.  Behaviour is identical to a freshly constructed level:
  // stale-epoch ways read as invalid, and LRU only ever compares `lastUse`
  // between ways of the current epoch.
  void reset();

  // Checkpoint support, mirroring Memory: between setCheckpoint() and
  // rewindToCheckpoint() the first mutation of each way records its
  // pre-image (a per-way mark stamp says whether it already has), and the
  // rewind writes them back plus restores the scalar state (clock, epoch,
  // stats) by value — O(ways first touched since the mark), never
  // O(accesses) or O(way array).  The log is bounded by the way count, and
  // an L1 hit on an already-recorded way costs one compare.  Cache metadata
  // is timing state (it decides stall cycles and the per-level hit/miss
  // counts), so it must rewind bit-exactly with the architectural state.
  // rewindToCheckpoint() returns the number of ways it wrote back.
  void setCheckpoint();
  std::size_t rewindToCheckpoint();
  void dropCheckpoint();

  const CacheLevelStats& stats() const { return stats_; }
  const arch::CacheLevelConfig& config() const { return config_; }

 private:
  // Lets tests/cache_test.cpp start the 32-bit stamps next to their wrap.
  friend struct CacheLevelTestAccess;

  // 24 bytes: every runner owns ~27k ways (the Table I hierarchy), so a
  // wider way shows up in the peak memory of anything that builds runners.
  // The 32-bit stamps wrap after 2^32 resets or marks; wrapEpoch() and
  // wrapMark() handle that with one pass over the array.
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lastUse = 0;
    std::uint32_t epoch = 0;  // valid iff equal to the level's epoch_
    std::uint32_t mark = 0;   // pre-image recorded iff equal to mark_
  };
  static_assert(sizeof(Way) == 24);
  struct WayUndo {
    std::size_t way = 0;  // index into ways_
    Way old;
  };
  struct SavedScalars {
    std::uint64_t clock = 0;
    std::uint32_t epoch = 0;
    CacheLevelStats stats;
  };

  // Records `way`'s pre-image on its first mutation since the mark.  The
  // pre-image keeps the old stamp, so after a rewind the way records again.
  void noteMutation(Way* way) {
    if (undoArmed_ && way->mark != mark_) {
      undo_.push_back({static_cast<std::size_t>(way - ways_.data()), *way});
      way->mark = mark_;
    }
  }

  void wrapEpoch();
  void wrapMark();

  // Block size and set count are powers of two (checked in the
  // constructor), so the per-access index/tag math is two shifts and a
  // mask — no integer division on the hottest path in the simulator.
  std::uint64_t setIndex(std::uint64_t address) const {
    return (address >> blockShift_) & (setCount_ - 1);
  }
  std::uint64_t tagOf(std::uint64_t address) const {
    return address >> (blockShift_ + setShift_);
  }

  arch::CacheLevelConfig config_;
  std::uint32_t setCount_;
  std::uint32_t blockShift_ = 0;
  std::uint32_t setShift_ = 0;
  std::vector<Way> ways_;  // setCount_ * associativity
  std::uint64_t clock_ = 0;
  std::uint32_t epoch_ = 1;  // ways start at 0, i.e. all invalid
  std::uint32_t mark_ = 0;   // bumped by setCheckpoint(); ways start at 0
  CacheLevelStats stats_;
  std::vector<WayUndo> undo_;
  SavedScalars saved_;
  bool undoArmed_ = false;
};

// The full hierarchy.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const arch::CacheConfig& config);

  // Performs one access; returns its total latency in cycles (L1 latency on
  // an L1 hit, ... , memoryLatency on a full miss) and fills all levels.
  std::uint32_t access(std::uint64_t address) {
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].lookup(address)) {
        // Fill the line into the faster levels (inclusive hierarchy).
        for (std::size_t j = 0; j < i; ++j) {
          levels_[j].fill(address);
        }
        return levels_[i].config().latency;
      }
    }
    ++memoryAccesses_;
    for (CacheLevel& level : levels_) {
      level.fill(address);
    }
    return memoryLatency_;
  }

  void reset();

  // Checkpoint the whole hierarchy (per-level undo logs + the main-memory
  // access counter).  See CacheLevel::setCheckpoint.
  // rewindToCheckpoint() returns the number of ways written back.
  void setCheckpoint();
  std::size_t rewindToCheckpoint();
  void dropCheckpoint();

  const CacheLevelStats& levelStats(std::size_t level) const;
  std::uint64_t memoryAccesses() const { return memoryAccesses_; }

 private:
  std::vector<CacheLevel> levels_;
  std::uint32_t memoryLatency_;
  std::uint64_t memoryAccesses_ = 0;
  std::uint64_t savedMemoryAccesses_ = 0;
};

}  // namespace casted::sim
