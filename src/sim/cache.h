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
#include <optional>
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
      if (base[w].lastUse != 0 && base[w].tag == tag) {
        noteMutation(&base[w]);
        base[w].lastUse = clock_;
        ++stats_.hits;
        return true;
      }
    }
    ++stats_.misses;
    return false;
  }

  // Inserts the line holding `address`, evicting the LRU way.  A
  // never-filled way has lastUse 0, below every valid way's, so it is the
  // victim whenever the set has one.
  void fill(std::uint64_t address) {
    ++clock_;
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    Way* base = &ways_[set * config_.associativity];
    Way* victim = &base[0];
    for (std::uint32_t w = 1; w < config_.associativity; ++w) {
      if (base[w].lastUse < victim->lastUse) {
        victim = &base[w];
      }
    }
    noteMutation(victim);
    victim->tag = tag;
    victim->lastUse = clock_;
  }

  // Undo log, always on, mirroring Memory: the first mutation of a way
  // since the latest mark records its pre-image (a per-way mark stamp says
  // whether it already has), so an L1 hit on a recorded way costs one
  // compare.  reset() undoes the whole log, newest first — the level then
  // equals a freshly constructed one: every way invalid, clock and stats
  // zero — and drops the checkpoint.  setCheckpoint() records the log
  // position, the clock and the stats, and opens a new mark;
  // rewindToCheckpoint() undoes back to that position and restores the
  // clock and stats — O(ways first touched since the mark), never
  // O(accesses) or O(way array) — and returns the number of ways it wrote
  // back.  Above the checkpoint the log holds each way at most once; below
  // it, each roll-forward segment's first touches.  Cache metadata is
  // timing state (it decides stall cycles and the per-level hit/miss
  // counts), so it must rewind bit-exactly with the architectural state.
  void reset();
  void setCheckpoint();
  std::size_t rewindToCheckpoint();

  // The LRU clock: lookups plus fills since the last reset, less those a
  // rewind undid.  Hits and latencies depend only on the order of the
  // stamps it hands out, so tests read it here to see that a rewind
  // restores it.
  std::uint64_t clock() const { return clock_; }

  const CacheLevelStats& stats() const { return stats_; }
  const arch::CacheLevelConfig& config() const { return config_; }

 private:
  // 24 bytes: every runner owns ~27k ways (the Table I hierarchy), so a
  // wider way shows up in the peak memory of anything that builds runners.
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lastUse = 0;  // valid iff nonzero: ++clock_ precedes it
    std::uint64_t mark = 0;     // pre-image recorded iff equal to mark_
  };
  static_assert(sizeof(Way) == 24);
  struct WayUndo {
    std::size_t way = 0;  // index into ways_
    Way old;
  };
  struct Checkpoint {
    std::size_t logSize = 0;  // undo_.size() at setCheckpoint()
    std::uint64_t clock = 0;
    CacheLevelStats stats;
  };

  // Records `way`'s pre-image on its first mutation since the mark.  The
  // pre-image keeps the old stamp, so after an undo the way records again.
  void noteMutation(Way* way) {
    if (way->mark != mark_) {
      undo_.push_back({static_cast<std::size_t>(way - ways_.data()), *way});
      way->mark = mark_;
    }
  }

  // Undoes records, newest first, until `size` remain; returns how many.
  std::size_t undoTo(std::size_t size);

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
  std::uint64_t mark_ = 1;  // bumped by setCheckpoint(); ways start at 0
  CacheLevelStats stats_;
  std::vector<WayUndo> undo_;
  std::optional<Checkpoint> checkpoint_;
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

  // The per-level undo logs plus the main-memory access counter; see
  // CacheLevel::reset.  rewindToCheckpoint() returns the number of ways
  // written back.
  void reset();
  void setCheckpoint();
  std::size_t rewindToCheckpoint();

  const CacheLevelStats& levelStats(std::size_t level) const;
  std::uint64_t memoryAccesses() const { return memoryAccesses_; }

 private:
  std::vector<CacheLevel> levels_;
  std::uint32_t memoryLatency_;
  std::uint64_t memoryAccesses_ = 0;
  std::uint64_t savedMemoryAccesses_ = 0;
};

}  // namespace casted::sim
