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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "arch/machine_config.h"

namespace casted::sim {

struct CacheLevelStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// One set-associative LRU level.  A set is a value: its `associativity`
// tags in recency order, most recent first, with kEmpty in the slots no
// line has filled yet (they are always at the back).  LRU needs nothing
// else — which lines are resident and their order decide every later hit,
// miss and victim — so two sets with equal tags behave alike from then on.
// The lookup/fill path is header-inline: every simulated memory access goes
// through it (millions of calls per campaign), and the call overhead is
// measurable for both engines.
class CacheLevel {
 public:
  explicit CacheLevel(const arch::CacheLevelConfig& config);

  // True when the line holding `address` is resident; a hit moves it to
  // the front of its set.  A hit on the front tag writes nothing.
  bool lookup(std::uint64_t address) {
    const std::uint64_t tag = tagOf(address);
    std::uint64_t* set = setOf(address);
    if (set[0] != tag) {
      std::uint32_t w = 1;
      while (w < ways_ && set[w] != tag) {
        ++w;
      }
      if (w == ways_) {
        ++stats_.misses;
        return false;
      }
      noteMutation(set);
      std::copy_backward(set, set + w, set + w + 1);
      set[0] = tag;
    }
    ++stats_.hits;
    return true;
  }

  // Inserts the line holding `address`, which must not be resident, at the
  // front of its set.  The last entry drops out: the LRU line, or an empty
  // slot while the set has one.
  void fill(std::uint64_t address) {
    std::uint64_t* set = setOf(address);
    noteMutation(set);
    std::copy_backward(set, set + ways_ - 1, set + ways_);
    set[0] = tagOf(address);
  }

  // Undo log, always on, mirroring Memory: the first change to a set since
  // the latest mark records the set's pre-image — its tags and its mark
  // stamp, which says whether the set has been recorded already — so a hit
  // that reorders a recorded set costs one compare more, and a hit on the
  // front tag records nothing.  reset() undoes the whole log, newest first — the
  // level then equals a freshly constructed one: every slot empty, stats
  // zero — and drops the checkpoint.  setCheckpoint() records the log
  // position and the stats, and opens a new mark; rewindToCheckpoint()
  // undoes back to that position and restores the stats — O(sets first
  // changed since the mark), never O(accesses) or O(set array) — and
  // returns the number of sets it wrote back.  Above the checkpoint the log
  // holds each set at most once; below it, each roll-forward segment's
  // first changes.  Cache metadata is timing state (it decides stall
  // cycles and the per-level hit/miss counts), so it must rewind
  // bit-exactly with the architectural state.
  void reset();
  void setCheckpoint();
  std::size_t rewindToCheckpoint();

  const CacheLevelStats& stats() const { return stats_; }
  const arch::CacheLevelConfig& config() const { return config_; }

 private:
  // Real tags are `address >> (blockShift_ + setShift_)` with a nonzero
  // shift (checked in the constructor), so they never reach all ones.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Checkpoint {
    std::size_t logSize = 0;  // undo_.size() at setCheckpoint()
    CacheLevelStats stats;
  };

  // Records `set`'s pre-image on its first change since the mark.  The
  // pre-image keeps the old mark stamp, so after an undo the set records
  // again.
  void noteMutation(std::uint64_t* set) {
    if (set[ways_] != mark_) {
      undo_.push_back(static_cast<std::uint64_t>(set - sets_.data()));
      undo_.insert(undo_.end(), set, set + ways_ + 1);
      set[ways_] = mark_;
    }
  }

  // Undoes records, newest first, until `size` words remain; returns how
  // many records.
  std::size_t undoTo(std::size_t size);

  // Block size and set count are powers of two (checked in the
  // constructor), so the per-access index/tag math is two shifts and a
  // mask — no integer division on the hottest path in the simulator.
  std::uint64_t* setOf(std::uint64_t address) {
    return &sets_[((address >> blockShift_) & (setCount_ - 1)) * (ways_ + 1)];
  }
  std::uint64_t tagOf(std::uint64_t address) const {
    return address >> (blockShift_ + setShift_);
  }

  arch::CacheLevelConfig config_;
  std::uint32_t ways_;
  std::uint32_t setCount_;
  std::uint32_t blockShift_ = 0;
  std::uint32_t setShift_ = 0;
  // setCount_ sets of ways_ + 1 words: the tags, then the set's mark stamp
  // (its pre-image is recorded iff the stamp equals mark_).  A runner's
  // Table I hierarchy is 2,368 sets, ~229 KiB.
  std::vector<std::uint64_t> sets_;
  std::uint64_t mark_ = 0;  // bumped by setCheckpoint(); sets start at kEmpty
  CacheLevelStats stats_;
  // Records of ways_ + 2 words: the set's offset in sets_, then its words.
  std::vector<std::uint64_t> undo_;
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
    memoryAccessLog_.push_back(address);
    for (CacheLevel& level : levels_) {
      level.fill(address);
    }
    return memoryLatency_;
  }

  // The per-level undo logs plus the main-memory access log; see
  // CacheLevel::reset.  rewindToCheckpoint() returns the number of sets
  // written back.
  void reset();
  void setCheckpoint();
  std::size_t rewindToCheckpoint();

  const CacheLevelStats& levelStats(std::size_t level) const;
  std::uint64_t memoryAccesses() const { return memoryAccessLog_.size(); }
  // The address of each access that reached main memory since reset(),
  // oldest first: the last level's misses.  A last level that never
  // evicts a line holds exactly these accesses' lines.
  const std::vector<std::uint64_t>& memoryAccessLog() const {
    return memoryAccessLog_;
  }

 private:
  std::vector<CacheLevel> levels_;
  std::uint32_t memoryLatency_;
  std::vector<std::uint64_t> memoryAccessLog_;
  std::size_t savedMemoryAccesses_ = 0;
};

}  // namespace casted::sim
