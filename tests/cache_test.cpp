#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "passes/scheme.h"
#include "sim/cache.h"
#include "sim/decoded.h"
#include "sim/memory.h"
#include "support/check.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::sim {

namespace {

arch::CacheLevelConfig smallLevel() {
  // 4 sets x 2 ways x 64B = 512B.
  return {"T1", 512, 64, 2, 1};
}

TEST(CacheLevelTest, MissThenHit) {
  CacheLevel level(smallLevel());
  EXPECT_FALSE(level.lookup(0x1000));
  level.fill(0x1000);
  EXPECT_TRUE(level.lookup(0x1000));
  EXPECT_EQ(level.stats().hits, 1u);
  EXPECT_EQ(level.stats().misses, 1u);
}

TEST(CacheLevelTest, SameLineDifferentOffsetHits) {
  CacheLevel level(smallLevel());
  level.fill(0x1000);
  EXPECT_TRUE(level.lookup(0x1000 + 63));
  EXPECT_FALSE(level.lookup(0x1000 + 64));  // next line
}

TEST(CacheLevelTest, LruEvictionWithinSet) {
  CacheLevel level(smallLevel());
  // Three lines mapping to the same set (set stride = 4 lines * 64B).
  const std::uint64_t a = 0x0000;
  const std::uint64_t b = a + 4 * 64;
  const std::uint64_t c = b + 4 * 64;
  level.fill(a);
  level.fill(b);
  EXPECT_TRUE(level.lookup(a));  // a is now MRU
  level.fill(c);                 // evicts b (LRU)
  EXPECT_TRUE(level.lookup(a));
  EXPECT_FALSE(level.lookup(b));
  EXPECT_TRUE(level.lookup(c));
}

TEST(CacheLevelTest, ResetClearsStateAndStats) {
  CacheLevel level(smallLevel());
  level.fill(0x1000);
  level.lookup(0x1000);
  level.reset();
  EXPECT_FALSE(level.lookup(0x1000));
  EXPECT_EQ(level.stats().hits, 0u);
}

TEST(CacheHierarchyTest, LatenciesFollowHitLevel) {
  const arch::CacheConfig config;  // the paper's Table I hierarchy
  CacheHierarchy caches(config);
  // Cold: full miss.
  EXPECT_EQ(caches.access(0x10000), config.memoryLatency);
  // Warm: L1 hit.
  EXPECT_EQ(caches.access(0x10000), config.levels[0].latency);
  EXPECT_EQ(caches.memoryAccesses(), 1u);
}

TEST(CacheHierarchyTest, L2HitAfterL1Eviction) {
  const arch::CacheConfig config;
  CacheHierarchy caches(config);
  caches.access(0x10000);
  // Blow L1 (16K, 4-way, 64B lines): walk 32K of conflicting lines.
  for (std::uint64_t addr = 0x100000; addr < 0x100000 + 32 * 1024;
       addr += 64) {
    caches.access(addr);
  }
  // The original line left L1 but is still in L2.
  EXPECT_EQ(caches.access(0x10000), config.levels[1].latency);
}

TEST(CacheHierarchyTest, InclusiveFillsRefillFasterLevels) {
  const arch::CacheConfig config;
  CacheHierarchy caches(config);
  caches.access(0x4000);               // fills all levels
  caches.reset();
  EXPECT_EQ(caches.access(0x4000), config.memoryLatency);
}

TEST(CacheHierarchyTest, MemoryAccessLogRewindsWithTheCheckpoint) {
  // The log holds the address of each access that reached memory, oldest
  // first; a rewind drops what came after the checkpoint, a reset all.
  const arch::CacheConfig config;
  CacheHierarchy caches(config);
  caches.access(0x4000);
  caches.access(0x4008);  // same line: an L1 hit
  caches.access(0x9010);
  EXPECT_EQ(caches.memoryAccessLog(),
            (std::vector<std::uint64_t>{0x4000, 0x9010}));
  caches.setCheckpoint();
  caches.access(0x20000);
  EXPECT_EQ(caches.memoryAccesses(), 3u);
  caches.rewindToCheckpoint();
  EXPECT_EQ(caches.memoryAccessLog(),
            (std::vector<std::uint64_t>{0x4000, 0x9010}));
  caches.reset();
  EXPECT_TRUE(caches.memoryAccessLog().empty());
  EXPECT_EQ(caches.memoryAccesses(), 0u);
}

// The lockstep lanes' warm bound rests on this: the paper machine's L3
// keeps the whole arena (the globals and the heap) on all seven workloads,
// so under every scheme golden's L3 misses once per line it touches, the
// count a direct-mapped 64 MiB L3, with a set for every arena line, gives.
// A 64 KiB L3 cannot keep the arena.
TEST(CacheHierarchyTest, ThePaperL3NeverEvictsAnArenaLine) {
  const arch::MachineConfig paper = testutil::machine(2, 2);
  arch::MachineConfig roomy = paper;
  roomy.cache.levels[2] = {"L3", 64 << 20, 128, 1, 12};
  roomy.validate();
  for (const workloads::Workload& wl : workloads::makeAllWorkloads()) {
    for (const passes::Scheme scheme : passes::kAllSchemes) {
      const std::string label = wl.name + " " + passes::schemeName(scheme);
      const core::CompiledProgram bin =
          core::compile(wl.program, paper, scheme);
      EXPECT_TRUE(bin.decoded->lastLevelKeepsArena()) << label;
      EXPECT_FALSE(DecodedProgram::build(bin.program, bin.schedule,
                                         testutil::evictingMachine(2, 2))
                       .lastLevelKeepsArena())
          << label;
      const RunResult golden = core::run(bin);
      const RunResult lines = runDecoded(
          DecodedProgram::build(bin.program, bin.schedule, roomy), {});
      ASSERT_EQ(golden.stats.dynamicInsns, lines.stats.dynamicInsns) << label;
      EXPECT_EQ(golden.stats.cacheLevel[2].misses,
                lines.stats.cacheLevel[2].misses)
          << label;
    }
  }
}

TEST(CacheHierarchyTest, InvalidGeometryRejected) {
  arch::CacheConfig config;
  config.levels[0].blockBytes = 48;  // not a power of two
  EXPECT_THROW(CacheHierarchy{config}, FatalError);

  arch::CacheConfig config2;
  config2.levels[1].latency = 0;  // not increasing
  EXPECT_THROW(CacheHierarchy{config2}, FatalError);

  arch::CacheConfig config3;
  config3.memoryLatency = 5;  // below L3
  EXPECT_THROW(CacheHierarchy{config3}, FatalError);

  // One set of 1-byte blocks: a tag is the whole address, so no tag value
  // is left over to mark an empty slot.
  EXPECT_THROW(CacheLevel({"T", 4, 1, 4, 1}), FatalError);
}

// --- Checkpoints -------------------------------------------------------------
//
// A rewound level or hierarchy must be indistinguishable from one that never
// ran the suffix: every later lookup, latency and stat is compared against
// such a twin.

// `count` addresses over `lines` lines; the first lines are the hot ones, so
// the stream is mostly hits with some conflict misses.
std::vector<std::uint64_t> addressStream(std::uint64_t seed, std::size_t count,
                                         std::uint64_t lines,
                                         std::uint64_t lineBytes) {
  Rng rng(seed);
  std::vector<std::uint64_t> stream;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t line =
        rng.nextBool(0.8) ? rng.nextBelow(lines / 4 + 1) : rng.nextBelow(lines);
    stream.push_back(line * lineBytes + rng.nextBelow(lineBytes));
  }
  return stream;
}

// Lookup, fill on a miss; returns the hit pattern.
std::vector<bool> drive(CacheLevel& level,
                        const std::vector<std::uint64_t>& stream) {
  std::vector<bool> hits;
  for (const std::uint64_t address : stream) {
    const bool hit = level.lookup(address);
    if (!hit) {
      level.fill(address);
    }
    hits.push_back(hit);
  }
  return hits;
}

// 16 lines over the 4 sets x 2 ways of smallLevel(): lines 0-3 have tag 0,
// a real tag like any other.
std::vector<std::uint64_t> levelStream(std::uint64_t seed,
                                       std::size_t count) {
  return addressStream(seed, count, 16, 64);
}

// Which of levelStream's 16 lines a copy of `level` holds, before and after
// one more line is filled into every set: the fill evicts each set's LRU
// line, so the second half also shows each 2-way set's recency order.
std::vector<bool> residency(CacheLevel level) {
  std::vector<bool> resident;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t line = 0; line < 16; ++line) {
      CacheLevel probe = level;
      resident.push_back(probe.lookup(line * 64));
    }
    for (std::uint64_t line = 16; line < 20; ++line) {
      level.fill(line * 64);
    }
  }
  return resident;
}

void expectSameLevel(CacheLevel& rewound, CacheLevel& twin,
                     const std::string& label) {
  EXPECT_EQ(residency(rewound), residency(twin)) << label;
  const std::vector<std::uint64_t> probe = levelStream(99, 400);
  EXPECT_EQ(drive(rewound, probe), drive(twin, probe)) << label;
  EXPECT_EQ(rewound.stats().hits, twin.stats().hits) << label;
  EXPECT_EQ(rewound.stats().misses, twin.stats().misses) << label;
}

TEST(CacheCheckpointTest, HitHeavySuffixRewindsToTwin) {
  CacheLevel level(smallLevel());
  CacheLevel twin(smallLevel());
  const std::vector<std::uint64_t> prefix = levelStream(1, 64);
  drive(level, prefix);
  drive(twin, prefix);

  level.setCheckpoint();
  // Hits reorder LRU without changing residency; a rewind that lost a
  // hit's reordering would evict a different line during the probe.
  const std::vector<std::uint64_t> suffix = levelStream(2, 5000);
  drive(level, suffix);
  EXPECT_GT(level.stats().hits, 2000u);
  // First-touch logging: at most one record per set, however many hits.
  EXPECT_LE(level.rewindToCheckpoint(), 4u);
  expectSameLevel(level, twin, "hit-heavy suffix");
}

TEST(CacheCheckpointTest, FrontOfSetHitsRewindNoSets) {
  // A hit on the most recent line of its set writes nothing, so a suffix of
  // such hits leaves nothing to rewind; a hit that reorders a set is one
  // record.
  CacheLevel level(smallLevel());
  level.fill(0x1000);
  level.setCheckpoint();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(level.lookup(0x1000 + i % 64));
  }
  EXPECT_EQ(level.rewindToCheckpoint(), 0u);

  const arch::CacheConfig config;
  CacheHierarchy caches(config);
  // a and b share an L1 set (64 sets of 64-byte lines); c has its own.
  const std::uint64_t a = 0x10000;
  const std::uint64_t b = a + 64 * 64;
  const std::uint64_t c = a + 64;
  for (const std::uint64_t address : {a, b, c}) {
    caches.access(address);
  }
  caches.setCheckpoint();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(caches.access(b), config.levels[0].latency);
    EXPECT_EQ(caches.access(c), config.levels[0].latency);
  }
  EXPECT_EQ(caches.rewindToCheckpoint(), 0u);
  EXPECT_EQ(caches.access(a), config.levels[0].latency);  // a moves to front
  EXPECT_EQ(caches.rewindToCheckpoint(), 1u);
}

TEST(CacheCheckpointTest, TwoSuffixesAtOneMark) {
  // The second suffix must record the ways the first one touched: each
  // pre-image carries its old stamp back.
  CacheLevel level(smallLevel());
  CacheLevel twin(smallLevel());
  CacheLevel second(smallLevel());
  const std::vector<std::uint64_t> prefix = levelStream(3, 64);
  drive(level, prefix);
  drive(twin, prefix);
  drive(second, prefix);

  level.setCheckpoint();
  drive(level, levelStream(4, 300));
  level.rewindToCheckpoint();
  const std::vector<std::uint64_t> suffix2 = levelStream(5, 300);
  EXPECT_EQ(drive(level, suffix2), drive(second, suffix2));
  level.rewindToCheckpoint();
  expectSameLevel(level, twin, "second suffix at one mark");
}

TEST(CacheCheckpointTest, MarkRewindNewMarkRewind) {
  CacheLevel level(smallLevel());
  CacheLevel twin(smallLevel());
  const std::vector<std::uint64_t> prefix = levelStream(6, 64);
  drive(level, prefix);
  drive(twin, prefix);

  level.setCheckpoint();
  drive(level, levelStream(7, 300));
  level.rewindToCheckpoint();
  // Golden progress between the marks is kept by the next mark.
  const std::vector<std::uint64_t> middle = levelStream(8, 100);
  drive(level, middle);
  drive(twin, middle);
  level.setCheckpoint();
  drive(level, levelStream(9, 300));
  level.rewindToCheckpoint();
  expectSameLevel(level, twin, "second mark");
}

TEST(CacheCheckpointTest, ResetBetweenMarks) {
  CacheLevel level(smallLevel());
  CacheLevel twin(smallLevel());
  drive(level, levelStream(10, 64));
  drive(twin, levelStream(10, 64));

  level.setCheckpoint();
  drive(level, levelStream(11, 300));
  level.rewindToCheckpoint();
  level.reset();
  twin.reset();
  const std::vector<std::uint64_t> prefix2 = levelStream(12, 64);
  drive(level, prefix2);
  drive(twin, prefix2);
  level.setCheckpoint();
  drive(level, levelStream(13, 100));
  level.rewindToCheckpoint();
  CacheLevel rewound = level;  // probe copies: the run goes on below
  CacheLevel golden = twin;
  expectSameLevel(rewound, golden, "reset between marks");

  // A reset inside a suffix drops the checkpoint: the level is fresh.
  drive(level, levelStream(14, 100));
  level.reset();
  EXPECT_THROW(level.rewindToCheckpoint(), FatalError);
  CacheLevel fresh(smallLevel());
  expectSameLevel(level, fresh, "reset inside a suffix");
}

TEST(CacheCheckpointTest, HierarchyRewindsToTwin) {
  const arch::CacheConfig config;
  CacheHierarchy caches(config);
  CacheHierarchy twin(config);
  // 64 KiB of 64-byte lines: L1 (16 KiB) misses often, L2 mostly hits.
  auto access = [](CacheHierarchy& h, const std::vector<std::uint64_t>& s) {
    std::vector<std::uint32_t> latencies;
    for (const std::uint64_t address : s) {
      latencies.push_back(h.access(address));
    }
    return latencies;
  };
  auto stream = [](std::uint64_t seed, std::size_t count) {
    return addressStream(seed, count, 1024, 64);
  };
  const std::vector<std::uint64_t> prefix = stream(60, 2000);
  access(caches, prefix);
  access(twin, prefix);

  caches.setCheckpoint();
  for (std::uint64_t suffix = 0; suffix < 2; ++suffix) {
    access(caches, stream(61 + suffix, 20000));
    // L1 64 + L2 256 + L3 2048 sets bound the log, however long the
    // suffix.
    EXPECT_LE(caches.rewindToCheckpoint(), 64u + 256u + 2048u);
  }
  const std::vector<std::uint64_t> probe = stream(63, 4000);
  EXPECT_EQ(access(caches, probe), access(twin, probe));
  EXPECT_EQ(caches.memoryAccesses(), twin.memoryAccesses());
  for (std::size_t level = 0; level < config.levels.size(); ++level) {
    EXPECT_EQ(caches.levelStats(level).hits, twin.levelStats(level).hits)
        << level;
    EXPECT_EQ(caches.levelStats(level).misses, twin.levelStats(level).misses)
        << level;
  }
}

// --- Randomized schedules ------------------------------------------------------
//
// The injection drivers' whole vocabulary in random order: golden bursts
// (roll-forwards once a mark exists), marks, diverging suffixes, rewinds and
// resets.  A rewind must land on the golden run at the mark, and a reset on
// a freshly built twin; below the mark the log holds one record per way per
// roll-forward segment, which only a newest-first reset undoes correctly.

void access(CacheLevel& level, const std::vector<std::uint64_t>& stream) {
  drive(level, stream);
}
void access(CacheHierarchy& caches, const std::vector<std::uint64_t>& stream) {
  for (const std::uint64_t address : stream) {
    caches.access(address);
  }
}

// What a probe stream sees of a copy of `level`: the hit pattern and the
// stats.
std::vector<std::uint64_t> observe(CacheLevel level) {
  std::vector<std::uint64_t> seen;
  for (const bool hit : drive(level, levelStream(99, 400))) {
    seen.push_back(hit);
  }
  seen.push_back(level.stats().hits);
  seen.push_back(level.stats().misses);
  return seen;
}

// What a probe stream sees of a copy of `caches`: latencies, per-level
// stats and main-memory accesses.
std::vector<std::uint64_t> observe(CacheHierarchy caches) {
  std::vector<std::uint64_t> seen;
  for (const std::uint64_t address : addressStream(99, 2000, 256, 64)) {
    seen.push_back(caches.access(address));
  }
  for (std::size_t level = 0; level < 3; ++level) {
    seen.push_back(caches.levelStats(level).hits);
    seen.push_back(caches.levelStats(level).misses);
  }
  seen.push_back(caches.memoryAccesses());
  return seen;
}

template <typename Cache>
void randomSchedule(const Cache& fresh, std::uint64_t lines,
                    std::uint64_t seed) {
  Rng rng(seed);
  Cache cache = fresh;
  Cache golden = fresh;         // the same run without its suffixes
  std::optional<Cache> atMark;  // `golden` when the checkpoint was set
  bool inSuffix = false;
  int rewinds = 0;
  int resets = 0;
  for (std::uint64_t step = 0; step < 600; ++step) {
    const std::vector<std::uint64_t> burst =
        addressStream(seed * 1000 + step, 1 + rng.nextBelow(48), lines, 64);
    switch (rng.nextBelow(6)) {
      case 0:
      case 1:  // golden progress, or more of the suffix
        access(cache, burst);
        if (!inSuffix) {
          access(golden, burst);
        }
        break;
      case 2:  // a faulty suffix diverges from the golden run
        if (atMark) {
          access(cache, burst);
          inSuffix = true;
        }
        break;
      case 3:
        if (!inSuffix) {
          cache.setCheckpoint();
          atMark = golden;
        }
        break;
      case 4:
        if (atMark) {
          cache.rewindToCheckpoint();
          golden = *atMark;
          inSuffix = false;
          ++rewinds;
          ASSERT_EQ(observe(cache), observe(golden)) << "rewind, step " << step;
        }
        break;
      default:
        if (rng.nextBool(0.25)) {
          cache.reset();
          ++resets;
          ASSERT_EQ(observe(cache), observe(fresh)) << "reset, step " << step;
          EXPECT_THROW(cache.rewindToCheckpoint(), FatalError);
          golden = fresh;
          atMark.reset();
          inSuffix = false;
        }
        break;
    }
  }
  EXPECT_GE(rewinds, 20);
  EXPECT_GE(resets, 5);
}

TEST(CacheScheduleTest, LevelRewindsToGoldenAndResetsToFresh) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    randomSchedule(CacheLevel(smallLevel()), 16, seed);
  }
}

TEST(CacheScheduleTest, HierarchyRewindsToGoldenAndResetsToFresh) {
  // 4/8/16 sets: the schedule's 256 lines (16 KiB) miss in every level.
  arch::CacheConfig config;
  config.levels = {arch::CacheLevelConfig{"L1", 512, 64, 2, 1},
                   arch::CacheLevelConfig{"L2", 2048, 64, 4, 5},
                   arch::CacheLevelConfig{"L3", 8192, 128, 4, 12}};
  config.memoryLatency = 50;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    randomSchedule(CacheHierarchy(config), 256, seed);
  }
}

// --- The stamp-based LRU oracle -------------------------------------------------
//
// The LRU model that recency-ordered sets replaced, kept as an oracle: each
// way holds the level clock's value at its last use, a way is valid iff
// that stamp is nonzero (the clock ticks before every stamp), and a fill
// evicts the first way with the smallest stamp.  It has no undo log: a
// checkpoint of the oracle is a copy of it.

class StampLevel {
 public:
  explicit StampLevel(const arch::CacheLevelConfig& config)
      : config_(config),
        setCount_(config.sizeBytes / config.blockBytes / config.associativity),
        ways_(setCount_ * config.associativity) {}

  bool lookup(std::uint64_t address) {
    ++clock_;
    Way* base = &ways_[setIndex(address) * config_.associativity];
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
      if (base[w].lastUse != 0 && base[w].tag == tagOf(address)) {
        base[w].lastUse = clock_;
        ++stats_.hits;
        return true;
      }
    }
    ++stats_.misses;
    return false;
  }

  void fill(std::uint64_t address) {
    ++clock_;
    Way* base = &ways_[setIndex(address) * config_.associativity];
    Way* victim = &base[0];
    for (std::uint32_t w = 1; w < config_.associativity; ++w) {
      if (base[w].lastUse < victim->lastUse) {
        victim = &base[w];
      }
    }
    victim->tag = tagOf(address);
    victim->lastUse = clock_;
  }

  const CacheLevelStats& stats() const { return stats_; }
  std::uint32_t latency() const { return config_.latency; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lastUse = 0;
  };
  std::uint64_t setIndex(std::uint64_t address) const {
    return address / config_.blockBytes % setCount_;
  }
  std::uint64_t tagOf(std::uint64_t address) const {
    return address / config_.blockBytes / setCount_;
  }

  arch::CacheLevelConfig config_;
  std::uint64_t setCount_;
  std::vector<Way> ways_;
  std::uint64_t clock_ = 0;
  CacheLevelStats stats_;
};

struct StampHierarchy {
  explicit StampHierarchy(const arch::CacheConfig& config)
      : memoryLatency(config.memoryLatency) {
    for (const arch::CacheLevelConfig& level : config.levels) {
      levels.emplace_back(level);
    }
  }

  std::uint32_t access(std::uint64_t address) {
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (levels[i].lookup(address)) {
        for (std::size_t j = 0; j < i; ++j) {
          levels[j].fill(address);
        }
        return levels[i].latency();
      }
    }
    ++memoryAccesses;
    for (StampLevel& level : levels) {
      level.fill(address);
    }
    return memoryLatency;
  }

  std::vector<StampLevel> levels;
  std::uint32_t memoryLatency;
  std::uint64_t memoryAccesses = 0;
};

// Random bursts of accesses over `lines` 64-byte lines, with checkpoints,
// rewinds and resets in between: the hierarchy must match the oracle in
// every latency, per-level hit/miss count and main-memory access count.
void expectMatchesStampOracle(const arch::CacheConfig& config,
                              std::uint64_t lines, std::uint64_t seed) {
  Rng rng(seed);
  CacheHierarchy caches(config);
  const StampHierarchy fresh(config);
  StampHierarchy oracle = fresh;
  std::optional<StampHierarchy> atMark;
  int accesses = 0;
  int rewinds = 0;
  int resets = 0;
  for (std::uint64_t step = 0; step < 400; ++step) {
    switch (rng.nextBelow(8)) {
      case 0:
        caches.setCheckpoint();
        atMark = oracle;
        break;
      case 1:
        if (atMark) {
          caches.rewindToCheckpoint();
          oracle = *atMark;
          ++rewinds;
        }
        break;
      case 2:
        if (rng.nextBool(0.3)) {
          caches.reset();
          oracle = fresh;
          atMark.reset();
          ++resets;
        }
        break;
      default:
        for (const std::uint64_t address : addressStream(
                 seed * 1000 + step, 1 + rng.nextBelow(200), lines, 64)) {
          ASSERT_EQ(caches.access(address), oracle.access(address))
              << "step " << step << ", address " << address;
          ++accesses;
        }
        break;
    }
    for (std::size_t level = 0; level < config.levels.size(); ++level) {
      ASSERT_EQ(caches.levelStats(level).hits,
                oracle.levels[level].stats().hits)
          << "step " << step << ", level " << level;
      ASSERT_EQ(caches.levelStats(level).misses,
                oracle.levels[level].stats().misses)
          << "step " << step << ", level " << level;
    }
    ASSERT_EQ(caches.memoryAccesses(), oracle.memoryAccesses) << step;
  }
  EXPECT_GE(accesses, 10000);
  EXPECT_GE(rewinds, 10);
  EXPECT_GE(resets, 3);
}

TEST(CacheOracleTest, TableOneHierarchyMatchesStampLru) {
  // 4 MiB of lines, a quarter of them hot: L1 and L2 miss often, and L3
  // (3 MiB, 12 ways) both hits and evicts.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expectMatchesStampOracle(arch::CacheConfig{}, 1 << 16, seed);
  }
}

TEST(CacheOracleTest, SmallHierarchiesMatchStampLru) {
  // Direct-mapped, 4-way and 3-way levels of 4/8/8 sets under 16 KiB of
  // lines: every level evicts constantly.
  arch::CacheConfig config;
  config.levels = {arch::CacheLevelConfig{"L1", 256, 64, 1, 1},
                   arch::CacheLevelConfig{"L2", 2048, 64, 4, 5},
                   arch::CacheLevelConfig{"L3", 3072, 128, 3, 12}};
  config.memoryLatency = 50;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expectMatchesStampOracle(config, 256, seed);
  }
}

// --- Memory --------------------------------------------------------------------

TEST(MemoryTest, ReadWriteRoundTrip) {
  ir::Program prog;
  const std::uint64_t addr = prog.allocateGlobal("x", 32);
  Memory memory(prog, 0);
  memory.writeU64(addr, 0x1122334455667788ULL);
  EXPECT_EQ(memory.readU64(addr), 0x1122334455667788ULL);
  EXPECT_EQ(memory.readU8(addr), 0x88);  // little endian
  memory.writeU8(addr + 1, 0xff);
  EXPECT_EQ(memory.readU64(addr), 0x112233445566ff88ULL);
  memory.writeF64(addr + 8, 2.5);
  EXPECT_EQ(memory.readF64(addr + 8), 2.5);
}

TEST(MemoryTest, InitialImageFromProgram) {
  ir::Program prog;
  const std::uint64_t addr =
      prog.allocateGlobal("data", std::vector<std::uint8_t>{9, 8, 7});
  const Memory memory(prog, 0);
  EXPECT_EQ(memory.readU8(addr), 9);
  EXPECT_EQ(memory.readU8(addr + 2), 7);
}

TEST(MemoryTest, HeapZeroed) {
  ir::Program prog;
  prog.allocateGlobal("data", 8);
  const Memory memory(prog, 64);
  EXPECT_EQ(memory.readU64(prog.globalEnd()), 0u);
}

TEST(MemoryTest, GuardPageFaults) {
  ir::Program prog;
  prog.allocateGlobal("data", 8);
  const Memory memory(prog, 0);
  EXPECT_THROW(memory.readU8(0), TrapError);
  EXPECT_THROW(memory.readU8(ir::Program::kGlobalBase - 1), TrapError);
}

TEST(MemoryTest, OutOfArenaFaults) {
  ir::Program prog;
  prog.allocateGlobal("data", 8);
  Memory memory(prog, 0);
  EXPECT_THROW(memory.readU64(memory.arenaEnd()), TrapError);
  EXPECT_THROW(memory.readU8(memory.arenaEnd()), TrapError);
  // Last byte is fine.
  EXPECT_NO_THROW(memory.readU8(memory.arenaEnd() - 1));
}

TEST(MemoryTest, MisalignedWordFaults) {
  ir::Program prog;
  prog.allocateGlobal("data", 32);
  Memory memory(prog, 0);
  const std::uint64_t addr = prog.symbol("data").address;
  EXPECT_THROW(memory.readU64(addr + 4), TrapError);
  EXPECT_THROW(memory.writeF64(addr + 1, 1.0), TrapError);
  EXPECT_NO_THROW(memory.readU64(addr + 8));
}

TEST(MemoryTest, WrapAroundAddressFaults) {
  ir::Program prog;
  prog.allocateGlobal("data", 8);
  const Memory memory(prog, 0);
  EXPECT_THROW(memory.readU64(~0ULL - 3), TrapError);
}

TEST(MemoryTest, SnapshotCopiesRange) {
  ir::Program prog;
  const std::uint64_t addr =
      prog.allocateGlobal("data", std::vector<std::uint8_t>{1, 2, 3, 4});
  const Memory memory(prog, 0);
  const std::vector<std::uint8_t> snap = memory.snapshot(addr + 1, 2);
  EXPECT_EQ(snap, (std::vector<std::uint8_t>{2, 3}));
}

TEST(MemoryTest, SnapshotOutOfRangeTrapsAtFirstBadByte) {
  ir::Program prog;
  const std::uint64_t addr =
      prog.allocateGlobal("data", std::vector<std::uint8_t>{1, 2, 3, 4});
  const Memory memory(prog, 0);
  const std::uint64_t end = memory.arenaEnd();
  auto trapAddress = [&](std::uint64_t address, std::uint64_t size) {
    try {
      memory.snapshot(address, size);
    } catch (const TrapError& trap) {
      EXPECT_EQ(trap.kind, TrapKind::kBadAddress);
      return trap.address;
    }
    ADD_FAILURE() << "no trap for [" << address << ", +" << size << ")";
    return std::uint64_t{0};
  };
  EXPECT_EQ(memory.snapshot(end - 4, 4),
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(addr, end - 4);
  EXPECT_EQ(trapAddress(end - 2, 3), end);     // runs off the end
  EXPECT_EQ(trapAddress(end, 1), end);         // starts past it
  EXPECT_EQ(trapAddress(addr - 1, 2), addr - 1);  // starts in the guard
  EXPECT_EQ(trapAddress(addr, ~0ULL), end);    // wraps the address space
  EXPECT_TRUE(memory.snapshot(0, 0).empty());  // empty ranges never trap
}

// --- Memory undo log ------------------------------------------------------------

std::vector<std::uint8_t> image(const Memory& memory) {
  return memory.snapshot(ir::Program::kGlobalBase,
                         memory.arenaEnd() - ir::Program::kGlobalBase);
}

TEST(MemoryUndoTest, SuffixesRewindAndResetRestoresFresh) {
  ir::Program prog;
  const std::uint64_t data = prog.allocateGlobal(
      "data", std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                        12, 13, 14, 15, 16});
  Memory memory(prog, 16);
  const Memory fresh(prog, 16);
  const std::uint64_t last = memory.arenaEnd() - 1;  // a heap byte

  // The prefix writes the word and the byte every later segment rewrites,
  // so an oldest-first undo would leave prefix values behind.
  memory.writeU64(data, 0x1111);
  memory.writeU8(last, 0xaa);
  memory.setCheckpoint();
  const std::vector<std::uint8_t> atMark = image(memory);

  memory.writeU64(data, 0x2222);
  memory.writeU8(data + 3, 0x33);
  memory.writeU64(data, 0x4444);
  memory.writeF64(data + 8, 1.5);
  memory.writeU8(last, 0xbb);
  EXPECT_EQ(memory.rewindToCheckpoint(), 5u);
  EXPECT_EQ(image(memory), atMark);

  memory.rawWriteU64(data + 8, 0x5555);
  memory.rawWriteU8(last, 0xcc);
  EXPECT_EQ(memory.rewindToCheckpoint(), 2u);
  EXPECT_EQ(image(memory), atMark);

  // Roll forward past the mark, set the next one, and reset inside its
  // suffix: every write since construction is undone and the mark dropped.
  memory.writeU64(data, 0x6666);
  memory.writeU8(last, 0xdd);
  memory.setCheckpoint();
  memory.writeU64(data, 0x7777);
  memory.writeU8(last, 0xee);
  memory.reset();
  EXPECT_EQ(image(memory), image(fresh));
  EXPECT_THROW(memory.rewindToCheckpoint(), FatalError);
}

TEST(MemoryUndoTest, RewindWithoutMarkThrows) {
  ir::Program prog;
  const std::uint64_t data = prog.allocateGlobal("data", 8);
  Memory memory(prog, 0);
  memory.writeU64(data, 1);
  EXPECT_THROW(memory.rewindToCheckpoint(), FatalError);
}

}  // namespace
}  // namespace casted::sim
