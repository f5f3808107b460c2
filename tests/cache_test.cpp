#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "sim/memory.h"
#include "support/check.h"
#include "test_util.h"

namespace casted::sim {

struct CacheLevelTestAccess {
  static void setStamps(CacheLevel& level, std::uint32_t epoch,
                        std::uint32_t mark) {
    level.epoch_ = epoch;
    level.mark_ = mark;
  }
};

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
// which is what a never-filled way holds.
std::vector<std::uint64_t> levelStream(std::uint64_t seed,
                                       std::size_t count) {
  return addressStream(seed, count, 16, 64);
}

void expectSameLevel(CacheLevel& rewound, CacheLevel& twin,
                     const std::string& label) {
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
  // hit's lastUse would evict a different way during the probe.
  const std::vector<std::uint64_t> suffix = levelStream(2, 5000);
  drive(level, suffix);
  EXPECT_GT(level.stats().hits, 2000u);
  // First-touch logging: at most one record per way, however many hits.
  EXPECT_LE(level.rewindToCheckpoint(), 8u);
  expectSameLevel(level, twin, "hit-heavy suffix");
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
  // A reset inside the suffix is rewound like any other mutation.
  drive(level, levelStream(13, 100));
  level.reset();
  drive(level, levelStream(14, 100));
  level.rewindToCheckpoint();
  expectSameLevel(level, twin, "reset between marks");
}

TEST(CacheCheckpointTest, EpochWrapActsLikeReset) {
  // Epoch 0 is what never-filled ways hold, so the wrap must not reuse it:
  // the probe's tag-0 lines would hit those ways.
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  CacheLevel level(smallLevel());
  CacheLevelTestAccess::setStamps(level, kMax - 1, 0);
  CacheLevel twin(smallLevel());
  for (const std::uint64_t address : {0x1000, 0x1040}) {  // epoch max-1
    level.fill(address);
    twin.fill(address);
  }
  for (int round = 0; round < 2; ++round) {  // epochs max, then 1
    level.reset();
    twin.reset();
  }
  expectSameLevel(level, twin, "after the epoch wrap");
}

TEST(CacheCheckpointTest, EpochWrapInsideSuffixRewinds) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  CacheLevel level(smallLevel());
  CacheLevelTestAccess::setStamps(level, kMax, 0);
  CacheLevel twin(smallLevel());
  const std::vector<std::uint64_t> prefix = levelStream(30, 64);
  drive(level, prefix);
  drive(twin, prefix);

  level.setCheckpoint();
  level.reset();  // wraps the epoch
  drive(level, levelStream(31, 100));
  EXPECT_LE(level.rewindToCheckpoint(), 8u);
  expectSameLevel(level, twin, "epoch wrap inside a suffix");
}

TEST(CacheCheckpointTest, MarkWrapRecordsAgain) {
  // Mark 0 is what never-logged ways hold, so the wrap must not reuse it:
  // nothing would be logged under it.
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  CacheLevel level(smallLevel());
  CacheLevelTestAccess::setStamps(level, 1, kMax - 1);
  CacheLevel twin(smallLevel());
  const std::vector<std::uint64_t> prefix = levelStream(40, 64);
  drive(level, prefix);
  drive(twin, prefix);
  // The first rewind hands every way its stamp 0 back.
  for (std::uint64_t round = 0; round < 2; ++round) {  // marks max, then 1
    level.setCheckpoint();
    drive(level, levelStream(50 + round, 300));
    level.rewindToCheckpoint();
  }
  expectSameLevel(level, twin, "after the mark wrap");
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
    // L1 256 + L2 2048 + L3 24576 ways bound the log, however long the
    // suffix.
    EXPECT_LE(caches.rewindToCheckpoint(), 256u + 2048u + 24576u);
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

}  // namespace
}  // namespace casted::sim
