// Run outcomes and statistics reported by the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "sim/memory.h"

namespace casted::sim {

// How a run ended.
enum class ExitKind : std::uint8_t {
  kHalted,    // reached kHalt (normal termination)
  kDetected,  // a CHECK instruction fired — the error-detection outcome
  kException, // hardware trap (bad address, div-by-zero, ...)
  kTimeout,   // watchdog expired (runaway execution)
};

const char* exitKindName(ExitKind kind);

struct RunStats {
  std::uint64_t cycles = 0;           // total simulated cycles
  std::uint64_t stallCycles = 0;      // portion of cycles from cache misses
  std::uint64_t dynamicInsns = 0;     // instructions executed
  std::uint64_t dynamicDefInsns = 0;  // executed instructions with outputs
  std::uint64_t blockExecutions = 0;
  std::uint64_t memAccesses = 0;
  CacheLevelStats cacheLevel[3];
  std::uint64_t memoryAccesses = 0;   // accesses that reached main memory
};

struct RunResult {
  ExitKind exit = ExitKind::kHalted;
  TrapKind trap = TrapKind::kNone;
  std::int64_t exitCode = 0;
  RunStats stats;
  // Snapshot of the program's "output" symbol (empty if none declared).
  std::vector<std::uint8_t> output;
};

// Surfaces one completed run into the trace session's counters
// (sim.<engine>.runs / .insns / .cycles / .l<k>.hits|misses / ...): what
// it executed, `stats` minus `from`, the statistics it started from (zero
// for a run from program start, a checkpoint's for a restored run).
// Shared by both engines; a no-op beyond one atomic load while tracing is
// inactive.  Defined in simulator.cpp.
void traceRunStats(const char* engine, const RunStats& stats,
                   const RunStats& from = {});

// Static identity of one dynamically executed def-producing instruction:
// the function, the block, and the instruction's position within the block.
// When SimOptions::defTrace is set, both engines append one DefSite per def
// ordinal, in ordinal order — the hook the exhaustive fault-space layer
// (fault/exhaustive.h) builds its site table from.
struct DefSite {
  std::uint32_t func = 0;
  std::uint32_t block = 0;
  std::uint32_t node = 0;  // instruction index within the block

  friend bool operator==(const DefSite&, const DefSite&) = default;
};

// One bit flip: at the `ordinal`-th dynamically executed def-producing
// instruction (0-based, counted across the whole run), flip bit `bit` of
// output register `whichDef`.
struct FaultPoint {
  std::uint64_t ordinal = 0;
  std::uint32_t whichDef = 0;
  std::uint32_t bit = 0;
};

// A deterministic injection plan: points sorted by ordinal.  An empty plan
// is a fault-free (golden) run.
struct FaultPlan {
  std::vector<FaultPoint> points;
};

}  // namespace casted::sim
