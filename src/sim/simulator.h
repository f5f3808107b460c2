// The clustered-VLIW simulator (our stand-in for the paper's modified SKI).
//
// Two interchangeable engines execute a program:
//   * kDecoded (default) — runs the flat pre-decoded micro-op arrays of
//     sim::DecodedProgram (see decoded.h), the fast path the Monte Carlo
//     campaigns use;
//   * kReference — the original IR-walking interpreter (simulator.cpp),
//     kept as the behavioural oracle the decoded engine is differentially
//     tested against (tests/engine_differential_test.cpp).
// Both engines are required to produce field-for-field identical RunResults
// for every program, schedule, machine and fault plan.
//
// Execution is split in two coupled walks per basic-block execution:
//   * a functional walk in program order — computes values, follows calls
//     and branches, performs memory reads/writes, fires CHECKs, raises
//     traps, and (for fault-injection runs) applies the planned bit flips to
//     instruction outputs;
//   * a timing walk over the block's static VLIW schedule — charges the
//     schedule length plus cache-miss stalls.  Misses issued in the same
//     bundle overlap (non-blocking caches): the bundle pays only the worst
//     extra latency, which is the MLP mechanism CASTED's spreading of
//     memory operations exploits (§III-D).
//
// The split is sound because the scheduler honours every DFG dependence, so
// the scheduled order computes exactly the program-order values.
#pragma once

#include <cstdint>
#include <string>

#include "arch/machine_config.h"
#include "ir/function.h"
#include "sched/schedule.h"
#include "sim/run_result.h"

namespace casted::sim {

// Which interpreter executes the program.
enum class Engine : std::uint8_t {
  kDecoded,    // flat micro-op arrays (fast path; see decoded.h)
  kReference,  // the original IR-walking interpreter (the oracle)
};

const char* engineName(Engine engine);

struct SimOptions {
  std::uint64_t heapBytes = 1 << 20;   // zeroed scratch after the globals
  std::uint64_t maxCycles = ~0ULL;     // watchdog (timeout outcome)
  std::uint32_t maxCallDepth = 256;
  std::string outputSymbol = "output"; // snapshot target for classification
  const FaultPlan* faultPlan = nullptr;
  Engine engine = Engine::kDecoded;
  // When non-null, the engine clears the vector at run start and appends the
  // static site of every dynamically executed def-producing instruction, in
  // def-ordinal order (so (*defTrace)[i] is the instruction FaultPoint
  // ordinal i targets).  Identical for both engines.  The trace belongs to
  // the golden profiling run: both engines CHECK that it is null whenever
  // faultPlan is set (it would cost a push_back per def in the hot injection
  // loop, and a rewound stepwise run could not keep it consistent).
  std::vector<DefSite>* defTrace = nullptr;
};

// Executes `program` from its entry function to completion with the engine
// `options.engine` selects.  `schedule` must have been produced from
// `program` with `config` (same block/function shapes).  The decoded engine
// decodes the program for this one run; callers that run a program many
// times build a DecodedProgram once and use a DecodedRunner.
RunResult simulate(const ir::Program& program,
                   const sched::ProgramSchedule& schedule,
                   const arch::MachineConfig& config, SimOptions options = {});

}  // namespace casted::sim
