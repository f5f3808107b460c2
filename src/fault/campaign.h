// Monte Carlo fault-injection campaign (paper §IV-C).
//
// Methodology, mirrored from the paper:
//   * profile the binary (a golden run) to learn its dynamic instruction
//     count, cycle count, reference output and exit code;
//   * per trial, pick a random dynamic instruction, pick one of its output
//     registers, flip one random bit of it;
//   * fixed error *rate*: binaries with error detection are longer than the
//     original, so they receive one error per `originalDefInsns` dynamic
//     instructions of their own execution (≈2.4 errors per run at the
//     paper's 2.4x code growth) rather than one per run;
//   * classify each trial into the paper's five outcome classes.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "arch/machine_config.h"
#include "sched/schedule.h"
#include "sim/decoded.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace casted::fault {

// The five outcome classes of Fig. 9/10.
enum class Outcome : std::uint8_t {
  kBenign,       // same output and exit code as the golden run
  kDetected,     // a CHECK fired
  kException,    // hardware trap (kept separate, as in the paper)
  kDataCorrupt,  // wrong output, undetected — the bad case
  kTimeout,      // watchdog expired
};
inline constexpr std::size_t kOutcomeCount = 5;

const char* outcomeName(Outcome outcome);

// How the injection drivers execute each faulty run.
enum class InjectionMode : std::uint8_t {
  // Re-execute every faulty run from program start.  The oracle path: dead
  // simple, no shared state between runs.
  kFull,
  // Checkpoint-and-diverge (DESIGN.md §10): replay the golden prefix once
  // per injection ordinal, snapshot at the def pause, and restore the
  // snapshot for every site at that ordinal; each faulty suffix runs to its
  // natural end.  The campaign first decides its trials as lockstep lanes
  // of one golden stream per window and runs only the lanes lockstep
  // cannot decide exactly that way.  Reports are bit-identical to kFull —
  // the driver oracle tests enforce it.  Requires the decoded engine;
  // silently falls back to kFull under the reference engine (which has no
  // stepwise API).
  kCheckpointed,
};

const char* injectionModeName(InjectionMode mode);

struct CoverageReport {
  std::array<std::uint64_t, kOutcomeCount> counts = {};
  std::uint64_t trials = 0;
  // Total dynamic instructions executed across all faulty trials (excluding
  // the golden profiling run) — the work metric the engine benchmarks
  // divide by wall time.  Deterministic for a given (seed, trials) like the
  // outcome counts.
  std::uint64_t dynamicInsns = 0;

  double fraction(Outcome outcome) const {
    return trials == 0 ? 0.0
                       : static_cast<double>(
                             counts[static_cast<int>(outcome)]) /
                             static_cast<double>(trials);
  }
  // Detected + exception + benign + timeout, i.e. everything except silent
  // data corruption.  An empty campaign reports 0 (consistent with
  // fraction(): no trials means no evidence, not perfect safety).
  double safeFraction() const {
    return trials == 0 ? 0.0 : 1.0 - fraction(Outcome::kDataCorrupt);
  }
};

struct CampaignOptions {
  std::uint32_t trials = 300;  // the paper's Monte Carlo repetition count
  std::uint64_t seed = 0xCA57EDu;
  // Worker threads for the trial loop.  0 = one per hardware thread.  Each
  // trial seeds its own RNG from deriveStreamSeed(seed, trialIndex), so the
  // CoverageReport is bit-identical for every thread count (and to the
  // serial run).
  std::uint32_t threads = 1;
  // Dynamic def-producing instruction count of the ORIGINAL (NOED) binary;
  // sets the fixed error rate.  0 means "use the injected binary's own
  // count" (exactly one expected error per run).
  std::uint64_t originalDefInsns = 0;
  // Watchdog: a faulty run is declared a timeout after
  // goldenCycles * timeoutFactor cycles.
  std::uint64_t timeoutFactor = 20;
  // Execution strategy for the faulty runs; kFull is the oracle.  Trials
  // are visited in injection-ordinal order in every mode, so a checkpointed
  // worker replays each golden prefix once; outcome counts and instruction
  // totals commute, so the report stays bit-identical to kFull at every
  // thread count.
  InjectionMode mode = InjectionMode::kCheckpointed;
  sim::SimOptions simOptions;
};

// Profile of the golden (fault-free) run.
struct GoldenProfile {
  sim::RunResult result;
  std::uint64_t defInsns = 0;  // fault-target population
  std::uint64_t cycles = 0;
};

// Runs the golden execution once.
GoldenProfile profileGolden(const ir::Program& program,
                            const sched::ProgramSchedule& schedule,
                            const arch::MachineConfig& config,
                            const sim::SimOptions& simOptions);

// Classifies one faulty run against the golden profile.  Precedence (the
// run's ExitKind dominates any output comparison):
//   1. kDetected  — a CHECK fired, even if memory was already corrupted;
//   2. kException — hardware trap;
//   3. kTimeout   — watchdog expired;
//   4. halted runs only: kDataCorrupt when output bytes or the exit code
//      differ from the golden run, else kBenign.
Outcome classify(const sim::RunResult& faulty, const GoldenProfile& golden);

// Generates the injection plan for one trial: the number of flips follows
// the fixed error rate (>= 1), each targeting a uniformly random dynamic
// def-producing instruction, output register and bit.
sim::FaultPlan makeTrialPlan(Rng& rng, std::uint64_t runDefInsns,
                             std::uint64_t originalDefInsns);

// Runs the full campaign.  Trials execute on a pool of `options.threads`
// workers; every trial's randomness depends only on (seed, trialIndex), so
// the report is deterministic regardless of thread count or interleaving —
// and of the engine, since both engines are behaviourally identical.
//
// With the decoded engine (the default), the program is decoded ONCE —
// either the caller-supplied `decoded` (e.g. the one cached in
// core::CompiledProgram) or a locally built one — and shared read-only by
// every worker, so the per-trial cost is pure execution with no IR
// re-walking.  `decoded`, when given, must have been built from exactly
// (program, schedule, config).
CoverageReport runCampaign(const ir::Program& program,
                           const sched::ProgramSchedule& schedule,
                           const arch::MachineConfig& config,
                           const CampaignOptions& options = {},
                           const sim::DecodedProgram* decoded = nullptr);

}  // namespace casted::fault
