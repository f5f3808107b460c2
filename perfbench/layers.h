// The traced run's per-layer split.  Everything here drives the library
// through public entry points only and times each call from the
// benchmark's side:
//   * compileSplit — core::compile taken apart: each pass's Pass::run in
//     core::buildPipeline's order, sched::scheduleProgram,
//     sim::DecodedProgram::build and the golden sim::runDecoded;
//   * replayCampaign / replayEnumeration — the plan streams of
//     core::campaign and core::groundTruth replayed through the stepwise
//     sim::DecodedRunner API and fault::classify.
// The replays leave the reconvergence cutoff (setCutoffReference) unarmed;
// their results must still equal the drivers' reports exactly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "digest.h"

namespace perfbench {

// core::buildPipeline's pass order for the default PipelineOptions (NOED
// skips error-detection).
inline constexpr std::array<const char*, 6> kPassNames = {
    "early-opts", "error-detection", "local-cse",
    "dce",        "assignment",      "protection-lint"};

struct CompileSplit {
  std::array<double, kPassNames.size()> passMs = {};
  double scheduleMs = 0.0;
  double decodeMs = 0.0;
  double goldenMs = 0.0;
  std::uint64_t goldenInsns = 0;
  std::uint64_t insnsOut = 0;
  std::uint64_t analysisHits = 0;
  std::uint64_t analysisMisses = 0;
};

// Compiles `source` as core::compile does for the default pipeline with
// `verifyAfterPasses` off, calling each pass directly and invalidating the
// analysis cache after a pass that preserves nothing; then schedules,
// decodes and runs the golden program into `golden`.  Adds every call's
// host time to `split`.  Throws FatalError when core::buildPipeline's pass
// list differs from the one replicated here.
casted::core::CompiledProgram compileSplit(
    const casted::ir::Program& source,
    const casted::arch::MachineConfig& machine, casted::passes::Scheme scheme,
    CompileSplit& split, casted::sim::RunResult& golden);

struct SweepSplit {
  double planMs = 0.0;
  double prefixMs = 0.0;   // begin + runToDef
  double saveMs = 0.0;
  double restoreMs = 0.0;
  double suffixMs = 0.0;   // injectAtPause + finish
  double classifyMs = 0.0;
  std::array<double, casted::fault::kOutcomeCount> suffixMsByOutcome = {};
  std::uint64_t checkpoints = 0;
  std::uint64_t runs = 0;
  // Def-producing instructions executed after the injection point.  The
  // stepwise API exposes no instruction count at a pause, but the def
  // count there is the paused ordinal + 1 by definition.
  std::uint64_t suffixDefInsns = 0;
  double totalMs = 0.0;    // wall time of the replay calls
};

// Replays core::campaign(bin, options) (one worker, checkpointed mode).
CampaignCounts replayCampaign(const casted::core::CompiledProgram& bin,
                              const casted::fault::CampaignOptions& options,
                              SweepSplit& split);

// Replays core::groundTruth(bin, options) (one worker, checkpointed mode).
// No workload runs it; perfbench_test checks its site count against the
// driver's.
EnumCounts replayEnumeration(const casted::core::CompiledProgram& bin,
                             const casted::fault::ExhaustiveOptions& options,
                             SweepSplit& split);

// Effective fault sites of one dynamic execution of `insn`: 1 per
// predicate-register def (every bit draw flips the same bit), 64 per other
// def.
std::uint32_t sitesPerExecution(const casted::ir::Instruction& insn);

// The replay's site count for a golden def trace.
std::uint64_t countSites(const casted::ir::Program& program,
                         const std::vector<casted::sim::DefSite>& defTrace);

}  // namespace perfbench
