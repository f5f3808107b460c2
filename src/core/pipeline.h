// casted::core — the library's top-level API.
//
// Mirrors the paper's tool flow (Fig. 5) as a declarative pm::PassManager
// pipeline: early optimisations, the error-detection pass (Algorithm 1),
// optional register-pressure spilling, late CSE/DCE, cluster assignment
// (fixed SCED/DCED placement or BUG, Algorithm 2) — then VLIW scheduling
// over the analysis manager's cached block DFGs, and on to the simulator or
// the (optionally multi-threaded) fault-injection campaign.
//
//   auto machine = arch::makePaperMachine(/*issueWidth=*/2, /*delay=*/1);
//   core::CompiledProgram bin =
//       core::compile(program, machine, passes::Scheme::kCasted);
//   bin.report.toString();            // per-pass time / Δinsns / stats
//   bin.report.stat("error-detection", "checks");
//   sim::RunResult r = core::run(bin);
//   fault::CoverageReport cov =
//       core::campaign(bin, {.trials = 300, .threads = 8});
#pragma once

#include <memory>

#include "arch/machine_config.h"
#include "fault/campaign.h"
#include "fault/exhaustive.h"
#include "ir/function.h"
#include "passes/assignment.h"
#include "passes/early_opts.h"
#include "passes/error_detection.h"
#include "passes/late_opts.h"
#include "passes/protection_lint.h"
#include "passes/scheme.h"
#include "passes/spill.h"
#include "pm/pass_manager.h"
#include "sched/schedule.h"
#include "sim/simulator.h"

namespace casted::core {

// The pipeline always starts with the early optimisations (constant folding
// + copy propagation, standing in for the paper's "-O1, optimizations
// enabled" input code) and ends with the ProtectionLint analysis, whose
// protected / sphere-exit / unprotected counts land in the PipelineReport
// (e.g. report.stat("protection-lint", "unprotected")).
struct PipelineOptions {
  passes::ErrorDetectionOptions errorDetection;
  // Late CSE/DCE.  The paper runs them for NOED and disables them for the
  // replicated code of the protected binaries (§IV-A); `protectRedundant`
  // expresses exactly that, so the passes stay on by default for every
  // scheme.  The ablation bench flips protectRedundant off to show why the
  // paper needed this.
  bool runLateOptimisations = true;
  passes::LateOptOptions lateOpts;
  // Model per-cluster register-file capacity by spilling (DESIGN.md §8 and
  // paper §IV-B1): off by default — the main experiments keep virtual
  // registers, `ablation_spill` turns this on.
  bool modelRegisterPressure = false;
  // Verify the IR after each transformation (cheap; keep on outside of the
  // inner loops of big sweeps).
  bool verifyAfterPasses = true;
};

// A scheduled binary for one (machine, scheme) point.
struct CompiledProgram {
  ir::Program program;  // transformed copy of the source
  sched::ProgramSchedule schedule;
  passes::Scheme scheme = passes::Scheme::kNoed;
  arch::MachineConfig machine;
  // Per-pass instrumentation: wall time, instruction deltas, and each
  // pass's counters as key/value stats (e.g.
  // report.stat("error-detection", "checks")).  Passes that did not run
  // report 0 for every key.
  pm::PipelineReport report;
  // Decoded form of (program, schedule, machine), built once by compile().
  // Immutable and self-contained, so core::run / core::campaign (and any
  // number of concurrent callers) share it read-only; shared_ptr keeps
  // CompiledProgram copyable without re-decoding.
  std::shared_ptr<const sim::DecodedProgram> decoded;

  // Static code growth vs `sourceInsns` (the paper reports ~2.4x).
  double codeGrowth(std::size_t sourceInsns) const {
    return sourceInsns == 0
               ? 0.0
               : static_cast<double>(program.insnCount()) /
                     static_cast<double>(sourceInsns);
  }
};

// Builds the pass pipeline `compile` runs for (scheme, options): early opts,
// error detection (skipped for NOED), spilling (if modelled), local CSE +
// DCE, cluster assignment, protection lint.  Exposed so tests and tools can
// inspect or rerun the exact pipeline.
pm::PassManager buildPipeline(passes::Scheme scheme,
                              const PipelineOptions& options = {});

// Compiles `source` for `machine` under `scheme`.  The source program is not
// modified.
CompiledProgram compile(const ir::Program& source,
                        const arch::MachineConfig& machine,
                        passes::Scheme scheme,
                        const PipelineOptions& options = {});

// Executes a compiled program.
sim::RunResult run(const CompiledProgram& compiled,
                   sim::SimOptions options = {});

// Runs the Monte Carlo fault campaign on a compiled program.  By default
// (options.mode; DESIGN.md §10) each window of trials runs as lockstep
// lanes of as few golden streams as the lane slots allow over the cached
// decode, and the lanes they cannot decide exactly re-run from the
// checkpoint their stream saved at its first flip; the report is
// bit-identical to the full-rerun oracle mode either way.
fault::CoverageReport campaign(const CompiledProgram& compiled,
                               const fault::CampaignOptions& options = {});

// Exhaustively enumerates and classifies the complete fault-site space of a
// compiled program (the ground truth the campaign samples) — see
// fault/exhaustive.h.  In the default checkpointed injection mode the
// sites of each run of fault::kOrdinalsPerWindow consecutive dynamic defs
// are one window of lockstep lanes instead of a re-run of the program per
// site.  Still only tractable for small and mid-sized workloads; use
// `options.maxSites` as a guard.
fault::GroundTruthReport groundTruth(
    const CompiledProgram& compiled,
    const fault::ExhaustiveOptions& options = {});

}  // namespace casted::core
