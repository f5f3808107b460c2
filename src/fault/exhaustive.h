// Exhaustive fault-space enumeration — the ground-truth oracle behind the
// Monte Carlo campaign.
//
// The campaign (campaign.h) samples the fault space; this layer enumerates
// it completely.  The fault space of one run is the set of
//
//     (dynamic def ordinal) x (output register) x (bit)
//
// sites: every def-producing instruction execution, every register it
// defines, every bit of that register (predicate registers are one bit wide,
// so all 64 bit draws of the sampler collapse onto one effective site).
// Every site is injected exactly once and classified against the golden run
// with the same five outcome classes, giving
//   * exact outcome fractions — with each site additionally weighted by the
//     probability the Monte Carlo sampler would draw it, so `mcProbability`
//     is the true per-trial outcome distribution the campaign's
//     CoverageReport fractions must converge to;
//   * a per-static-instruction SiteOutcomeMap naming the instructions whose
//     sites leak silent data corruption — the table the ProtectionLint
//     cross-validation (tests/exhaustive_ground_truth_test.cpp) checks the
//     static classification against.
//
// Enumeration runs through the campaign's fault-site loop
// (detail::FaultSiteLoop): the shared read-only DecodedProgram, one site
// executor per worker, and a work-stealing pool over an atomic cursor.  The
// sites of kOrdinalsPerWindow consecutive dynamic ordinals are one window
// of that executor, decided as the campaign decides its trials: as lockstep
// lanes of as few golden streams as the lane slots allow.
// Classification is deterministic (no RNG — the plan IS the site), so the
// report is bit-identical for every thread count and engine.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine_config.h"
#include "fault/campaign.h"
#include "ir/function.h"
#include "sched/schedule.h"
#include "sim/decoded.h"
#include "sim/simulator.h"

namespace casted::fault {

// The consecutive dynamic def ordinals whose sites form one enumeration
// window (EXPERIMENTS.md, "One golden stream per window"): more share one
// golden stream's prefix, and a window whose lanes outlive the lane slots
// defers its later ordinals to further streams.
inline constexpr std::uint64_t kOrdinalsPerWindow = 64;

struct ExhaustiveOptions {
  // Worker threads for the site loop.  0 = one per hardware thread.
  std::uint32_t threads = 1;
  // Watchdog: a faulty run times out after goldenCycles * timeoutFactor.
  // A factor of 0, or one whose product with goldenCycles overflows,
  // throws FatalError: the watchdog must admit the golden run.
  std::uint64_t timeoutFactor = 20;
  // Safety valve for accidental use on big workloads: enumeration refuses
  // (throws) if the site space exceeds this.  0 = unlimited.
  std::uint64_t maxSites = 0;
  // Execution strategy for the faulty runs (see InjectionMode).  In
  // kCheckpointed mode the (register x bit) sites of kOrdinalsPerWindow
  // consecutive dynamic defs are one window of lockstep lanes, whose golden
  // streams each save a checkpoint at their first flip; the lanes that fall
  // back re-run from it.
  InjectionMode mode = InjectionMode::kCheckpointed;
  sim::SimOptions simOptions;
};

// Aggregated outcomes of every enumerated site of one static def-producing
// instruction.
struct SiteOutcome {
  ir::FuncId func = 0;
  ir::BlockId block = 0;
  std::uint32_t node = 0;  // instruction index within its block
  ir::InsnId insn = ir::kInvalidInsn;
  std::string text;  // rendered instruction, for reports

  std::uint64_t executions = 0;  // dynamic def ordinals at this instruction
  std::uint64_t sites = 0;       // enumerated (ordinal, def, bit) sites
  std::array<std::uint64_t, kOutcomeCount> counts = {};
  // Probability mass each outcome contributes to one Monte Carlo trial,
  // restricted to this instruction's ordinals (sums to executions/defInsns).
  std::array<double, kOutcomeCount> mcMass = {};

  std::uint64_t sdcSites() const {
    return counts[static_cast<int>(Outcome::kDataCorrupt)];
  }
  double sdcMass() const {
    return mcMass[static_cast<int>(Outcome::kDataCorrupt)];
  }

  // Field for field: the identity every deterministic report must keep.
  bool operator==(const SiteOutcome&) const = default;
};

// Per-static-instruction ground truth, sorted worst offender (largest SDC
// probability mass, then most SDC sites) first.
using SiteOutcomeMap = std::vector<SiteOutcome>;

struct GroundTruthReport {
  std::uint64_t defInsns = 0;  // dynamic def-ordinal population of the run
  std::uint64_t sites = 0;     // enumerated effective sites
  std::array<std::uint64_t, kOutcomeCount> counts = {};
  // Exact per-trial outcome distribution of the single-flip Monte Carlo
  // sampler (uniform ordinal x uniform whichDef in [0,4) x uniform bit in
  // [0,64), as drawn by makeTrialPlan with originalDefInsns == 0).  Sums
  // to 1.  This is what CoverageReport fractions estimate.
  std::array<double, kOutcomeCount> mcProbability = {};
  SiteOutcomeMap perInsn;

  // Share of enumerated sites with this outcome (0 for an empty space, like
  // CoverageReport::fraction on an empty campaign).
  double fraction(Outcome outcome) const {
    return sites == 0 ? 0.0
                      : static_cast<double>(
                            counts[static_cast<int>(outcome)]) /
                            static_cast<double>(sites);
  }
  double mcProbabilityOf(Outcome outcome) const {
    return mcProbability[static_cast<int>(outcome)];
  }
  // Everything except silent data corruption, by MC probability mass.
  double mcSafeProbability() const {
    return 1.0 - mcProbabilityOf(Outcome::kDataCorrupt);
  }

  // Looks up the per-instruction entry; nullptr if the instruction never
  // executed a def (e.g. dead code).
  const SiteOutcome* find(ir::FuncId func, ir::InsnId insn) const;

  // Human-readable summary: the outcome table plus the `topInsns` worst
  // offending static instructions.
  std::string toString(std::size_t topInsns = 10) const;

  // Field for field, the per-instruction ranking and its doubles included.
  bool operator==(const GroundTruthReport&) const = default;
};

// Enumerates and classifies the complete fault-site space of one run.
// `decoded`, when given, must have been built from exactly (program,
// schedule, config) — e.g. the decode cached in core::CompiledProgram; with
// the decoded engine and no cached decode, one is built locally.  The golden
// run must halt cleanly, as in the campaign.
GroundTruthReport enumerateFaultSpace(const ir::Program& program,
                                      const sched::ProgramSchedule& schedule,
                                      const arch::MachineConfig& config,
                                      const ExhaustiveOptions& options = {},
                                      const sim::DecodedProgram* decoded =
                                          nullptr);

}  // namespace casted::fault
