#include "fault/campaign.h"

#include <algorithm>
#include <vector>

#include "fault/driver_util.h"
#include "support/check.h"

namespace casted::fault {

const char* outcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kBenign:
      return "benign";
    case Outcome::kDetected:
      return "detected";
    case Outcome::kException:
      return "exception";
    case Outcome::kDataCorrupt:
      return "data-corrupt";
    case Outcome::kTimeout:
      return "timeout";
  }
  CASTED_UNREACHABLE("bad Outcome");
}

const char* injectionModeName(InjectionMode mode) {
  switch (mode) {
    case InjectionMode::kFull:
      return "full";
    case InjectionMode::kCheckpointed:
      return "checkpointed";
  }
  CASTED_UNREACHABLE("bad InjectionMode");
}

Outcome classify(const sim::RunResult& faulty, const GoldenProfile& golden) {
  switch (faulty.exit) {
    case sim::ExitKind::kDetected:
      return Outcome::kDetected;
    case sim::ExitKind::kException:
      return Outcome::kException;
    case sim::ExitKind::kTimeout:
      return Outcome::kTimeout;
    case sim::ExitKind::kHalted:
      break;
  }
  const bool sameOutput = faulty.output == golden.result.output;
  const bool sameExit = faulty.exitCode == golden.result.exitCode;
  return (sameOutput && sameExit) ? Outcome::kBenign : Outcome::kDataCorrupt;
}

sim::FaultPlan makeTrialPlan(Rng& rng, std::uint64_t runDefInsns,
                             std::uint64_t originalDefInsns) {
  CASTED_CHECK(runDefInsns > 0) << "empty run";
  if (originalDefInsns == 0) {
    originalDefInsns = runDefInsns;
  }
  // Fixed error rate: expected flips = runLength / originalLength (>= 1 by
  // construction for error-detection binaries; == 1 for the original).
  const double expected = static_cast<double>(runDefInsns) /
                          static_cast<double>(originalDefInsns);
  std::uint64_t flips = static_cast<std::uint64_t>(expected);
  const double fractional = expected - static_cast<double>(flips);
  if (rng.nextDouble() < fractional) {
    ++flips;
  }
  flips = std::max<std::uint64_t>(flips, 1);

  sim::FaultPlan plan;
  plan.points.reserve(flips);
  for (std::uint64_t i = 0; i < flips; ++i) {
    sim::FaultPoint point;
    point.ordinal = rng.nextBelow(runDefInsns);
    point.whichDef = static_cast<std::uint32_t>(rng.nextBelow(4));
    point.bit = static_cast<std::uint32_t>(rng.nextBelow(64));
    plan.points.push_back(point);
  }
  std::sort(plan.points.begin(), plan.points.end(),
            [](const sim::FaultPoint& a, const sim::FaultPoint& b) {
              return a.ordinal < b.ordinal;
            });
  // Collapse duplicate ordinals (the simulator consumes one point per
  // matching instruction).
  plan.points.erase(
      std::unique(plan.points.begin(), plan.points.end(),
                  [](const sim::FaultPoint& a, const sim::FaultPoint& b) {
                    return a.ordinal == b.ordinal;
                  }),
      plan.points.end());
  return plan;
}

CoverageReport runCampaign(const ir::Program& program,
                           const sched::ProgramSchedule& schedule,
                           const arch::MachineConfig& config,
                           const CampaignOptions& options,
                           const sim::DecodedProgram* decoded) {
  detail::FaultSiteLoop loop("campaign", program, schedule, config,
                             options.simOptions, options.mode,
                             options.timeoutFactor, options.threads, decoded);
  const GoldenProfile& golden = loop.golden();

  // Every trial's plan is derived up front from (seed, trialIndex) alone, so
  // a trial's outcome does not depend on which worker runs it or when.  The
  // plans are visited in (injection ordinal, trialIndex) order, so that a
  // window holds consecutive ordinals: its golden stream runs the prefix up
  // to the window's first flip on the plain interpreter, and its fallbacks
  // roll one checkpoint forward through the window's range.
  std::vector<sim::FaultPlan> plans(options.trials);
  for (std::uint32_t trial = 0; trial < options.trials; ++trial) {
    Rng trialRng(deriveStreamSeed(options.seed, trial));
    plans[trial] =
        makeTrialPlan(trialRng, golden.defInsns, options.originalDefInsns);
  }
  std::stable_sort(plans.begin(), plans.end(),
                   [](const sim::FaultPlan& a, const sim::FaultPlan& b) {
                     return a.points[0].ordinal < b.points[0].ordinal;
                   });

  // Each worker claims one window of consecutive plans, its whole share:
  // in checkpointed mode a window is decided by as few lockstep golden
  // streams as the lane slots allow (DESIGN.md §10), one when no more than
  // kMaxLanes of its lanes are live at once.  A verdict depends on its plan
  // alone, never on its window.
  const std::vector<CoverageReport> partial = loop.run(
      plans.size(), ~std::uint64_t{0}, "trials", CoverageReport{},
      [&](CoverageReport& part, std::uint64_t first, std::uint64_t last,
          detail::SiteExecutor& executor) {
        std::vector<detail::TrialVerdict> verdicts;
        executor.runWindow(
            std::span<const sim::FaultPlan>(plans).subspan(first, last - first),
            golden, verdicts);
        for (const detail::TrialVerdict& verdict : verdicts) {
          ++part.counts[static_cast<int>(verdict.outcome)];
          part.dynamicInsns += verdict.dynamicInsns;
        }
      });

  // Outcome counts and instruction totals commute, so the merged report
  // does not depend on which worker ran which trial.
  CoverageReport report;
  for (const CoverageReport& part : partial) {
    for (std::size_t i = 0; i < kOutcomeCount; ++i) {
      report.counts[i] += part.counts[i];
    }
    report.dynamicInsns += part.dynamicInsns;
  }
  report.trials = options.trials;
  return report;
}

}  // namespace casted::fault
