#include "fault/campaign.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <vector>

#include "fault/driver_util.h"
#include "support/check.h"
#include "support/trace.h"

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

GoldenProfile profileGolden(const ir::Program& program,
                            const sched::ProgramSchedule& schedule,
                            const arch::MachineConfig& config,
                            const sim::SimOptions& simOptions) {
  sim::SimOptions options = simOptions;
  options.faultPlan = nullptr;
  return detail::toProfile(sim::simulate(program, schedule, config, options));
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

namespace {

// All randomness of a trial derives from (seed, trialIndex) via a SplitMix64
// mix, so a trial's outcome is independent of which worker runs it, in what
// order, and under which InjectionMode — the property that makes the
// parallel and checkpointed campaigns bit-identical to the serial full one.
struct TrialResult {
  Outcome outcome = Outcome::kBenign;
  std::uint64_t dynamicInsns = 0;
};

// Per-worker state for the full-rerun path, set up once and reused for
// every trial the worker claims: the armed SimOptions (watchdog already
// applied; only faultPlan changes per trial) and, for the decoded engine,
// the reusable execution context over the shared DecodedProgram.
struct TrialContext {
  sim::SimOptions simOptions;
  std::optional<sim::DecodedRunner> runner;

  TrialContext(const sim::SimOptions& armedOptions,
               const sim::DecodedProgram* decoded)
      : simOptions(armedOptions) {
    if (decoded != nullptr) {
      runner.emplace(*decoded);
    }
  }
};

TrialResult runTrial(const ir::Program& program,
                     const sched::ProgramSchedule& schedule,
                     const arch::MachineConfig& config, TrialContext& context,
                     const GoldenProfile& golden, const sim::FaultPlan& plan) {
  context.simOptions.faultPlan = &plan;
  const sim::RunResult faulty =
      context.runner.has_value()
          ? context.runner->run(context.simOptions)
          : sim::simulate(program, schedule, config, context.simOptions);
  context.simOptions.faultPlan = nullptr;
  return {classify(faulty, golden), faulty.stats.dynamicInsns};
}

}  // namespace

CoverageReport runCampaign(const ir::Program& program,
                           const sched::ProgramSchedule& schedule,
                           const arch::MachineConfig& config,
                           const CampaignOptions& options,
                           const sim::DecodedProgram* decoded) {
  const trace::Scope campaignScope("fault.campaign", options.trace);
  // Decode once per campaign; every trial on every worker shares the result
  // read-only.  A caller-supplied decode (e.g. core::CompiledProgram's) is
  // reused as-is; the reference engine never touches a decode.
  const detail::EngineChoice choice = detail::chooseEngine(
      program, schedule, config, options.simOptions, decoded);

  GoldenProfile golden;
  {
    const trace::Scope scope("fault.campaign.golden", options.trace);
    golden = detail::toProfile(detail::runGolden(
        program, schedule, config, options.simOptions, choice));
  }

  sim::SimOptions armedOptions = options.simOptions;
  armedOptions.maxCycles = golden.cycles * options.timeoutFactor;
  armedOptions.faultPlan = nullptr;
  armedOptions.defTrace = nullptr;

  const std::uint32_t threads =
      detail::resolveThreads(options.threads, options.trials);

  // Every trial's plan is derived up front — it costs a few RNG draws, and
  // having all plans in hand lets the checkpointed path order each worker's
  // stream by injection ordinal.
  std::vector<sim::FaultPlan> plans(options.trials);
  for (std::uint32_t trial = 0; trial < options.trials; ++trial) {
    Rng trialRng(deriveStreamSeed(options.seed, trial));
    plans[trial] =
        makeTrialPlan(trialRng, golden.defInsns, options.originalDefInsns);
  }

  const bool checkpointed =
      options.mode == InjectionMode::kCheckpointed && choice.decoded != nullptr;

  // Trial visit order.  The checkpointed sweep requires non-decreasing
  // injection ordinals per worker, and profits most when trials that inject
  // at nearby ordinals run back to back (shorter prefix replays between
  // snapshots) — so it claims trials in (ordinal, trialIndex) order.  The
  // full path keeps plain index order, exactly the historical behaviour.
  std::vector<std::uint32_t> order(options.trials);
  std::iota(order.begin(), order.end(), 0u);
  if (checkpointed) {
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint64_t ordA = plans[a].points[0].ordinal;
                const std::uint64_t ordB = plans[b].points[0].ordinal;
                return ordA != ordB ? ordA < ordB : a < b;
              });
  }

  std::atomic<std::uint32_t> nextSlot{0};
  std::vector<CoverageReport> partial(threads);
  detail::ProgressMeter meter("campaign trials", options.trials,
                              options.progress);
  detail::runWorkerPool(threads, [&](std::uint32_t w) {
    // One reusable execution context per worker; the DecodedProgram itself
    // is shared read-only.  An atomic cursor over the sorted order hands
    // each worker an ascending-ordinal subsequence.
    const trace::Scope workerScope("fault.campaign.worker", options.trace);
    std::optional<detail::CheckpointSweep> sweep;
    std::optional<TrialContext> context;
    if (checkpointed) {
      sweep.emplace(*choice.decoded, armedOptions);
    } else {
      context.emplace(armedOptions, choice.decoded);
    }
    std::uint64_t workerTrials = 0;
    while (true) {
      const std::uint32_t slot =
          nextSlot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= options.trials) {
        break;
      }
      const sim::FaultPlan& plan = plans[order[slot]];
      TrialResult result;
      if (checkpointed) {
        const sim::RunResult faulty = sweep->run(plan);
        result = {classify(faulty, golden), faulty.stats.dynamicInsns};
      } else {
        result = runTrial(program, schedule, config, *context, golden, plan);
      }
      ++partial[w].counts[static_cast<int>(result.outcome)];
      partial[w].dynamicInsns += result.dynamicInsns;
      ++workerTrials;
      meter.add();
    }
    // Per-worker trial totals alongside the worker's duration scope: the
    // pair gives a per-worker trial rate in the trace viewer.
    if (options.trace && trace::enabled()) {
      trace::counterAdd("fault.campaign.trials", workerTrials);
      trace::counterAdd("fault.campaign.worker" + std::to_string(w) +
                            ".trials",
                        workerTrials);
    }
  }, &meter);

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
