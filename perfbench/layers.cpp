#include "layers.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "harness.h"
#include "sched/list_scheduler.h"
#include "support/check.h"
#include "support/rng.h"

namespace perfbench {

using namespace casted;

namespace {

// The passes core::buildPipeline emits for the default PipelineOptions, in
// its order (kPassNames), paired with their kPassNames index.
std::vector<std::pair<std::size_t, std::unique_ptr<pm::Pass>>> makePasses(
    passes::Scheme scheme) {
  const core::PipelineOptions defaults;
  std::vector<std::pair<std::size_t, std::unique_ptr<pm::Pass>>> list;
  list.emplace_back(0, std::make_unique<passes::EarlyOptsPass>());
  if (scheme != passes::Scheme::kNoed) {
    list.emplace_back(1, std::make_unique<passes::ErrorDetectionPass>(
                             defaults.errorDetection));
  }
  list.emplace_back(2, std::make_unique<passes::LocalCsePass>(defaults.lateOpts));
  list.emplace_back(3, std::make_unique<passes::DcePass>(defaults.lateOpts));
  list.emplace_back(4, std::make_unique<passes::AssignmentPass>(scheme));
  list.emplace_back(5, std::make_unique<passes::ProtectionLintPass>(scheme));

  const pm::PassManager reference = core::buildPipeline(scheme);
  CASTED_CHECK(reference.passCount() == list.size())
      << "core::buildPipeline has " << reference.passCount()
      << " passes; the benchmark replicates " << list.size();
  for (std::size_t i = 0; i < list.size(); ++i) {
    CASTED_CHECK(reference.pass(i).name() == list[i].second->name())
        << "core::buildPipeline pass " << i << " is "
        << reference.pass(i).name() << ", the benchmark runs "
        << list[i].second->name();
  }
  return list;
}

// CheckpointSweep's schedule (fault/driver_util.cpp) without the
// reconvergence cutoff, with every stepwise call timed into `split`.
class TimedSweep {
 public:
  TimedSweep(const sim::DecodedProgram& decoded, const sim::SimOptions& armed,
             SweepSplit& split)
      : runner_(decoded), options_(armed), split_(split) {}

  sim::RunResult run(const sim::FaultPlan& plan) {
    const std::uint64_t target = plan.points.at(0).ordinal;
    if (!started_ || target > ordinal_) {
      if (started_) {
        split_.restoreMs += timeMs([&] { runner_.restoreCheckpoint(cp_); });
      }
      bool paused = false;
      split_.prefixMs += timeMs([&] {
        if (!started_) {
          runner_.begin(options_);
        }
        paused = runner_.runToDef(target);
      });
      CASTED_CHECK(paused) << "injection ordinal " << target
                           << " beyond the golden run";
      split_.saveMs += timeMs([&] { runner_.saveCheckpoint(cp_); });
      ++split_.checkpoints;
      started_ = true;
    } else {
      CASTED_CHECK(target == ordinal_) << "ordinals must be non-decreasing";
      split_.restoreMs += timeMs([&] { runner_.restoreCheckpoint(cp_); });
    }
    ordinal_ = target;
    sim::RunResult result;
    lastSuffixMs_ = timeMs([&] {
      runner_.injectAtPause(plan);
      result = runner_.finish();
    });
    split_.suffixMs += lastSuffixMs_;
    ++split_.runs;
    split_.suffixDefInsns += result.stats.dynamicDefInsns - (target + 1);
    return result;
  }

  // Classifies the last run's result and files its suffix time under the
  // outcome.
  fault::Outcome classify(const sim::RunResult& result,
                          const fault::GoldenProfile& golden) {
    fault::Outcome outcome = fault::Outcome::kBenign;
    split_.classifyMs +=
        timeMs([&] { outcome = fault::classify(result, golden); });
    split_.suffixMsByOutcome[static_cast<int>(outcome)] += lastSuffixMs_;
    return outcome;
  }

 private:
  sim::DecodedRunner runner_;
  sim::ArchCheckpoint cp_;
  sim::SimOptions options_;
  SweepSplit& split_;
  bool started_ = false;
  std::uint64_t ordinal_ = 0;
  double lastSuffixMs_ = 0.0;
};

fault::GoldenProfile goldenProfile(const core::CompiledProgram& bin,
                                   sim::SimOptions options,
                                   std::vector<sim::DefSite>* defTrace) {
  CASTED_CHECK(bin.decoded != nullptr) << "program was not decoded";
  options.faultPlan = nullptr;
  options.defTrace = defTrace;
  fault::GoldenProfile golden;
  golden.result = sim::runDecoded(*bin.decoded, options);
  CASTED_CHECK(golden.result.exit == sim::ExitKind::kHalted)
      << "golden run did not halt cleanly";
  golden.defInsns = golden.result.stats.dynamicDefInsns;
  golden.cycles = golden.result.stats.cycles;
  return golden;
}

sim::SimOptions armed(sim::SimOptions options,
                      const fault::GoldenProfile& golden,
                      std::uint64_t timeoutFactor) {
  options.maxCycles = golden.cycles * timeoutFactor;
  options.faultPlan = nullptr;
  options.defTrace = nullptr;
  return options;
}

}  // namespace

core::CompiledProgram compileSplit(const ir::Program& source,
                                   const arch::MachineConfig& machine,
                                   passes::Scheme scheme, CompileSplit& split,
                                   sim::RunResult& golden) {
  machine.validate();
  core::CompiledProgram compiled;
  compiled.program = source;
  compiled.scheme = scheme;
  compiled.machine = machine;

  pm::AnalysisManager am(machine);
  for (auto& [index, pass] : makePasses(scheme)) {
    pm::PassResult result;
    split.passMs[index] +=
        timeMs([&] { result = pass->run(compiled.program, am); });
    if (result.preserved == pm::Preserved::kNone) {
      am.invalidateAll();
    }
  }
  split.scheduleMs += timeMs([&] {
    compiled.schedule = sched::scheduleProgram(compiled.program, machine, &am);
  });
  split.analysisHits += am.hits();
  split.analysisMisses += am.misses();
  split.decodeMs += timeMs([&] {
    compiled.decoded = std::make_shared<const sim::DecodedProgram>(
        sim::DecodedProgram::build(compiled.program, compiled.schedule,
                                   compiled.machine));
  });
  split.goldenMs +=
      timeMs([&] { golden = sim::runDecoded(*compiled.decoded, {}); });
  split.goldenInsns += golden.stats.dynamicInsns;
  split.insnsOut += compiled.program.insnCount();
  return compiled;
}

CampaignCounts replayCampaign(const core::CompiledProgram& bin,
                              const fault::CampaignOptions& options,
                              SweepSplit& split) {
  CASTED_CHECK(options.threads == 1 &&
               options.mode == fault::InjectionMode::kCheckpointed &&
               options.simOptions.engine == sim::Engine::kDecoded)
      << "the replay mirrors the one-worker checkpointed campaign only";
  const Clock::time_point start = Clock::now();
  const fault::GoldenProfile golden =
      goldenProfile(bin, options.simOptions, nullptr);

  std::vector<sim::FaultPlan> plans(options.trials);
  std::vector<std::uint32_t> order(options.trials);
  split.planMs += timeMs([&] {
    for (std::uint32_t trial = 0; trial < options.trials; ++trial) {
      Rng rng(deriveStreamSeed(options.seed, trial));
      plans[trial] =
          fault::makeTrialPlan(rng, golden.defInsns, options.originalDefInsns);
    }
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint64_t ordA = plans[a].points[0].ordinal;
                const std::uint64_t ordB = plans[b].points[0].ordinal;
                return ordA != ordB ? ordA < ordB : a < b;
              });
  });

  TimedSweep sweep(*bin.decoded,
                   armed(options.simOptions, golden, options.timeoutFactor),
                   split);
  CampaignCounts counts;
  counts.trials = options.trials;
  for (const std::uint32_t trial : order) {
    const sim::RunResult faulty = sweep.run(plans[trial]);
    ++counts.counts[static_cast<int>(sweep.classify(faulty, golden))];
    counts.dynamicInsns += faulty.stats.dynamicInsns;
  }
  split.totalMs += msBetween(start, Clock::now());
  return counts;
}

namespace {

// Predicate registers are one bit wide: all 64 bit draws flip the same bit.
std::uint32_t effectiveBits(const ir::Reg& def) {
  return def.cls == ir::RegClass::kPr ? 1u : 64u;
}

const ir::Instruction& instructionAt(const ir::Program& program,
                                     const sim::DefSite& site) {
  return program.function(site.func).block(site.block).insns().at(site.node);
}

}  // namespace

std::uint32_t sitesPerExecution(const ir::Instruction& insn) {
  std::uint32_t sites = 0;
  for (const ir::Reg& def : insn.defs) {
    sites += effectiveBits(def);
  }
  return sites;
}

std::uint64_t countSites(const ir::Program& program,
                         const std::vector<sim::DefSite>& defTrace) {
  std::uint64_t sites = 0;
  for (const sim::DefSite& site : defTrace) {
    sites += sitesPerExecution(instructionAt(program, site));
  }
  return sites;
}

EnumCounts replayEnumeration(const core::CompiledProgram& bin,
                             const fault::ExhaustiveOptions& options,
                             SweepSplit& split) {
  CASTED_CHECK(options.threads == 1 &&
               options.mode == fault::InjectionMode::kCheckpointed &&
               options.simOptions.engine == sim::Engine::kDecoded)
      << "the replay mirrors the one-worker checkpointed enumeration only";
  const Clock::time_point start = Clock::now();
  std::vector<sim::DefSite> defTrace;
  const fault::GoldenProfile golden =
      goldenProfile(bin, options.simOptions, &defTrace);
  CASTED_CHECK(defTrace.size() == golden.defInsns) << "def trace length";

  EnumCounts counts;
  counts.sites = countSites(bin.program, defTrace);
  TimedSweep sweep(*bin.decoded,
                   armed(options.simOptions, golden, options.timeoutFactor),
                   split);
  sim::FaultPlan plan;
  plan.points.resize(1);
  for (std::uint64_t ordinal = 0; ordinal < defTrace.size(); ++ordinal) {
    const sim::DefSite& site = defTrace[ordinal];
    const ir::Instruction& insn = instructionAt(bin.program, site);
    OutcomeCounts& tally = counts.perInsn[{site.func, site.block, site.node}];
    for (std::uint32_t d = 0; d < insn.defs.size(); ++d) {
      for (std::uint32_t bit = 0; bit < effectiveBits(insn.defs[d]); ++bit) {
        plan.points[0] = {ordinal, d, bit};
        const sim::RunResult faulty = sweep.run(plan);
        const int outcome = static_cast<int>(sweep.classify(faulty, golden));
        ++tally[outcome];
        ++counts.counts[outcome];
      }
    }
  }
  split.totalMs += msBetween(start, Clock::now());
  return counts;
}

}  // namespace perfbench
