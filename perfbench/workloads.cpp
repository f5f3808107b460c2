#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>

#include "core/pipeline.h"
#include "digest.h"
#include "ir/printer.h"
#include "layers.h"
#include "support/rng.h"
#include "support/trace.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace casted;

namespace {

// Set-up is timed in bursts spread over the run, and setup_s is the median
// of every set-up in them: one burst before the first timed pass (at least
// kMinSetupRepeats set-ups) and one after each timed pass (at least one).
// Each burst lasts at least kSetupBurstMs.  The host's speed drifts within
// a run: in one process on a 4-core x86 host, the medians of 0.3-s bursts
// of the sweep's set-up (about 0.5 ms; it only builds the programs), 1.5 s
// apart, ranged from 0.49 to 0.73 ms.  Set-ups taken only before the timed
// section measured whatever the host did in that one stretch.
constexpr std::size_t kMinSetupRepeats = 9;
constexpr double kSetupBurstMs = 100.0;

// Calls `setUp`, which returns its host milliseconds, into `setupMs` at
// least `minRepeats` times and until kSetupBurstMs is spent.  Returns the
// milliseconds spent.
template <typename F>
double setupBurst(std::vector<double>& setupMs, std::size_t minRepeats,
                  F&& setUp) {
  double spentMs = 0.0;
  for (std::size_t n = 0; n < minRepeats || spentMs < kSetupBurstMs; ++n) {
    setupMs.push_back(setUp());
    spentMs += setupMs.back();
  }
  return spentMs;
}

// Trials per core::campaign call, the paper's 300: 28 calls make a pass of
// about 0.7-1.7 s on a 4-core x86 host, so a run gets many passes to take
// each call's fastest from.
constexpr std::uint32_t kCampaignTrials = 300;
// The campaign seeds are fixed, one per point derived from the library's
// default seed, so every run injects the same trials.  With seeds taken
// from the benchmark's seed, the trial sample moved the metrics more than
// the host did: over eight seeds the peak resident set was either about
// 18 or about 67 MiB, and the slowest call took 112-165 ms.
constexpr std::uint64_t kCampaignSeed = 0xCA57ED;

// ---------------------------------------------------------------- helpers

// Calls `pass(index)`, which returns the busy milliseconds it spent, at
// least `minPasses` times and then until one more pass of average length
// would overrun `budgetSeconds`.
struct PassLoop {
  double busyMs = 0.0;
  int passes = 0;
};

template <typename F>
PassLoop runPasses(double budgetSeconds, int minPasses, F&& pass) {
  PassLoop loop;
  do {
    loop.busyMs += pass(loop.passes);
    ++loop.passes;
  } while (loop.passes < minPasses ||
           loop.busyMs + loop.busyMs / loop.passes <= budgetSeconds * 1000.0);
  return loop;
}

// The end-to-end metrics take every call at its fastest over at least two
// passes.  Other tenants of a shared machine slow the host for seconds to
// minutes at a time: passes of identical work measured 0.9 to 1.6 s within
// one run on a 4-core x86 host, with or without address-space
// randomisation, while a register-only loop timed between the passes did
// not slow with them.  That noise only ever adds time, so the fastest
// repeat is the steadiest estimate of what a call costs.
constexpr int kTimedPasses = 2;

struct BestTimes {
  std::vector<double> ms;

  explicit BestTimes(std::size_t calls)
      : ms(calls, std::numeric_limits<double>::infinity()) {}
  void add(std::size_t call, double callMs) {
    ms[call] = std::min(ms[call], callMs);
  }
};

// Times `call` once with the library's trace session off and once with it
// on (collecting in memory), in the order `offFirst` picks, and returns
// {off ms, on ms}.  Alternating the order between calls keeps drift on a
// shared machine out of the difference.  The session's buffered events are
// dropped after each traced call.
template <typename F>
std::pair<double, double> timeOffOn(bool offFirst, F&& call) {
  double offMs = 0.0;
  double onMs = 0.0;
  for (int k = 0; k < 2; ++k) {
    if ((k == 0) == offFirst) {
      offMs = timeMs(call);
    } else {
      trace::enable("");
      onMs = timeMs(call);
      trace::disable();
      trace::resetForTest();
    }
  }
  return {offMs, onMs};
}

// The order in which pass `pass` makes its `n` calls.  The workload
// programs and the campaign's trials are fixed, so the seed sets the call
// order, shuffled afresh each pass so that no call always runs after the
// same predecessor (whose heap and cache state it inherits).
std::vector<std::size_t> visitOrder(std::size_t n, std::uint64_t seed,
                                    int pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  Rng rng(deriveStreamSeed(seed, static_cast<std::uint64_t>(pass)));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.nextBelow(i)]);
  }
  return order;
}

bool sameRun(const sim::RunResult& a, const sim::RunResult& b) {
  const sim::RunStats& x = a.stats;
  const sim::RunStats& y = b.stats;
  for (int level = 0; level < 3; ++level) {
    if (x.cacheLevel[level].hits != y.cacheLevel[level].hits ||
        x.cacheLevel[level].misses != y.cacheLevel[level].misses) {
      return false;
    }
  }
  return a.exit == b.exit && a.trap == b.trap && a.exitCode == b.exitCode &&
         a.output == b.output && x.cycles == y.cycles &&
         x.stallCycles == y.stallCycles && x.dynamicInsns == y.dynamicInsns &&
         x.dynamicDefInsns == y.dynamicDefInsns &&
         x.blockExecutions == y.blockExecutions &&
         x.memAccesses == y.memAccesses &&
         x.memoryAccesses == y.memoryAccesses;
}

bool haltedCleanly(const sim::RunResult& result) {
  return result.exit == sim::ExitKind::kHalted && result.exitCode == 0;
}

core::PipelineOptions sweepOptions() {
  core::PipelineOptions options;
  options.verifyAfterPasses = false;  // as benchutil::runCycles
  return options;
}

// How the campaign compiles and golden-runs its binaries: core::compile +
// core::run untraced, compileSplit in the traced run.
using Compiler = std::function<core::CompiledProgram(
    const ir::Program&, const arch::MachineConfig&, passes::Scheme,
    sim::RunResult& golden)>;

Compiler publicCompiler() {
  return [](const ir::Program& program, const arch::MachineConfig& machine,
            passes::Scheme scheme, sim::RunResult& golden) {
    core::CompiledProgram bin =
        core::compile(program, machine, scheme, sweepOptions());
    golden = core::run(bin);
    return bin;
  };
}

void expectSameIr(Checks& checks, const core::CompiledProgram& split,
                  const ir::Program& source, const std::string& what) {
  const core::CompiledProgram reference = core::compile(
      source, split.machine, split.scheme, sweepOptions());
  checks.expect(
      ir::printProgram(split.program) == ir::printProgram(reference.program),
      what + " split IR equals core::compile's");
}

// compileSplit, each result checked against core::compile.
Compiler checkedSplitCompiler(CompileSplit& split, Checks& checks) {
  return [&split, &checks](const ir::Program& program,
                           const arch::MachineConfig& machine,
                           passes::Scheme scheme, sim::RunResult& golden) {
    core::CompiledProgram bin =
        compileSplit(program, machine, scheme, split, golden);
    expectSameIr(checks, bin, program,
                 machine.toString() + " " + passes::schemeName(scheme));
    return bin;
  };
}

// The traced run's per-layer numbers.  Compile-layer times are per pass of
// the sweep, or per set-up on the campaign (its timed calls do not
// compile); replay times are per pass of the replayed driver calls.  A
// layer a workload does not use reports 0.
struct Layers {
  double buildMs = 0.0;
  CompileSplit compile;
  int compileUnits = 1;
  SweepSplit replay;
  int replayPasses = 1;
  double sessionOverheadPct = 0.0;
  double replayGapPct = 0.0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void addLayerMetrics(Report& report, const Layers& m) {
  static constexpr const char* kPassMetric[kPassNames.size()] = {
      "passes.early_opts_ms", "passes.error_detection_ms",
      "passes.local_cse_ms",  "passes.dce_ms",
      "passes.assignment_ms", "passes.protection_lint_ms"};
  static constexpr const char* kOutcomeMetric[fault::kOutcomeCount] = {
      "sim.suffix_ms.benign", "sim.suffix_ms.detected",
      "sim.suffix_ms.exception", "sim.suffix_ms.data_corrupt",
      "sim.suffix_ms.timeout"};
  const double cu = m.compileUnits;
  const double rp = m.replayPasses;
  const CompileSplit& c = m.compile;
  const SweepSplit& r = m.replay;

  report.add("workloads.build_ms", m.buildMs, "ms");
  for (std::size_t i = 0; i < kPassNames.size(); ++i) {
    report.add(kPassMetric[i], c.passMs[i] / cu, "ms");
  }
  report.add("pm.insns_out", static_cast<double>(c.insnsOut) / cu, "count");
  report.add("pm.analysis_hit_ratio",
             ratio(static_cast<double>(c.analysisHits),
                   static_cast<double>(c.analysisHits + c.analysisMisses)),
             "ratio");
  report.add("sched.schedule_ms", c.scheduleMs / cu, "ms");
  report.add("sim.decode_ms", c.decodeMs / cu, "ms");
  report.add("sim.golden_ms", c.goldenMs / cu, "ms");
  report.add("sim.golden_minsns_per_s",
             ratio(static_cast<double>(c.goldenInsns), c.goldenMs) / 1000.0,
             "Minsn/s");
  report.add("fault.plan_ms", r.planMs / rp, "ms");
  report.add("sim.prefix_ms", r.prefixMs / rp, "ms");
  report.add("sim.save_ms", r.saveMs / rp, "ms");
  report.add("sim.restore_ms", r.restoreMs / rp, "ms");
  report.add("sim.suffix_ms", r.suffixMs / rp, "ms");
  for (std::size_t i = 0; i < fault::kOutcomeCount; ++i) {
    report.add(kOutcomeMetric[i], r.suffixMsByOutcome[i] / rp, "ms");
  }
  report.add("fault.classify_ms", r.classifyMs / rp, "ms");
  report.add("sim.checkpoints", static_cast<double>(r.checkpoints) / rp,
             "count");
  report.add("sim.runs_per_checkpoint",
             ratio(static_cast<double>(r.runs),
                   static_cast<double>(r.checkpoints)),
             "ratio");
  report.add("sim.suffix_def_insns",
             static_cast<double>(r.suffixDefInsns) / rp, "count");
  report.add("sim.suffix_mdefs_per_s",
             ratio(static_cast<double>(r.suffixDefInsns), r.suffixMs) /
                 1000.0,
             "Mdef/s");
  report.add("trace.session_overhead_pct", m.sessionOverheadPct, "%");
  report.add("bench.replay_gap_pct", m.replayGapPct, "%");
}

// `opsPerPass` units of work take the sum of the best call times.  The
// call-latency percentiles go to stderr only: on a shared host they spread
// too much between runs to carry a bound (see README.md).
void addEndToEnd(Report& report, double setupS, double opsPerPass,
                 const BestTimes& best) {
  double passMs = 0.0;
  for (const double ms : best.ms) {
    passMs += ms;
  }
  report.add("setup_s", setupS, "s");
  report.add("ops_per_s", opsPerPass / (passMs / 1000.0), "1/s");
  report.add("peak_rss_mb", peakRssMb(), "MiB");
  std::fprintf(stderr, "perfbench: %zu calls, op_ms_p50=%.4f op_ms_p99=%.4f\n",
               best.ms.size(), percentile(best.ms, 50.0),
               percentile(best.ms, 99.0));
}

// The ops_per_s change from switching the session on: offMs and onMs time
// the same work.
double overheadPct(double offMs, double onMs) {
  return (onMs / offMs - 1.0) * 100.0;
}

// How much slower the replay ran than the untraced driver on the same work
// (negative: faster).
double gapPct(double driverMsPerPass, double replayMsPerPass) {
  return (replayMsPerPass / driverMsPerPass - 1.0) * 100.0;
}

// ---------------------------------------------------------- fig6_7_sweep

struct SweepPoint {
  std::size_t workload = 0;
  std::uint32_t issue = 1;
  std::uint32_t delay = 1;
  passes::Scheme scheme = passes::Scheme::kNoed;
};

std::string label(const std::vector<workloads::Workload>& suite,
                  const SweepPoint& p) {
  return suite[p.workload].name + " issue " + std::to_string(p.issue) +
         " delay " + std::to_string(p.delay) + " " +
         passes::schemeName(p.scheme);
}

Report runSweep(const Args& args) {
  Report report;
  std::vector<workloads::Workload> suite;
  std::vector<double> setupMs;
  const auto setUp = [&] {
    return timeMs([&] { suite = workloads::makeAllWorkloads(1); });
  };
  setupBurst(setupMs, kMinSetupRepeats, setUp);

  std::vector<SweepPoint> grid;
  for (std::size_t w = 0; w < suite.size(); ++w) {
    for (std::uint32_t issue = 1; issue <= 4; ++issue) {
      for (std::uint32_t delay = 1; delay <= 4; ++delay) {
        for (passes::Scheme scheme : passes::kAllSchemes) {
          grid.push_back({w, issue, delay, scheme});
        }
      }
    }
  }
  const auto order = [&](int pass) {
    return visitOrder(grid.size(), args.seed, pass);
  };
  const auto machine = [](const SweepPoint& p) {
    return arch::makePaperMachine(p.issue, p.delay);
  };

  // Oracle outputs: every point must write NOED's bytes for its workload.
  std::vector<std::vector<std::uint8_t>> noedOutput;
  for (const workloads::Workload& wl : suite) {
    sim::RunResult golden;
    publicCompiler()(wl.program, arch::makePaperMachine(1, 1),
                     passes::Scheme::kNoed, golden);
    report.checks.expect(haltedCleanly(golden),
                         wl.name + " NOED halts with exit 0");
    noedOutput.push_back(golden.output);
  }

  // One call: compile and run one point, checking the result untimed.
  const auto compileAndRun = [&](const SweepPoint& p,
                                 core::CompiledProgram& bin) {
    sim::RunResult result;
    const double ms = timeMs([&] {
      bin = core::compile(suite[p.workload].program, machine(p), p.scheme,
                          sweepOptions());
      result = core::run(bin);
    });
    report.checks.expect(
        haltedCleanly(result) && result.output == noedOutput[p.workload],
        label(suite, p) + " halts with exit 0 and NOED's output");
    return std::pair(ms, result);
  };

  const double points = static_cast<double>(grid.size());
  if (!args.trace) {
    // The first pass also runs each binary on the reference engine.
    BestTimes best(grid.size());
    runPasses(args.seconds, kTimedPasses, [&](int pass) {
      double busyMs = 0.0;
      for (const std::size_t i : order(pass)) {
        core::CompiledProgram bin;
        const auto [ms, result] = compileAndRun(grid[i], bin);
        busyMs += ms;
        best.add(i, ms);
        if (pass == 0) {
          sim::SimOptions reference;
          reference.engine = sim::Engine::kReference;
          report.checks.expect(
              sameRun(result, core::run(bin, reference)),
              label(suite, grid[i]) +
                  " decoded run equals the reference engine");
        }
      }
      return busyMs + setupBurst(setupMs, 1, setUp);
    });
    addEndToEnd(report, median(setupMs) / 1000.0, points, best);
    return report;
  }

  double offMs = 0.0;
  double onMs = 0.0;
  // Half of --seconds for the paired calls (off and on together), half for
  // the split.
  const PassLoop paired = runPasses(args.seconds / 2.0, 1, [&](int pass) {
    const double before = offMs + onMs;
    const std::vector<std::size_t> visit = order(pass);
    for (std::size_t k = 0; k < visit.size(); ++k) {
      core::CompiledProgram bin;
      const auto [off, on] = timeOffOn(k % 2 == 0, [&] {
        compileAndRun(grid[visit[k]], bin);
      });
      offMs += off;
      onMs += on;
    }
    return offMs + onMs - before;
  });

  // The per-pass split, checked against core::compile on its first pass.
  Layers layers;
  layers.buildMs = median(setupMs);
  const PassLoop replay = runPasses(args.seconds / 2.0, 1, [&](int pass) {
    double busyMs = 0.0;
    for (const std::size_t i : order(pass)) {
      const SweepPoint& p = grid[i];
      const ir::Program& program = suite[p.workload].program;
      sim::RunResult golden;
      core::CompiledProgram bin;
      busyMs += timeMs([&] {
        bin = compileSplit(program, machine(p), p.scheme, layers.compile,
                           golden);
      });
      report.checks.expect(
          haltedCleanly(golden) && golden.output == noedOutput[p.workload],
          label(suite, p) + " split compile halts with NOED's output");
      if (pass == 0) {
        expectSameIr(report.checks, bin, program, label(suite, p));
      }
    }
    return busyMs;
  });
  layers.compileUnits = replay.passes;
  layers.replayPasses = replay.passes;
  layers.sessionOverheadPct = overheadPct(offMs, onMs);
  layers.replayGapPct =
      gapPct(offMs / paired.passes, replay.busyMs / replay.passes);
  addLayerMetrics(report, layers);
  return report;
}

// --------------------------------------------------------- fig9_campaign

struct CampaignPoint {
  std::string key;  // digest-file key
  core::CompiledProgram bin;
  fault::CampaignOptions options;
};

// Compiles and golden-runs every (workload, scheme) of the campaign with
// `compiler`, checking that each golden run halts with exit 0.
std::vector<CampaignPoint> compileCampaign(
    const std::vector<workloads::Workload>& suite, const Compiler& compiler,
    Checks& checks) {
  const arch::MachineConfig machine = arch::makePaperMachine(2, 2);
  std::vector<CampaignPoint> points;
  for (const workloads::Workload& wl : suite) {
    std::uint64_t originalDefInsns = 0;
    for (passes::Scheme scheme : passes::kAllSchemes) {
      sim::RunResult golden;
      CampaignPoint point;
      point.bin = compiler(wl.program, machine, scheme, golden);
      checks.expect(haltedCleanly(golden),
                    wl.name + " " + passes::schemeName(scheme) +
                        " golden run halts with exit 0");
      // The fixed error rate comes from NOED, the first scheme.
      if (scheme == passes::Scheme::kNoed) {
        originalDefInsns = golden.stats.dynamicDefInsns;
      }
      point.options.trials = kCampaignTrials;
      point.options.seed = deriveStreamSeed(kCampaignSeed, points.size());
      point.options.threads = 1;
      point.options.originalDefInsns = originalDefInsns;
      point.key = "fig9_campaign/trials=" + std::to_string(kCampaignTrials) +
                  "/" + wl.name + "/" + passes::schemeName(scheme);
      points.push_back(std::move(point));
    }
  }
  return points;
}

CampaignCounts callCampaign(const CampaignPoint& point,
                            fault::InjectionMode mode) {
  fault::CampaignOptions options = point.options;
  options.mode = mode;
  return toCounts(core::campaign(point.bin, options));
}

Report runCampaign(const Args& args) {
  Report report;
  std::vector<CampaignPoint> points;
  std::vector<double> setupMs;
  std::vector<double> buildMs;
  Layers layers;
  const auto setUp = [&] {
    std::vector<workloads::Workload> suite;
    buildMs.push_back(
        timeMs([&] { suite = workloads::makeAllWorkloads(1); }));
    return buildMs.back() + timeMs([&] {
      points = compileCampaign(suite, publicCompiler(), report.checks);
    });
  };
  setupBurst(setupMs, kMinSetupRepeats, setUp);
  if (args.trace) {
    // The traced run compiles once more, through the split.
    points = compileCampaign(
        workloads::makeAllWorkloads(1),
        checkedSplitCompiler(layers.compile, report.checks), report.checks);
  }
  const auto order = [&](int pass) {
    return visitOrder(points.size(), args.seed, pass);
  };

  // One driver call; every call of a point must repeat its first report.
  std::vector<CampaignCounts> first(points.size());
  std::vector<bool> seen(points.size(), false);
  const auto call = [&](std::size_t i) {
    CampaignCounts counts;
    const double ms = timeMs([&] {
      counts = callCampaign(points[i], fault::InjectionMode::kCheckpointed);
    });
    if (!seen[i]) {
      first[i] = counts;
      seen[i] = true;
    } else {
      report.checks.expect(counts == first[i],
                           points[i].key + " repeats its first report");
    }
    return ms;
  };

  // The first reports against the committed digests, or against the kFull
  // oracle for a point the digest file does not hold.
  const auto checkOracle = [&] {
    const DigestFile digests = DigestFile::load(args.digests);
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (const auto expected = digests.find(points[i].key)) {
        report.checks.expect(digest(first[i]) == *expected,
                             points[i].key + " matches digest " +
                                 hex(*expected) + " (got " +
                                 hex(digest(first[i])) + ")");
      } else {
        report.checks.expect(
            callCampaign(points[i], fault::InjectionMode::kFull) == first[i],
            points[i].key + " equals the kFull oracle");
      }
    }
  };

  if (!args.trace) {
    BestTimes best(points.size());
    runPasses(args.seconds, kTimedPasses, [&](int pass) {
      double busyMs = 0.0;
      for (const std::size_t i : order(pass)) {
        const double ms = call(i);
        best.add(i, ms);
        busyMs += ms;
      }
      return busyMs + setupBurst(setupMs, 1, setUp);
    });
    double opsPerPass = 0.0;
    for (const CampaignCounts& counts : first) {
      opsPerPass += static_cast<double>(counts.trials);
    }
    addEndToEnd(report, median(setupMs) / 1000.0, opsPerPass, best);
    checkOracle();
    return report;
  }

  double offMs = 0.0;
  double onMs = 0.0;
  // Half of --seconds for the paired calls (off and on together), half for
  // the split.
  const PassLoop paired = runPasses(args.seconds / 2.0, 1, [&](int pass) {
    const double before = offMs + onMs;
    const std::vector<std::size_t> visit = order(pass);
    for (std::size_t k = 0; k < visit.size(); ++k) {
      const auto [off, on] = timeOffOn(k % 2 == 0, [&] { call(visit[k]); });
      offMs += off;
      onMs += on;
    }
    return offMs + onMs - before;
  });

  // The stepwise replay, whose counts must equal the driver's exactly.
  const PassLoop replay = runPasses(args.seconds / 2.0, 1, [&](int pass) {
    const double before = layers.replay.totalMs;
    for (const std::size_t i : order(pass)) {
      report.checks.expect(
          replayCampaign(points[i].bin, points[i].options, layers.replay) ==
              first[i],
          points[i].key + " replay equals the driver");
    }
    return layers.replay.totalMs - before;
  });
  layers.buildMs = median(buildMs);
  layers.replayPasses = replay.passes;
  layers.sessionOverheadPct = overheadPct(offMs, onMs);
  layers.replayGapPct =
      gapPct(offMs / paired.passes, replay.busyMs / replay.passes);
  addLayerMetrics(report, layers);
  checkOracle();
  return report;
}

}  // namespace

Report runWorkload(const Args& args) {
  if (args.workload == "fig6_7_sweep") {
    return runSweep(args);
  }
  if (args.workload == "fig9_campaign") {
    return runCampaign(args);
  }
  throw std::invalid_argument("unknown workload " + args.workload);
}

void printDigests() {
  Checks checks;
  for (const CampaignPoint& point : compileCampaign(
           workloads::makeAllWorkloads(1), publicCompiler(), checks)) {
    std::printf("%s %s\n", point.key.c_str(),
                hex(digest(callCampaign(point, fault::InjectionMode::kFull)))
                    .c_str());
    std::fflush(stdout);
  }
  if (checks.failed() != 0) {
    throw std::runtime_error("a golden run did not halt cleanly");
  }
}

}  // namespace perfbench
