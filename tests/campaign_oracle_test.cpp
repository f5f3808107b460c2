// Campaign-level oracle invariants — properties the Monte Carlo campaign
// must satisfy regardless of program, scheme, engine or thread count:
//
//   * every trial lands in exactly one outcome class (counts sum to trials);
//   * a NOED binary carries no CHECK instructions, so it can never report a
//     detection;
//   * the CoverageReport (outcome counts, trials, dynamicInsns) is
//     bit-identical across thread counts, across the two simulator engines
//     AND across the two injection modes (full rerun vs
//     checkpoint-and-diverge) — the campaign result is a pure function of
//     (binary, seed, trials);
//   * tracing (support/trace.h) only observes: an active trace session
//     leaves the report bit-identical to a run with tracing off;
//   * the per-trial RNG derivation decorrelates adjacent trials and nearby
//     master seeds (regression for the old `seed ^ trialIndex` scheme).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fault/campaign.h"
#include "sim/decoded.h"
#include "support/rng.h"
#include "support/trace.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::fault {
namespace {

using passes::Scheme;

CoverageReport runWith(const core::CompiledProgram& bin, std::uint32_t threads,
                       sim::Engine engine, std::uint32_t trials = 48,
                       std::uint64_t seed = 0xCA57EDu,
                       InjectionMode mode = InjectionMode::kCheckpointed) {
  CampaignOptions options;
  options.trials = trials;
  options.threads = threads;
  options.seed = seed;
  options.mode = mode;
  options.simOptions.engine = engine;
  return core::campaign(bin, options);
}

std::uint64_t total(const CoverageReport& report) {
  std::uint64_t sum = 0;
  for (std::uint64_t count : report.counts) {
    sum += count;
  }
  return sum;
}

TEST(CampaignOracleTest, CountsSumToTrialsForEveryScheme) {
  const workloads::Workload wl = workloads::makeH263dec(1);
  for (const Scheme scheme : passes::kAllSchemes) {
    const core::CompiledProgram bin =
        core::compile(wl.program, testutil::machine(2, 2), scheme);
    const CoverageReport report =
        runWith(bin, 2, sim::Engine::kDecoded,
                static_cast<std::uint32_t>(testutil::testTrials(60)));
    EXPECT_EQ(total(report), report.trials) << passes::schemeName(scheme);
    EXPECT_GT(report.dynamicInsns, 0u) << passes::schemeName(scheme);
  }
}

TEST(CampaignOracleTest, NoedNeverDetects) {
  // Detection requires a CHECK instruction; the unprotected binary has
  // none, so any nonzero detected count would mean the campaign (or an
  // engine) invented one.
  const core::CompiledProgram bin =
      core::compile(testutil::makeRandomCfgProgram(3), testutil::machine(2, 1),
                    Scheme::kNoed);
  for (const sim::Engine engine :
       {sim::Engine::kDecoded, sim::Engine::kReference}) {
    const CoverageReport report =
        runWith(bin, 4, engine,
                static_cast<std::uint32_t>(testutil::testTrials(80)));
    EXPECT_EQ(report.counts[static_cast<int>(Outcome::kDetected)], 0u)
        << sim::engineName(engine);
    EXPECT_EQ(total(report), report.trials);
  }
}

TEST(CampaignOracleTest, ReportBitIdenticalAcrossThreadsEnginesAndModes) {
  // The strongest determinism claim: 1, 2 and 8 workers, either engine,
  // full rerun or checkpoint-and-diverge — every combination produces the
  // same report, including the dynamicInsns work total, which would drift
  // on any divergence in trial execution, not just on a changed outcome
  // class.  The baseline is the one-thread full-rerun campaign: the oracle
  // path with no shared state between trials.
  const workloads::Workload wl = workloads::makeParser(1);
  const core::CompiledProgram bin =
      core::compile(wl.program, testutil::machine(2, 2), Scheme::kCasted);
  const std::uint32_t trials =
      static_cast<std::uint32_t>(testutil::testTrials(60));

  const CoverageReport baseline = runWith(bin, 1, sim::Engine::kDecoded,
                                          trials, 0xCA57EDu,
                                          InjectionMode::kFull);
  EXPECT_EQ(total(baseline), baseline.trials);
  for (const sim::Engine engine :
       {sim::Engine::kDecoded, sim::Engine::kReference}) {
    for (const InjectionMode mode :
         {InjectionMode::kFull, InjectionMode::kCheckpointed}) {
      for (const std::uint32_t threads : {1u, 2u, 8u}) {
        const CoverageReport report =
            runWith(bin, threads, engine, trials, 0xCA57EDu, mode);
        const std::string context = std::string(sim::engineName(engine)) +
                                    " " + injectionModeName(mode) + " x" +
                                    std::to_string(threads);
        EXPECT_EQ(report.counts, baseline.counts) << context;
        EXPECT_EQ(report.trials, baseline.trials) << context;
        EXPECT_EQ(report.dynamicInsns, baseline.dynamicInsns) << context;
      }
    }
  }
}

TEST(CampaignOracleTest, LockstepEqualsFullOnMcfAndParserAtFig9Settings) {
  // 181.mcf and 197.parser at the Fig. 9 point (issue 2 / delay 2, 300
  // trials, NOED's fixed error rate, the bench's per-scheme seeds) have the
  // most lockstep lanes whose addresses or branches leave the golden run's,
  // which the h263dec and parser samples above rarely reach.  The
  // checkpointed (lockstep) report must equal the kFull oracle's at one and
  // at four workers.
  for (const char* name : {"mcf", "parser"}) {
    const workloads::Workload wl = workloads::makeWorkload(name, 1);
    std::uint64_t originalDefInsns = 0;
    for (const Scheme scheme : passes::kAllSchemes) {
      const core::CompiledProgram bin =
          core::compile(wl.program, testutil::machine(2, 2), scheme);
      if (scheme == Scheme::kNoed) {
        originalDefInsns = core::run(bin).stats.dynamicDefInsns;
      }
      CampaignOptions options;
      options.trials = 300;
      options.seed = 0xCA57ED + static_cast<std::uint64_t>(scheme);
      options.originalDefInsns = originalDefInsns;
      options.threads = 4;
      options.mode = InjectionMode::kFull;
      const CoverageReport full = core::campaign(bin, options);
      options.mode = InjectionMode::kCheckpointed;
      for (const std::uint32_t threads : {1u, 4u}) {
        options.threads = threads;
        const CoverageReport lockstep = core::campaign(bin, options);
        const std::string context = wl.name + " " +
                                    passes::schemeName(scheme) + " x" +
                                    std::to_string(threads);
        EXPECT_EQ(lockstep.counts, full.counts) << context;
        EXPECT_EQ(lockstep.dynamicInsns, full.dynamicInsns) << context;
      }
    }
  }
}

TEST(CampaignOracleTest, LockstepEqualsFullOnRandomProgramsThatCall) {
  // The random CFG programs with callees and the bounded recursion: calls
  // inside loops and between memory ops, diffs crossing call arguments and
  // returned values, frames popped under live lanes, re-runs that go past
  // the call-depth limit.  Multi-flip plans, and a watchdog at twice the
  // golden cycles as well as the default, so that cycle bounds cross call
  // frames too.  On the paper machine, whose L3 keeps the arena, and on
  // one whose L3 can evict, where a diverged lane's bound charges every
  // bundle the memory latency and timing fallbacks re-run the rest.  The
  // checkpointed (lockstep) report on either engine, at one and at three
  // workers, must equal the one-worker kFull oracle's.
  const std::size_t seeds = testutil::testTrials(6);
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    const ir::Program source =
        testutil::makeRandomCfgProgram(seed, 4, 8, /*calls=*/true);
    const std::uint32_t delay = 1 + seed % 2;
    for (const bool evicting : {false, true}) {
      const arch::MachineConfig machine =
          evicting ? testutil::evictingMachine(2, delay)
                   : testutil::machine(2, delay);
      for (const Scheme scheme : passes::kAllSchemes) {
        const core::CompiledProgram bin =
            core::compile(source, machine, scheme);
        for (const std::uint64_t timeoutFactor : {20u, 2u}) {
          CampaignOptions options;
          options.trials = 80;
          options.seed = 0xCA11ED + seed;
          options.originalDefInsns =
              core::run(bin).stats.dynamicDefInsns / 3;
          options.timeoutFactor = timeoutFactor;
          options.threads = 1;
          options.mode = InjectionMode::kFull;
          const CoverageReport full = core::campaign(bin, options);
          options.mode = InjectionMode::kCheckpointed;
          for (const sim::Engine engine :
               {sim::Engine::kDecoded, sim::Engine::kReference}) {
            for (const std::uint32_t threads : {1u, 3u}) {
              options.simOptions.engine = engine;
              options.threads = threads;
              const CoverageReport lockstep = core::campaign(bin, options);
              const std::string context =
                  "seed " + std::to_string(seed) + " " +
                  passes::schemeName(scheme) +
                  (evicting ? " evicting L3" : "") + " timeout x" +
                  std::to_string(timeoutFactor) + " " +
                  sim::engineName(engine) + " x" + std::to_string(threads);
              EXPECT_EQ(lockstep.counts, full.counts) << context;
              EXPECT_EQ(lockstep.dynamicInsns, full.dynamicInsns) << context;
            }
          }
        }
      }
    }
  }
}

TEST(CampaignOracleTest, LockstepEqualsFullWhenAWorkersShareExceedsTheSlots) {
  // Each worker decides its whole share of the trials as one window: 900
  // trials on one worker, 300 each on three, more than the
  // sim::DecodedRunner::kMaxLanes lane slots either way.  Under NOED, a
  // flip of the loop's sum holds its slot to the end, so plans defer to
  // further streams of their window.  The checkpointed report on either
  // engine, at one and at three workers, must equal the one-worker kFull
  // oracle's.
  const std::uint32_t trials = 900;
  static_assert(trials / 3 > sim::DecodedRunner::kMaxLanes);
  for (const Scheme scheme : {Scheme::kNoed, Scheme::kCasted}) {
    const core::CompiledProgram bin = core::compile(
        testutil::makeLoopProgram(200), testutil::machine(2, 1), scheme);
    const CoverageReport full = runWith(bin, 1, sim::Engine::kDecoded, trials,
                                        0x51075u, InjectionMode::kFull);
    for (const sim::Engine engine :
         {sim::Engine::kDecoded, sim::Engine::kReference}) {
      for (const std::uint32_t threads : {1u, 3u}) {
        const CoverageReport lockstep =
            runWith(bin, threads, engine, trials, 0x51075u);
        const std::string context = std::string(passes::schemeName(scheme)) +
                                    " " + sim::engineName(engine) + " x" +
                                    std::to_string(threads);
        EXPECT_EQ(lockstep.counts, full.counts) << context;
        EXPECT_EQ(lockstep.dynamicInsns, full.dynamicInsns) << context;
      }
    }
    if (scheme != Scheme::kNoed) {
      continue;
    }
    // One worker: one window, whose NOED lanes outlast the slots.
    trace::resetForTest();
    trace::enable("");
    runWith(bin, 1, sim::Engine::kDecoded, trials, 0x51075u);
    const std::string lockstep = "fault.campaign.lockstep.";
    EXPECT_EQ(trace::counterValue(lockstep + "windows"), 1);
    EXPECT_GT(trace::counterValue(lockstep + "deferred"), 0);
    EXPECT_GT(trace::counterValue(lockstep + "streams"), 1);
    EXPECT_LE(trace::counterValue(lockstep + "streams"),
              1 + trace::counterValue(lockstep + "deferred"));
    trace::resetForTest();
  }
}

TEST(CampaignOracleTest, ReportBitIdenticalWithTracingOnAndOff) {
  // The trace subsystem's determinism contract (DESIGN.md §11): an active
  // session observes the campaign but never feeds back into it, so the
  // report — counts, trials AND the dynamicInsns work total — is
  // bit-identical to the untraced run, across both injection modes and a
  // multi-worker pool.
  const workloads::Workload wl = workloads::makeParser(1);
  const core::CompiledProgram bin =
      core::compile(wl.program, testutil::machine(2, 2), Scheme::kCasted);
  const std::uint32_t trials =
      static_cast<std::uint32_t>(testutil::testTrials(48));

  trace::resetForTest();
  trace::disable();
  const CoverageReport untraced =
      runWith(bin, 2, sim::Engine::kDecoded, trials);
  EXPECT_EQ(total(untraced), untraced.trials);

  trace::resetForTest();
  trace::enable("");  // in-memory session: no file, full instrumentation
  ASSERT_TRUE(trace::enabled());
  for (const InjectionMode mode :
       {InjectionMode::kFull, InjectionMode::kCheckpointed}) {
    const CoverageReport traced = runWith(bin, 2, sim::Engine::kDecoded,
                                          trials, 0xCA57EDu, mode);
    const std::string context = injectionModeName(mode);
    EXPECT_EQ(traced.counts, untraced.counts) << context;
    EXPECT_EQ(traced.trials, untraced.trials) << context;
    EXPECT_EQ(traced.dynamicInsns, untraced.dynamicInsns) << context;
  }
  // The session did observe the runs: per-worker trial counters merged to
  // the exact trial total per campaign, and the lockstep campaign's
  // counters — its windows' prefixes inside their streams, per fallback
  // reason one outcome per fallback, and its lane ops split by lane end
  // over at most as many lane steps.
  EXPECT_EQ(trace::counterValue("fault.campaign.trials"),
            static_cast<std::int64_t>(trials) * 2);
  const std::string lockstep = "fault.campaign.lockstep.";
  // Each of the two workers takes its share as one window: one stream
  // each, and one more per stream that deferred plans.
  EXPECT_EQ(trace::counterValue(lockstep + "windows"), 2);
  EXPECT_GE(trace::counterValue(lockstep + "streams"), 2);
  EXPECT_LE(trace::counterValue(lockstep + "streams"),
            2 + trace::counterValue(lockstep + "deferred"));
  EXPECT_GT(trace::counterValue(lockstep + "prefix_insns"), 0);
  EXPECT_LE(trace::counterValue(lockstep + "prefix_insns"),
            trace::counterValue(lockstep + "stream_insns"));
  for (const char* reason : {"control", "timing"}) {
    std::int64_t outcomes = 0;
    for (std::size_t o = 0; o < kOutcomeCount; ++o) {
      outcomes += trace::counterValue(lockstep + "fallback_outcome." + reason +
                                      "." +
                                      outcomeName(static_cast<Outcome>(o)));
    }
    EXPECT_EQ(outcomes, trace::counterValue(lockstep + "fallback." + reason))
        << reason;
  }
  // Every re-run runs past its injection point.
  for (const char* reason : {"control", "timing"}) {
    EXPECT_GE(trace::counterValue(lockstep + "fallback_insns." + reason),
              trace::counterValue(lockstep + "fallback." + reason))
        << reason;
  }
  std::int64_t laneOpsByEnd = 0;
  for (std::size_t e = 0; e < sim::kLaneEndCount; ++e) {
    const auto end = static_cast<sim::LaneEnd>(e);
    laneOpsByEnd +=
        trace::counterValue(lockstep + "lane_ops." + sim::laneEndName(end));
  }
  const std::int64_t laneOps = trace::counterValue(lockstep + "lane_ops");
  EXPECT_GT(laneOps, 0);
  EXPECT_EQ(laneOpsByEnd, laneOps);
  EXPECT_GT(trace::counterValue(lockstep + "lane_steps"), 0);
  EXPECT_LE(trace::counterValue(lockstep + "lane_steps"), laneOps);
  // The lane ops by opcode (each step adds its batch width) sum to them
  // too, and count per lane, so a one-worker campaign, whose windows hold
  // other lanes, reads the same per opcode.
  std::map<std::string, std::int64_t> byOpcode;
  std::int64_t laneOpsByOpcode = 0;
  for (const auto& [name, value] : trace::counterSnapshot()) {
    if (name.starts_with(lockstep + "lane_ops.op.")) {
      byOpcode[name] = value;
      laneOpsByOpcode += value;
    }
  }
  EXPECT_EQ(laneOpsByOpcode, laneOps);
  EXPECT_GT(byOpcode[lockstep + "lane_ops.op.add"], 0);
  trace::resetForTest();
  trace::enable("");
  runWith(bin, 1, sim::Engine::kDecoded, trials, 0xCA57EDu,
          InjectionMode::kCheckpointed);
  for (const auto& [name, value] : trace::counterSnapshot()) {
    if (name.starts_with(lockstep + "lane_ops.op.")) {
      EXPECT_EQ(value, byOpcode[name]) << name;
      byOpcode.erase(name);
    }
  }
  EXPECT_TRUE(byOpcode.empty()) << byOpcode.begin()->first;
  trace::resetForTest();
}

TEST(CampaignOracleTest, AdjacentTrialPlansAreNotNearDuplicates) {
  // Regression for the old `seed ^ trialIndex` derivation: XOR only
  // perturbs the low bits, so adjacent trials seeded near-identical RNGs.
  // With the SplitMix64 mix, consecutive trials must draw unrelated plans.
  const std::uint64_t defInsns = 100000;
  std::set<std::uint64_t> firstOrdinals;
  const std::size_t trials = 64;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    Rng rng(deriveStreamSeed(0xCA57EDu, trial));
    const sim::FaultPlan plan = makeTrialPlan(rng, defInsns, 0);
    ASSERT_FALSE(plan.points.empty());
    firstOrdinals.insert(plan.points.front().ordinal);
  }
  // With 64 uniform draws from 100000 ordinals, collisions are rare; the
  // old derivation produced long runs of correlated plans.  Allow a couple
  // of genuine birthday collisions but no systematic duplication.
  EXPECT_GE(firstOrdinals.size(), trials - 2);
}

TEST(CampaignOracleTest, NearbyMasterSeedsShareNoTrialSeeds) {
  // The defining failure of XOR derivation: masters A and A^1 run the SAME
  // set of trial RNGs, merely permuted (A ^ i == (A^1) ^ (i^1)), so their
  // campaign counts were identical.  The mixed derivation must give the two
  // masters fully disjoint trial-seed sets.
  std::set<std::uint64_t> a;
  std::set<std::uint64_t> b;
  for (std::uint64_t trial = 0; trial < 256; ++trial) {
    a.insert(deriveStreamSeed(0xCA57EDu, trial));
    b.insert(deriveStreamSeed(0xCA57ECu, trial));
  }
  EXPECT_EQ(a.size(), 256u);
  EXPECT_EQ(b.size(), 256u);
  std::vector<std::uint64_t> shared;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(shared));
  EXPECT_TRUE(shared.empty());
}

}  // namespace
}  // namespace casted::fault
