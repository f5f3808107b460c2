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
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fault/campaign.h"
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
  // the exact trial total per campaign.
  EXPECT_EQ(trace::counterValue("fault.campaign.trials"),
            static_cast<std::int64_t>(trials) * 2);
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
