#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "fault/campaign.h"
#include "support/check.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::fault {
namespace {

using passes::Scheme;

TEST(ClassifyTest, MapsExitKindsToOutcomes) {
  GoldenProfile golden;
  golden.result.exit = sim::ExitKind::kHalted;
  golden.result.exitCode = 0;
  golden.result.output = {1, 2, 3};

  sim::RunResult faulty;
  faulty.exit = sim::ExitKind::kDetected;
  EXPECT_EQ(classify(faulty, golden), Outcome::kDetected);

  faulty.exit = sim::ExitKind::kException;
  EXPECT_EQ(classify(faulty, golden), Outcome::kException);

  faulty.exit = sim::ExitKind::kTimeout;
  EXPECT_EQ(classify(faulty, golden), Outcome::kTimeout);

  faulty.exit = sim::ExitKind::kHalted;
  faulty.exitCode = 0;
  faulty.output = {1, 2, 3};
  EXPECT_EQ(classify(faulty, golden), Outcome::kBenign);

  faulty.output = {1, 2, 4};
  EXPECT_EQ(classify(faulty, golden), Outcome::kDataCorrupt);

  faulty.output = {1, 2, 3};
  faulty.exitCode = 1;
  EXPECT_EQ(classify(faulty, golden), Outcome::kDataCorrupt);
}

// Property test for the precedence documented in campaign.h: the faulty
// run's ExitKind dominates, and output bytes / exit code are compared only
// for runs that halted cleanly.
TEST(ClassifyTest, ExitKindDominatesOutputComparison) {
  Rng rng(0xC1A55);
  const sim::ExitKind kinds[] = {
      sim::ExitKind::kHalted, sim::ExitKind::kDetected,
      sim::ExitKind::kException, sim::ExitKind::kTimeout};
  for (int trial = 0; trial < 500; ++trial) {
    GoldenProfile golden;
    golden.result.exit = sim::ExitKind::kHalted;
    golden.result.exitCode = static_cast<std::int64_t>(rng.nextBelow(3));
    golden.result.output = {static_cast<std::uint8_t>(rng.nextBelow(4))};

    sim::RunResult faulty;
    faulty.exit = kinds[rng.nextBelow(4)];
    faulty.exitCode = static_cast<std::int64_t>(rng.nextBelow(3));
    faulty.output = {static_cast<std::uint8_t>(rng.nextBelow(4))};

    Outcome expected = Outcome::kBenign;
    switch (faulty.exit) {
      case sim::ExitKind::kDetected:
        expected = Outcome::kDetected;
        break;
      case sim::ExitKind::kException:
        expected = Outcome::kException;
        break;
      case sim::ExitKind::kTimeout:
        expected = Outcome::kTimeout;
        break;
      case sim::ExitKind::kHalted:
        expected = (faulty.output == golden.result.output &&
                    faulty.exitCode == golden.result.exitCode)
                       ? Outcome::kBenign
                       : Outcome::kDataCorrupt;
        break;
    }
    EXPECT_EQ(classify(faulty, golden), expected)
        << "exit=" << static_cast<int>(faulty.exit);
    if (faulty.exit != sim::ExitKind::kHalted) {
      // Corrupt-looking output must not demote a detected/trapped/timed-out
      // run to kDataCorrupt.
      EXPECT_NE(classify(faulty, golden), Outcome::kDataCorrupt);
    }
  }
}

TEST(TrialPlanTest, OriginalBinaryGetsExactlyOneFlip) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const sim::FaultPlan plan = makeTrialPlan(rng, 1000, 1000);
    EXPECT_EQ(plan.points.size(), 1u);
    EXPECT_LT(plan.points[0].ordinal, 1000u);
    EXPECT_LT(plan.points[0].bit, 64u);
  }
}

TEST(TrialPlanTest, LongerBinariesGetProportionallyMoreFlips) {
  Rng rng(2);
  double total = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(makeTrialPlan(rng, 2400, 1000).points.size());
  }
  const double average = total / trials;
  // Expected ~2.4 flips per run (minus rare duplicate-ordinal collapses).
  EXPECT_GT(average, 2.0);
  EXPECT_LT(average, 2.8);
}

TEST(TrialPlanTest, PlansAreSortedAndUnique) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const sim::FaultPlan plan = makeTrialPlan(rng, 5000, 500);
    for (std::size_t j = 1; j < plan.points.size(); ++j) {
      EXPECT_LT(plan.points[j - 1].ordinal, plan.points[j].ordinal);
    }
  }
}

TEST(TrialPlanTest, ZeroOriginalDefaultsToOwnLength) {
  Rng rng(4);
  const sim::FaultPlan plan = makeTrialPlan(rng, 777, 0);
  EXPECT_EQ(plan.points.size(), 1u);
}

TEST(TrialPlanTest, EmptyRunRejected) {
  Rng rng(5);
  EXPECT_THROW(makeTrialPlan(rng, 0, 0), FatalError);
}

TEST(CampaignTest, DeterministicForSameSeed) {
  const workloads::Workload wl = workloads::makeParser(1);
  const arch::MachineConfig config = testutil::machine(2, 2);
  const core::CompiledProgram bin =
      core::compile(wl.program, config, Scheme::kCasted);
  CampaignOptions options;
  options.trials = 12;
  options.seed = 99;
  const CoverageReport a = campaign(bin, options);
  const CoverageReport c = campaign(bin, options);
  EXPECT_EQ(a.counts, c.counts);
  EXPECT_EQ(a.trials, 12u);
}

TEST(CampaignTest, UnprotectedBinaryHasCorruptionsOrLuck) {
  // NOED has no checks: nothing can ever be "detected".
  const workloads::Workload wl = workloads::makeParser(1);
  const arch::MachineConfig config = testutil::machine(2, 2);
  const core::CompiledProgram bin =
      core::compile(wl.program, config, Scheme::kNoed);
  CampaignOptions options;
  options.trials = 30;
  const CoverageReport report = campaign(bin, options);
  EXPECT_EQ(report.counts[static_cast<int>(Outcome::kDetected)], 0u);
  EXPECT_EQ(report.trials, 30u);
}

TEST(CampaignTest, ProtectedBinaryDetectsErrors) {
  const workloads::Workload wl = workloads::makeParser(1);
  const arch::MachineConfig config = testutil::machine(2, 2);
  const core::CompiledProgram noed =
      core::compile(wl.program, config, Scheme::kNoed);
  const core::CompiledProgram casted =
      core::compile(wl.program, config, Scheme::kCasted);

  CampaignOptions options;
  options.trials = 40;
  const CoverageReport noedReport = campaign(noed, options);
  const CoverageReport castedReport = campaign(casted, options);

  // The protected binary must detect a healthy share of injections and have
  // strictly fewer silent corruptions than the unprotected one.
  EXPECT_GT(castedReport.fraction(Outcome::kDetected), 0.2);
  EXPECT_LT(castedReport.fraction(Outcome::kDataCorrupt),
            noedReport.fraction(Outcome::kDataCorrupt));
}

TEST(CampaignTest, OutcomesSumToTrials) {
  const workloads::Workload wl = workloads::makeParser(1);
  const arch::MachineConfig config = testutil::machine(1, 1);
  const core::CompiledProgram bin =
      core::compile(wl.program, config, Scheme::kSced);
  CampaignOptions options;
  options.trials = 25;
  const CoverageReport report = campaign(bin, options);
  std::uint64_t sum = 0;
  for (std::uint64_t count : report.counts) {
    sum += count;
  }
  EXPECT_EQ(sum, report.trials);
  EXPECT_NEAR(report.fraction(Outcome::kBenign) +
                  report.fraction(Outcome::kDetected) +
                  report.fraction(Outcome::kException) +
                  report.fraction(Outcome::kDataCorrupt) +
                  report.fraction(Outcome::kTimeout),
              1.0, 1e-9);
}

TEST(CampaignTest, EmptyCampaignReportsConsistentZeroes) {
  // Regression: safeFraction() used to report 1.0 on zero trials while
  // fraction() reported 0.0 for every outcome.  Both now agree that an
  // empty campaign is evidence of nothing.
  const ir::Program prog = testutil::makeTinyProgram();
  const arch::MachineConfig config = testutil::machine(2, 1);
  const core::CompiledProgram bin =
      core::compile(prog, config, Scheme::kCasted);
  CampaignOptions options;
  options.trials = 0;
  const CoverageReport report = campaign(bin, options);
  EXPECT_EQ(report.trials, 0u);
  for (int i = 0; i < static_cast<int>(kOutcomeCount); ++i) {
    EXPECT_EQ(report.counts[i], 0u);
    EXPECT_EQ(report.fraction(static_cast<Outcome>(i)), 0.0);
  }
  EXPECT_EQ(report.safeFraction(), 0.0);
}

TEST(OutcomeTest, NamesAreStable) {
  EXPECT_STREQ(outcomeName(Outcome::kBenign), "benign");
  EXPECT_STREQ(outcomeName(Outcome::kDetected), "detected");
  EXPECT_STREQ(outcomeName(Outcome::kException), "exception");
  EXPECT_STREQ(outcomeName(Outcome::kDataCorrupt), "data-corrupt");
  EXPECT_STREQ(outcomeName(Outcome::kTimeout), "timeout");
}

}  // namespace
}  // namespace casted::fault
