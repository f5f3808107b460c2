#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include "support/check.h"
#include "support/env.h"
#include "support/rng.h"
#include "support/statistics.h"
#include "support/table.h"

namespace casted {
namespace {

// --- CASTED_CHECK ----------------------------------------------------------

TEST(CheckTest, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(CASTED_CHECK(1 + 1 == 2) << "never shown");
}

TEST(CheckTest, FailingConditionThrowsFatalError) {
  EXPECT_THROW(CASTED_CHECK(false) << "context", FatalError);
}

TEST(CheckTest, MessageContainsExpressionAndContext) {
  try {
    const int x = 42;
    CASTED_CHECK(x < 0) << "x=" << x;
    FAIL() << "expected FatalError";
  } catch (const FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("x < 0"), std::string::npos);
    EXPECT_NE(what.find("x=42"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

TEST(CheckTest, UnreachableThrows) {
  EXPECT_THROW(CASTED_UNREACHABLE("boom"), FatalError);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.nextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.nextBelow(1), 0u);
  }
}

TEST(RngTest, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.nextBelow(0), FatalError);
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.nextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.nextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbabilityExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
  }
}

// --- statistics ---------------------------------------------------------------

TEST(StatisticsTest, EmptySummaryIsZero) {
  const SampleSummary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatisticsTest, SingleValue) {
  const std::vector<double> values = {4.0};
  const SampleSummary s = summarize(values);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.geomean, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(StatisticsTest, MeanAndExtremes) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  const SampleSummary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(StatisticsTest, GeomeanOfPowersOfTwo) {
  const std::vector<double> values = {1.0, 2.0, 4.0, 8.0};
  EXPECT_NEAR(geomean(values), 2.8284271247461903, 1e-12);
}

TEST(StatisticsTest, GeomeanRejectsNonPositive) {
  const std::vector<double> values = {1.0, 0.0};
  EXPECT_THROW(geomean(values), FatalError);
}

TEST(StatisticsTest, GeomeanValidFlagMatchesThrowingTwin) {
  // summarize() and geomean() share one validity rule: geomeanValid is the
  // silent twin of the throwing CHECK.  Positive data: flag set, values
  // agree.  Non-positive data: flag cleared + geomean 0.0 where geomean()
  // throws.
  const std::vector<double> positive = {1.0, 2.0, 4.0, 8.0};
  const SampleSummary good = summarize(positive);
  EXPECT_TRUE(good.geomeanValid);
  EXPECT_NEAR(good.geomean, geomean(positive), 1e-12);

  const std::vector<double> withZero = {1.0, 0.0};
  const SampleSummary bad = summarize(withZero);
  EXPECT_FALSE(bad.geomeanValid);
  EXPECT_DOUBLE_EQ(bad.geomean, 0.0);
  EXPECT_THROW(geomean(withZero), FatalError);

  const std::vector<double> withNegative = {2.0, -3.0};
  EXPECT_FALSE(summarize(withNegative).geomeanValid);
  EXPECT_THROW(geomean(withNegative), FatalError);

  // Empty input is vacuously valid for neither: count 0, no throw, no flag.
  EXPECT_FALSE(summarize({}).geomeanValid);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(StatisticsTest, StddevUsesSampleEstimator) {
  // Regression for the population-stddev bug (divide by n): bench
  // repetitions are a sample, so the estimator must be Bessel-corrected
  // (divide by n-1).  Hand-computed: {1,2,3,4} has mean 2.5 and squared
  // deviations summing to 5, so sample stddev = sqrt(5/3).
  const std::vector<double> small = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(summarize(small).stddev, std::sqrt(5.0 / 3.0), 1e-12);

  // Textbook example: {2,4,4,4,5,5,7,9}, mean 5, squared deviations sum to
  // 32.  Population stddev would be sqrt(32/8) = 2 exactly — the buggy
  // value — while the sample estimator gives sqrt(32/7).
  const std::vector<double> textbook = {2.0, 4.0, 4.0, 4.0,
                                        5.0, 5.0, 7.0, 9.0};
  const double stddev = summarize(textbook).stddev;
  EXPECT_NEAR(stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_GT(stddev, 2.0);  // strictly above the population value
}

TEST(StatisticsTest, StddevOfTinySamplesIsZero) {
  // n <= 1 has no spread estimate; the n-1 denominator must not divide by
  // zero or return NaN.
  const std::vector<double> single = {7.5};
  EXPECT_DOUBLE_EQ(summarize({}).stddev, 0.0);
  EXPECT_DOUBLE_EQ(summarize(single).stddev, 0.0);
}

// --- envU32 ------------------------------------------------------------------

class EnvU32Test : public ::testing::Test {
 protected:
  static constexpr const char* kName = "CASTED_ENVU32_TEST";
  void SetUp() override { ::unsetenv(kName); }
  void TearDown() override { ::unsetenv(kName); }
  void set(const char* value) { ::setenv(kName, value, 1); }
};

TEST_F(EnvU32Test, UnsetAndEmptyFallBack) {
  EXPECT_EQ(envU32(kName, 42), 42u);
  set("");
  EXPECT_EQ(envU32(kName, 42), 42u);
}

TEST_F(EnvU32Test, ParsesPlainDecimal) {
  set("0");
  EXPECT_EQ(envU32(kName, 42), 0u);
  set("123");
  EXPECT_EQ(envU32(kName, 42), 123u);
  set("4294967295");  // UINT32_MAX is in range
  EXPECT_EQ(envU32(kName, 42), 4294967295u);
}

TEST_F(EnvU32Test, RejectsMalformedInput) {
  // Regression for the old strtoul parser: "1e6" silently parsed as 1 and
  // pure junk as 0.  Every non-digit must now die loudly.
  for (const char* bad : {"1e6", "junk", "-1", "+5", " 5", "5 ", "0x10"}) {
    set(bad);
    EXPECT_THROW(envU32(kName, 42), FatalError) << bad;
  }
}

TEST_F(EnvU32Test, RejectsOutOfRange) {
  // The old parser wrapped values above UINT32_MAX modulo 2^32.
  set("4294967296");  // UINT32_MAX + 1
  EXPECT_THROW(envU32(kName, 42), FatalError);
  set("99999999999999999999");  // far beyond uint64 too
  EXPECT_THROW(envU32(kName, 42), FatalError);
}

TEST(WilsonIntervalTest, EmptySampleIsVacuous) {
  const ProportionInterval interval = wilsonInterval(0, 0);
  EXPECT_EQ(interval.low, 0.0);
  EXPECT_EQ(interval.high, 1.0);
  EXPECT_TRUE(interval.contains(0.0));
  EXPECT_TRUE(interval.contains(1.0));
}

TEST(WilsonIntervalTest, MatchesKnownValueAt95) {
  // Textbook example: 50/100 at z=1.96 gives roughly [0.404, 0.596].
  const ProportionInterval interval = wilsonInterval(50, 100, 1.96);
  EXPECT_NEAR(interval.low, 0.4038, 1e-3);
  EXPECT_NEAR(interval.high, 0.5962, 1e-3);
}

TEST(WilsonIntervalTest, BoundariesStayInUnitRangeAndCoverEstimate) {
  const std::uint64_t samples[][2] = {
      {0, 10}, {10, 10}, {1, 1000}, {999, 1000}, {7, 25}};
  for (const auto& [successes, trials] : samples) {
    const ProportionInterval interval = wilsonInterval(successes, trials);
    EXPECT_GE(interval.low, 0.0);
    EXPECT_LE(interval.high, 1.0);
    EXPECT_LT(interval.low, interval.high);
    const double estimate =
        static_cast<double>(successes) / static_cast<double>(trials);
    EXPECT_TRUE(interval.contains(estimate)) << successes << "/" << trials;
  }
  // Degenerate extremes pin the matching bound (up to rounding).
  EXPECT_NEAR(wilsonInterval(0, 10).low, 0.0, 1e-12);
  EXPECT_NEAR(wilsonInterval(10, 10).high, 1.0, 1e-12);
}

TEST(WilsonIntervalTest, NarrowsWithMoreTrials) {
  const ProportionInterval small = wilsonInterval(5, 10);
  const ProportionInterval large = wilsonInterval(500, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST(WilsonIntervalTest, RejectsMoreSuccessesThanTrials) {
  EXPECT_THROW(wilsonInterval(11, 10), FatalError);
}

TEST(StatisticsTest, StddevOfConstantIsZero) {
  const std::vector<double> values = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(summarize(values).stddev, 0.0);
}

TEST(StatisticsTest, FormatFixed) {
  EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
  EXPECT_EQ(formatFixed(1.0, 0), "1");
  EXPECT_EQ(formatFixed(-0.5, 1), "-0.5");
}

TEST(StatisticsTest, FormatPercent) {
  EXPECT_EQ(formatPercent(0.425), "42.5%");
  EXPECT_EQ(formatPercent(1.0), "100.0%");
}

// --- TextTable -------------------------------------------------------------------

TEST(TextTableTest, RendersHeaderAndRows) {
  TextTable table({"name", "value"});
  table.addRow({"alpha", "1"});
  table.addRow({"beta", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTableTest, RejectsWrongArity) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.addRow({"only-one"}), FatalError);
}

TEST(TextTableTest, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), FatalError);
}

TEST(TextTableTest, SeparatorAddsRule) {
  TextTable table({"x"});
  table.addRow({"1"});
  table.addSeparator();
  table.addRow({"2"});
  const std::string out = table.render();
  // top + header rule + separator + bottom = 4 horizontal rules
  int rules = 0;
  for (std::size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 4);
}

// --- CsvWriter ----------------------------------------------------------------

TEST(CsvWriterTest, BasicRendering) {
  CsvWriter csv({"a", "b"});
  csv.addRow({"1", "2"});
  EXPECT_EQ(csv.render(), "a,b\n1,2\n");
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  CsvWriter csv({"a"});
  csv.addRow({"x,y"});
  csv.addRow({"he said \"hi\""});
  const std::string out = csv.render();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(CsvWriterTest, RejectsWrongArity) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.addRow({"1"}), FatalError);
}

}  // namespace
}  // namespace casted
