#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/cli.h"
#include "common/intervals.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace sunflow {
namespace {

TEST(Units, Constructors) {
  EXPECT_DOUBLE_EQ(MB(1), 1e6);
  EXPECT_DOUBLE_EQ(GB(2), 2e9);
  EXPECT_DOUBLE_EQ(Gbps(1), 1.25e8);  // bytes per second
  EXPECT_DOUBLE_EQ(Millis(10), 0.01);
  EXPECT_DOUBLE_EQ(Micros(10), 1e-5);
}

TEST(Units, TolerantComparisons) {
  EXPECT_TRUE(TimeEq(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(TimeEq(1.0, 1.0 + 1e-6));
  EXPECT_TRUE(TimeLess(1.0, 2.0));
  EXPECT_FALSE(TimeLess(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(TimeLessEq(1.0, 1.0));
}

TEST(Assert, CheckThrowsWithMessage) {
  try {
    SUNFLOW_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.NextU64() == b.NextU64()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(8);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::vector<int> seen(10, 0);
  for (int v : sample) ++seen[static_cast<std::size_t>(v)];
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(9);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Categorical(w), 1u);
}

TEST(Stats, MeanAndPercentiles) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::Mean(xs), 3);
  EXPECT_DOUBLE_EQ(stats::Median(xs), 3);
  EXPECT_DOUBLE_EQ(stats::Percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(stats::Percentile(xs, 100), 5);
  EXPECT_DOUBLE_EQ(stats::Percentile(xs, 50), 3);
  // Linear interpolation between order statistics.
  EXPECT_DOUBLE_EQ(stats::Percentile(xs, 25), 2);
  EXPECT_DOUBLE_EQ(stats::Percentile(xs, 95), 4.8);
}

TEST(Stats, SingleElement) {
  std::vector<double> xs = {7};
  EXPECT_DOUBLE_EQ(stats::Percentile(xs, 95), 7);
  EXPECT_DOUBLE_EQ(stats::Mean(xs), 7);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(stats::PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> zs = {8, 6, 4, 2};
  EXPECT_NEAR(stats::PearsonCorrelation(xs, zs), -1.0, 1e-12);
}

TEST(Stats, SpearmanMonotonic) {
  // Monotone but non-linear: rank correlation 1, Pearson < 1.
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {1, 8, 27, 64, 125};
  EXPECT_NEAR(stats::SpearmanCorrelation(xs, ys), 1.0, 1e-12);
  EXPECT_LT(stats::PearsonCorrelation(xs, ys), 1.0);
}

TEST(Stats, SpearmanHandlesTies) {
  std::vector<double> xs = {1, 1, 2, 2};
  std::vector<double> ys = {1, 1, 2, 2};
  EXPECT_NEAR(stats::SpearmanCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(Stats, EmpiricalCdf) {
  std::vector<double> xs = {1, 1, 2, 4};
  const auto cdf = stats::EmpiricalCdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ(cdf[2].value, 4);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(Stats, FractionAtMost) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::FractionAtMost(xs, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(stats::FractionAtMost(xs, 0), 0);
  EXPECT_DOUBLE_EQ(stats::FractionAtMost(xs, 10), 1);
}

TEST(Stats, Summary) {
  std::vector<double> xs = {1, 2, 3, 4, 100};
  const auto s = stats::Summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 22);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 100);
}

TEST(Intervals, UnionMergesOverlaps) {
  IntervalSet set;
  set.Add(0, 2);
  set.Add(1, 3);
  set.Add(5, 6);
  EXPECT_DOUBLE_EQ(set.UnionLengthWithin(0, 6), 4.0);
  const auto merged = set.Merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].begin, 0);
  EXPECT_DOUBLE_EQ(merged[0].end, 3);
}

TEST(Intervals, UnionWithinWindow) {
  IntervalSet set;
  set.Add(0, 10);
  EXPECT_DOUBLE_EQ(set.UnionLengthWithin(2, 5), 3.0);
  EXPECT_DOUBLE_EQ(set.UnionLengthWithin(9, 20), 1.0);
  EXPECT_DOUBLE_EQ(set.UnionLengthWithin(15, 20), 0.0);
}

TEST(Intervals, EmptyIntervalsIgnored) {
  IntervalSet set;
  set.Add(3, 3);
  set.Add(5, 4);
  EXPECT_TRUE(set.empty());
  EXPECT_DOUBLE_EQ(set.UnionLengthWithin(0, 10), 0.0);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // NOTE: "--name value" consumes the next token, so a bare boolean flag
  // must use "=", come last, or precede another "--" flag.
  const char* argv[] = {"prog", "--alpha=1.5", "--name", "x", "pos1",
                        "--flag"};
  CliFlags flags(6, argv);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0), 1.5);
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_TRUE(flags.GetBool("flag", false));
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(Cli, MalformedNumberThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.GetInt("n", 0), std::invalid_argument);
}

TEST(Cli, NamesFlagsNoGetterRegistered) {
  const char* argv[] = {"prog", "--coflow=80", "--ports=6", "--zeta", "1"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.GetInt("ports", 150), 6);
  EXPECT_EQ(flags.GetInt("coflows", 526), 526);  // registered, not given
  EXPECT_EQ(flags.Unregistered(),
            (std::vector<std::string>{"coflow", "zeta"}));
  flags.GetString("zeta", "");
  flags.GetInt("coflow", 0);
  EXPECT_TRUE(flags.Unregistered().empty());
}

TEST(Cli, HelpDetected) {
  const char* argv[] = {"prog", "--help"};
  CliFlags flags(2, argv);
  EXPECT_TRUE(flags.help_requested());
}

}  // namespace
}  // namespace sunflow
