// Tests for streaming and batch statistics.
#include "src/common/statistics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/rng.hpp"

namespace tono {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.rms(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.rms(), 3.5);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SampleVariance) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_NEAR(s.sample_variance(), 1.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng{5};
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(2.0, 3.0);
    all.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 1.5);
}

TEST(RunningStats, RmsOfSine) {
  RunningStats s;
  const int n = 10000;
  for (int i = 0; i < n; ++i) s.add(std::sin(2.0 * M_PI * i / 100.0));
  EXPECT_NEAR(s.rms(), 1.0 / std::sqrt(2.0), 1e-3);
}

TEST(BatchStats, MeanVarianceStd) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
}

TEST(BatchStats, MinMaxPeakToPeak) {
  const std::vector<double> xs{3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
  EXPECT_DOUBLE_EQ(peak_to_peak(xs), 8.0);
}

TEST(BatchStats, EmptyInputsAreZero) {
  const std::vector<double> e;
  EXPECT_DOUBLE_EQ(mean(e), 0.0);
  EXPECT_DOUBLE_EQ(rms(e), 0.0);
  EXPECT_DOUBLE_EQ(percentile(e, 50.0), 0.0);
}

TEST(Percentile, Endpoints) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Percentile, ClampsOutOfRangeQ) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 150.0), 2.0);
}

/// Linear interpolation between the closest ranks of a fully sorted copy:
/// the reference percentile() must match bit for bit.
double sorted_percentile(std::span<const double> xs, double q) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

TEST(Statistics, PercentileEqualsSortedInterpolation) {
  // Half-unit steps give many duplicates, both signs and exact zeros; ±0
  // compare equal, so which of them a sort leaves at a rank is unspecified.
  tono::Rng rng{41};
  std::vector<std::vector<double>> inputs{
      {-0.0}, {0.0, -0.0}, {-0.0, 0.0}, {2.5, -1.0}, {0.0, -0.0, -3.5}, {1.0, 1.0, -0.0}};
  for (const std::size_t n : {1u, 2u, 3u, 8000u}) {
    std::vector<double> xs(n);
    for (auto& v : xs) v = std::round(rng.gaussian(0.0, 4.0)) / 2.0;
    xs[0] = -0.0;
    if (n > 1) xs[n / 2] = 0.0;
    inputs.push_back(xs);
  }
  const auto same_bits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  const std::vector<double> qs{0.0, 25.0, 37.3, 50.0, 75.0, 100.0};
  for (const auto& xs : inputs) {
    for (const double q : qs) {
      const double got = percentile(xs, q);
      const double want = sorted_percentile(xs, q);
      EXPECT_TRUE(same_bits(got, want))
          << "n=" << xs.size() << " q=" << q << ": " << got << " vs " << want;
    }
    // Every ordered and reversed pair, equal ranks included.
    for (const double qa : qs) {
      for (const double qb : qs) {
        const auto [a, b] = percentiles(xs, qa, qb);
        EXPECT_TRUE(same_bits(a, sorted_percentile(xs, qa)) &&
                    same_bits(b, sorted_percentile(xs, qb)))
            << "n=" << xs.size() << " q=" << qa << ", " << qb;
      }
    }
  }
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Correlation, PerfectPositive) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson_correlation(a, b), 1.0, 1e-12);
}

TEST(Correlation, PerfectNegative) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson_correlation(a, b), -1.0, 1e-12);
}

TEST(Correlation, ZeroVarianceGivesZero) {
  const std::vector<double> a{1.0, 1.0, 1.0};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson_correlation(a, b), 0.0);
}

TEST(Correlation, SizeMismatchGivesZero) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson_correlation(a, b), 0.0);
}

TEST(ErrorMetrics, RmseAndMae) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 2.0, 1.0};
  EXPECT_NEAR(rmse(a, b), std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-12);
  EXPECT_NEAR(mae(a, b), 1.0, 1e-12);
}

TEST(ErrorMetrics, IdenticalSeriesZeroError) {
  const std::vector<double> a{1.0, -2.0, 3.5};
  EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
  EXPECT_DOUBLE_EQ(mae(a, a), 0.0);
}

// Property: variance is invariant under mean shift.
class VarianceShiftTest : public ::testing::TestWithParam<double> {};

TEST_P(VarianceShiftTest, ShiftInvariant) {
  Rng rng{77};
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.gaussian();
  std::vector<double> shifted(xs);
  for (auto& x : shifted) x += GetParam();
  EXPECT_NEAR(variance(xs), variance(shifted), 1e-8 * (1.0 + std::abs(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Shifts, VarianceShiftTest,
                         ::testing::Values(-1000.0, -1.0, 0.0, 0.5, 42.0, 1e6));

}  // namespace
}  // namespace tono
