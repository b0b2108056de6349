// Tests for the deterministic random number generator.
#include "src/common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>
#include <vector>

#include "src/common/checkpoint.hpp"

namespace tono {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{8};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng{9};
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformBelowInRange) {
  Rng rng{10};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_below(17), 17u);
  }
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, GaussianMoments) {
  Rng rng{12};
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, GaussianMeanSigma) {
  Rng rng{13};
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng{14};
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng{15};
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, BernoulliProbability) {
  Rng rng{16};
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng{17};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng parent{42};
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1{42};
  Rng p2{42};
  Rng a = p1.fork(5);
  Rng b = p2.fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkNamedDistinctNames) {
  Rng p{42};
  Rng a = Rng{42}.fork_named("comparator");
  Rng b = Rng{42}.fork_named("modulator");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, GaussianSpareCacheConsistency) {
  // Two generators with the same seed must stay in lockstep when Gaussian
  // draws interleave with other draws.
  Rng a{99};
  Rng b{99};
  (void)a.gaussian();
  (void)b.gaussian();
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
}

// fill_gaussian must be indistinguishable from a scalar draw loop: same
// values, same end state, however the fill is split. These tests pin the
// contract the modulator's noise plan depends on.
TEST(RngFill, BitIdenticalToScalarDraws) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 127u, 128u, 129u, 513u}) {
    Rng scalar{777};
    Rng bulk{777};
    std::vector<double> want(n);
    for (auto& v : want) v = scalar.gaussian();
    std::vector<double> got(n);
    bulk.fill_gaussian(got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], got[i]) << "n=" << n << " i=" << i;
    }
    // End state identical: the next draws agree.
    EXPECT_EQ(scalar.gaussian(), bulk.gaussian()) << "n=" << n;
    EXPECT_EQ(scalar.next_u64(), bulk.next_u64()) << "n=" << n;
  }
}

TEST(RngFill, SpareCarriesAcrossCalls) {
  // Fills of any length, mixed with scalar draws, continue the one sequence
  // a scalar loop draws.
  Rng scalar{31337};
  Rng bulk{31337};
  std::vector<double> want(10);
  for (auto& v : want) v = scalar.gaussian();
  std::vector<double> got(10);
  bulk.fill_gaussian(got.data(), 3);
  bulk.fill_gaussian(got.data() + 3, 1);
  bulk.fill_gaussian(got.data() + 4, 5);
  got[9] = bulk.gaussian();
  for (std::size_t i = 0; i < 10; ++i) ASSERT_EQ(want[i], got[i]) << i;
}

TEST(RngFill, SpareFromScalarDrawSeedsTheFill) {
  // A fill after a scalar gaussian() continues where that draw left off.
  Rng scalar{5};
  Rng bulk{5};
  (void)scalar.gaussian();
  (void)bulk.gaussian();
  std::vector<double> want(4);
  for (auto& v : want) v = scalar.gaussian();
  std::vector<double> got(4);
  bulk.fill_gaussian(got.data(), 4);
  for (std::size_t i = 0; i < 4; ++i) ASSERT_EQ(want[i], got[i]) << i;
}

TEST(RngFill, MeanSigmaMatchesScalarAffineDraws) {
  Rng scalar{123456};
  Rng bulk{123456};
  const double mean = 1.5e-3;
  const double sigma = 30e-6;
  std::vector<double> want(257);
  for (auto& v : want) v = scalar.gaussian(mean, sigma);
  std::vector<double> got(257);
  bulk.fill_gaussian(got.data(), 257, mean, sigma);
  for (std::size_t i = 0; i < 257; ++i) ASSERT_EQ(want[i], got[i]) << i;
  EXPECT_EQ(scalar.gaussian(), bulk.gaussian());
}

TEST(Rng, RestoreRejectsAllZeroState) {
  // xoshiro's all-zero state is a fixed point (every draw is 0 forever), so
  // a blob holding it is corrupt, never a stream position.
  CheckpointWriter out;
  out.section("rng");
  for (int w = 0; w < 4; ++w) out.u64(0);
  const auto blob = out.finish(1);
  CheckpointReader in{blob};
  Rng rng{1};
  EXPECT_THROW(rng.restore(in), CheckpointError);
  // One nonzero word is a valid position.
  CheckpointWriter ok;
  ok.section("rng");
  for (std::uint64_t w = 0; w < 4; ++w) ok.u64(w == 3 ? 1 : 0);
  CheckpointReader in_ok{ok.finish(1)};
  EXPECT_NO_THROW(rng.restore(in_ok));
}

// The 256-layer ziggurat (src/common/ziggurat.hpp) at fixed seeds: its
// tables, its moments, its whole distribution and its tail.

double phi(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

std::vector<double> normals(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<double> v(n);
  rng.fill_gaussian(v.data(), n);
  return v;
}

TEST(Ziggurat, TablesHaveEqualAreaLayers) {
  using namespace ziggurat;
  const double r = kX[1];
  const double v = r * kF[1] + std::sqrt(std::numbers::pi / 2.0) *
                                   std::erfc(r / std::numbers::sqrt2);
  EXPECT_NEAR(kX[0] * kF[1], v, 1e-15);
  for (std::size_t i = 1; i < 256; ++i) {
    EXPECT_NEAR(kX[i] * (kF[i + 1] - kF[i]), v, 1e-15) << "layer " << i;
    EXPECT_NEAR(kF[i], std::exp(-0.5 * kX[i] * kX[i]), 1e-15) << "layer " << i;
    EXPECT_GT(kX[i], kX[i + 1]) << "layer " << i;
  }
  EXPECT_EQ(kX[256], 0.0);
  EXPECT_EQ(kF[256], 1.0);
}

TEST(Ziggurat, MeanAndVariance) {
  const std::size_t n = std::size_t{1} << 22;
  const auto v = normals(101, n);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : v) {
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  // 5σ of the estimators: σ(mean) = 1/√n, σ(var) ≈ √(2/n).
  EXPECT_NEAR(mean, 0.0, 5.0 / std::sqrt(static_cast<double>(n)));
  EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / n));
}

TEST(Ziggurat, ChiSquaredOverBinnedPhi) {
  // Φ(x) of a standard normal is uniform: 200 equal-probability bins.
  constexpr std::size_t kBins = 200;
  const std::size_t n = 1000000;
  std::vector<double> counts(kBins, 0.0);
  for (const double x : normals(202, n)) {
    const auto bin = static_cast<std::size_t>(phi(x) * kBins);
    counts[std::min(bin, kBins - 1)] += 1.0;
  }
  const double expected = static_cast<double>(n) / kBins;
  double chi2 = 0.0;
  for (const double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // 199 dof: mean 199, σ ≈ 19.9; accept ±5σ.
  EXPECT_GT(chi2, 199.0 - 100.0);
  EXPECT_LT(chi2, 199.0 + 100.0);
}

TEST(Ziggurat, TailMassBeyondRAndFiveSigma) {
  // Beyond R = 3.654 every draw comes from the exponential-rejection tail;
  // beyond 5σ only from its far end.
  const std::size_t n = std::size_t{1} << 24;
  const double r = ziggurat::kX[1];
  std::size_t beyond_r = 0;
  std::size_t beyond_5 = 0;
  std::size_t negative_r = 0;
  for (const double x : normals(303, n)) {
    beyond_r += std::abs(x) > r;
    negative_r += x < -r;
    beyond_5 += std::abs(x) > 5.0;
  }
  const double p_r = std::erfc(r / std::numbers::sqrt2);    // 2.58e-4
  const double p_5 = std::erfc(5.0 / std::numbers::sqrt2);  // 5.73e-7
  const double mean_r = p_r * n;
  EXPECT_NEAR(static_cast<double>(beyond_r), mean_r, 5.0 * std::sqrt(mean_r));
  EXPECT_NEAR(static_cast<double>(negative_r), 0.5 * mean_r,
              5.0 * std::sqrt(0.5 * mean_r));
  // Poisson with mean ≈ 9.6: [1, 25] holds with probability > 0.9999.
  EXPECT_GE(beyond_5, 1u) << "expected ≈ " << p_5 * n;
  EXPECT_LE(beyond_5, 25u) << "expected ≈ " << p_5 * n;
}

// Chi-squared sanity check on uniform byte distribution.
TEST(Rng, UniformBytesChiSquared) {
  Rng rng{2024};
  std::vector<int> counts(256, 0);
  const int n = 256 * 1000;
  for (int i = 0; i < n / 8; ++i) {
    std::uint64_t v = rng.next_u64();
    for (int k = 0; k < 8; ++k) {
      counts[static_cast<std::size_t>(v & 0xff)]++;
      v >>= 8;
    }
  }
  const double expected = n / 256.0;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, σ ≈ 22.6; accept ±5σ.
  EXPECT_GT(chi2, 255.0 - 113.0);
  EXPECT_LT(chi2, 255.0 + 113.0);
}

}  // namespace
}  // namespace tono
