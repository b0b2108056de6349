// Tests for the 1/f noise generator.
#include "src/common/pink_noise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/statistics.hpp"
#include "src/dsp/noise_analysis.hpp"

namespace tono {
namespace {

std::vector<double> generate(std::size_t n, std::uint64_t seed = 5,
                             std::size_t octaves = 16) {
  PinkNoise pink{Rng{seed}, octaves};
  std::vector<double> x(n);
  for (auto& v : x) v = pink.next();
  return x;
}

TEST(PinkNoise, ZeroMeanUnitVariance) {
  // One stream's sample mean is itself noisy: row k < 15 holds each value
  // for 2^(k+1) samples and the top row for 2^15, so over N = 2^18 samples
  // Var(mean) ≈ (1/16)·(Σ_k 2^(k+1) + 2^15)/N ≈ 0.023, σ ≈ 0.15. The mean
  // over 32 independent streams has σ ≈ 0.027, so 0.1 is a 3.7σ bound.
  constexpr std::uint64_t kStreams = 32;
  double mean_of_means = 0.0;
  for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
    mean_of_means += mean(generate(1 << 18, seed));
  }
  mean_of_means /= static_cast<double>(kStreams);
  EXPECT_NEAR(mean_of_means, 0.0, 0.1);
  EXPECT_NEAR(stddev(generate(1 << 18)), 1.0, 0.15);
}

TEST(PinkNoise, PsdSlopeIsMinusTenDbPerDecade) {
  const auto x = generate(1 << 18, 9);
  const double fs = 1000.0;
  dsp::WelchConfig wc;
  wc.segment_length = 4096;
  const auto psd = dsp::welch_psd(x, fs, wc);
  auto band_mean = [&](double f_lo, double f_hi) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t k = 1; k < psd.freq_hz.size(); ++k) {
      if (psd.freq_hz[k] >= f_lo && psd.freq_hz[k] <= f_hi) {
        acc += psd.psd[k];
        ++n;
      }
    }
    return acc / static_cast<double>(n);
  };
  // Compare decades 1-2 Hz vs 10-20 Hz vs 100-200 Hz.
  const double p1 = band_mean(1.0, 2.0);
  const double p2 = band_mean(10.0, 20.0);
  const double p3 = band_mean(100.0, 200.0);
  EXPECT_NEAR(10.0 * std::log10(p1 / p2), 10.0, 3.0);
  EXPECT_NEAR(10.0 * std::log10(p2 / p3), 10.0, 3.0);
}

TEST(PinkNoise, DeterministicPerSeed) {
  PinkNoise a{Rng{3}};
  PinkNoise b{Rng{3}};
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(PinkNoise, DifferentSeedsDiffer) {
  PinkNoise a{Rng{3}};
  PinkNoise b{Rng{4}};
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (a.next() != b.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(PinkNoise, RejectsBadOctaves) {
  EXPECT_THROW((PinkNoise{Rng{1}, 1}), std::invalid_argument);
  EXPECT_THROW((PinkNoise{Rng{1}, 30}), std::invalid_argument);
}

TEST(PinkNoise, FillNextBitIdenticalToScalarNext) {
  for (std::size_t n : {1u, 2u, 127u, 128u, 129u, 300u}) {
    PinkNoise scalar{Rng{91}, 20};
    PinkNoise bulk{Rng{91}, 20};
    std::vector<double> want(n);
    for (auto& v : want) v = scalar.next();
    std::vector<double> got(n);
    bulk.fill_next(got.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(want[i], got[i]) << "n=" << n << " i=" << i;
    // Generator state (row table, counter, rng incl. spare) identical after.
    for (int i = 0; i < 50; ++i) ASSERT_EQ(scalar.next(), bulk.next());
  }
}

TEST(PinkNoise, FillNextInterleavesWithScalarNext) {
  PinkNoise scalar{Rng{17}, 16};
  PinkNoise mixed{Rng{17}, 16};
  std::vector<double> want(40);
  for (auto& v : want) v = scalar.next();
  std::vector<double> got(40);
  mixed.fill_next(got.data(), 13);            // odd count: rng spare cached
  for (int i = 13; i < 20; ++i) got[i] = mixed.next();
  mixed.fill_next(got.data() + 20, 20);
  for (std::size_t i = 0; i < 40; ++i) ASSERT_EQ(want[i], got[i]) << i;
}

TEST(PinkNoise, LowFrequencyPowerDominates) {
  const auto x = generate(1 << 16, 21);
  // The running mean over long blocks wanders far more than white noise's
  // would: block-mean variance stays high (hallmark of 1/f).
  const std::size_t block = 4096;
  std::vector<double> block_means;
  for (std::size_t i = 0; i + block <= x.size(); i += block) {
    block_means.push_back(
        mean(std::span<const double>{x.data() + i, block}));
  }
  // White noise block means would have variance 1/4096 ≈ 2.4e-4; pink stays
  // orders of magnitude above.
  EXPECT_GT(variance(block_means), 20.0 / 4096.0);
}

}  // namespace
}  // namespace tono
