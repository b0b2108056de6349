// Cross-module randomized property tests: invariants that must hold for
// arbitrary (seeded) inputs, connecting modules that unit tests cover only
// in isolation.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "src/analog/modulator.hpp"
#include "src/common/rng.hpp"
#include "src/core/calibration.hpp"
#include "src/core/telemetry.hpp"
#include "src/dsp/fft.hpp"
#include "src/dsp/fir_design.hpp"
#include "src/dsp/fir_filter.hpp"
#include "src/mems/plate.hpp"

namespace tono {
namespace {

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertyTest, FirConvolutionTheorem) {
  // Steady-state FIR response to a tone equals |H(f)| × input amplitude.
  Rng rng{GetParam()};
  const double fs = 4000.0;
  const auto h = dsp::design_lowpass(32, rng.uniform(200.0, 1500.0), fs);
  const std::size_t n = 4000;
  const double f = fs * std::floor(rng.uniform(5.0, 400.0)) / n;
  const double amp = rng.uniform(0.1, 2.0);
  dsp::FirFilter fir{h};
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = amp * std::sin(2.0 * std::numbers::pi * f * i / fs);
    if (auto v = fir.push(x)) y.push_back(*v);
  }
  // Measure on the second half (past the transient) over whole cycles.
  std::vector<double> tail(y.begin() + n / 2, y.end());
  // Single-bin projection onto the tone: 2|X(f)|/N reads a sine's amplitude.
  double re = 0.0;
  double im = 0.0;
  for (std::size_t k = 0; k < tail.size(); ++k) {
    const double phase = 2.0 * std::numbers::pi * f * k / fs;
    re += tail[k] * std::cos(phase);
    im += tail[k] * std::sin(phase);
  }
  const double measured = 2.0 * std::hypot(re, im) / tail.size();
  const double expected = amp * dsp::fir_magnitude_at(h, f, fs);
  EXPECT_NEAR(measured, expected, 0.02 * amp + 1e-6);
}

TEST_P(PropertyTest, CalibrationAffineRoundTrip) {
  Rng rng{GetParam() ^ 0xABCD};
  const double v_sys = rng.uniform(0.1, 0.9);
  const double v_dia = v_sys - rng.uniform(0.05, 0.5);
  const double dia = rng.uniform(50.0, 100.0);
  const double sys = dia + rng.uniform(20.0, 80.0);
  const core::TwoPointCalibration cal{v_sys, v_dia, sys, dia};
  for (int i = 0; i < 20; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    EXPECT_NEAR(cal.to_value(cal.to_mmhg(v)), v, 1e-9);
  }
  EXPECT_NEAR(cal.to_mmhg(v_sys), sys, 1e-9);
  EXPECT_NEAR(cal.to_mmhg(v_dia), dia, 1e-9);
}

TEST_P(PropertyTest, PlateInverseAndMonotone) {
  Rng rng{GetParam() ^ 0x1234};
  mems::PlateGeometry g;
  g.side_length_m = rng.uniform(50e-6, 300e-6);
  const mems::SquarePlate plate{g};
  double prev_w = -1e9;
  for (double p = 100.0; p < 2e5; p *= 2.3) {
    const double w = plate.center_deflection(p);
    EXPECT_GT(w, prev_w);
    prev_w = w;
    EXPECT_NEAR(plate.pressure_for_deflection(w), p, 1e-6 * p);
  }
}

TEST_P(PropertyTest, TelemetryRandomPayloadRoundTrip) {
  Rng rng{GetParam() ^ 0x5555};
  core::FrameEncoder enc;
  core::FrameDecoder dec;
  for (int frame = 0; frame < 10; ++frame) {
    const std::size_t n = 1 + rng.uniform_below(core::kMaxSamplesPerFrame);
    std::vector<std::int16_t> samples(n);
    for (auto& s : samples) {
      s = static_cast<std::int16_t>(static_cast<long>(rng.uniform_below(4096)) - 2048);
    }
    const auto frames = dec.push(enc.encode(samples));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].samples, samples);
  }
  EXPECT_EQ(dec.stats().crc_errors, 0u);
}

TEST_P(PropertyTest, ModulatorTimeInvariance) {
  // Ideal (noise-free) loop: prepending silence delays the output bits.
  analog::ModulatorConfig cfg;
  cfg.enable_ktc_noise = false;
  cfg.enable_settling = false;
  cfg.clock_jitter_rms_s = 0.0;
  cfg.ref_noise_vrms = 0.0;
  cfg.cap_mismatch_sigma = 0.0;
  cfg.opamp1.noise_vrms = 0.0;
  cfg.opamp2.noise_vrms = 0.0;
  cfg.comparator.noise_vrms = 0.0;
  cfg.comparator.metastable_band_v = 0.0;

  Rng rng{GetParam() ^ 0x9999};
  std::vector<double> input(3000);
  for (auto& v : input) v = rng.uniform(-0.5, 0.5) * 2.5;

  analog::DeltaSigmaModulator a{cfg};
  std::vector<int> direct;
  for (double v : input) direct.push_back(a.step_voltage(v));

  analog::DeltaSigmaModulator b{cfg};
  const int kDelay = 64;
  std::vector<int> delayed;
  // The loop must be idling identically before the signal starts: drive the
  // delay period with zeros and compare the *difference* bitstreams. For a
  // strictly deterministic loop, y_b[n + kDelay] == y_a[n] requires the
  // internal state at signal start to match, which zero-input idling of the
  // same length guarantees only if the idle pattern is periodic with the
  // delay. Instead of asserting bit equality, check that the decoded DC of
  // both runs agrees (time-invariance at the signal level).
  for (int i = 0; i < kDelay; ++i) (void)b.step_voltage(0.0);
  for (double v : input) delayed.push_back(b.step_voltage(v));
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (std::size_t i = 1000; i < direct.size(); ++i) {
    mean_a += direct[i];
    mean_b += delayed[i];
  }
  EXPECT_NEAR(mean_a / 2000.0, mean_b / 2000.0, 0.02);
}

TEST_P(PropertyTest, FftShiftTheoremMagnitude) {
  // |FFT| is invariant under circular shift.
  Rng rng{GetParam() ^ 0x7777};
  const std::size_t n = 256;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  std::vector<double> shifted(n);
  const std::size_t k = 1 + rng.uniform_below(n - 1);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = x[(i + k) % n];
  const auto ma = dsp::magnitude_spectrum(x);
  const auto mb = dsp::magnitude_spectrum(shifted);
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_NEAR(ma[i], mb[i], 1e-9 * (1.0 + ma[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace tono
