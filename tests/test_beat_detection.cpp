// Tests for beat detection and per-beat feature extraction.
#include "src/core/beat_detection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/common/rng.hpp"

namespace tono::core {
namespace {

std::vector<double> clean_pulse(double duration_s, double hr_bpm = 72.0,
                                double fs = 1000.0, std::uint64_t seed = 7) {
  bio::PulseConfig cfg;
  cfg.heart_rate_bpm = hr_bpm;
  cfg.seed = seed;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  bio::ArterialPulseGenerator gen{cfg};
  return gen.generate(fs, static_cast<std::size_t>(duration_s * fs));
}

TEST(BeatDetector, FindsAllBeatsInCleanSignal) {
  const double duration = 30.0;
  const auto wave = clean_pulse(duration);
  BeatDetector det;
  const auto a = det.analyze(wave);
  const double expected = duration * 72.0 / 60.0;
  EXPECT_NEAR(static_cast<double>(a.beats.size()), expected, 3.0);
}

TEST(BeatDetector, HeartRateAccurate) {
  const auto wave = clean_pulse(40.0, 60.0);
  BeatDetector det;
  const auto a = det.analyze(wave);
  EXPECT_NEAR(a.heart_rate_bpm, 60.0, 3.0);
}

TEST(BeatDetector, SystolicDiastolicValuesAccurate) {
  const auto wave = clean_pulse(30.0);
  BeatDetector det;
  const auto a = det.analyze(wave);
  ASSERT_GE(a.beats.size(), 10u);
  EXPECT_NEAR(a.mean_systolic, 120.0, 5.0);
  EXPECT_NEAR(a.mean_diastolic, 80.0, 5.0);
  EXPECT_GT(a.mean_map, a.mean_diastolic);
  EXPECT_LT(a.mean_map, a.mean_systolic);
}

TEST(BeatDetector, BeatTimesOrdered) {
  const auto wave = clean_pulse(20.0);
  const auto a = BeatDetector{}.analyze(wave);
  for (std::size_t i = 1; i < a.beats.size(); ++i) {
    EXPECT_GT(a.beats[i].upstroke_s, a.beats[i - 1].upstroke_s);
  }
  for (const auto& b : a.beats) {
    EXPECT_LE(b.foot_s, b.upstroke_s);
    EXPECT_GE(b.peak_s, b.upstroke_s);
    EXPECT_GT(b.systolic_value, b.diastolic_value);
  }
}

TEST(BeatDetector, T0OffsetsTimes) {
  // Analysis is window-relative: the first beat sits past the 1 s filter
  // warm-up, and moving a beat to stream time — ten hours in, too — adds
  // the window start exactly, leaving its values alone.
  const auto wave = clean_pulse(15.0);
  const auto a = BeatDetector{}.analyze(wave);
  ASSERT_FALSE(a.beats.empty());
  EXPECT_GT(a.beats.front().upstroke_s, 1.0);
  for (const double t0 : {0.0, 100.0, 36000.0}) {
    for (const auto& b : a.beats) {
      const Beat s = b.shifted(t0);
      EXPECT_EQ(s.upstroke_s, t0 + b.upstroke_s);
      EXPECT_EQ(s.foot_s, t0 + b.foot_s);
      EXPECT_EQ(s.peak_s, t0 + b.peak_s);
      EXPECT_EQ(s.systolic_value, b.systolic_value);
      EXPECT_EQ(s.diastolic_value, b.diastolic_value);
      EXPECT_EQ(s.mean_value, b.mean_value);
    }
  }
}

TEST(BeatDetector, RobustToModerateNoise) {
  auto wave = clean_pulse(30.0);
  tono::Rng rng{12};
  for (auto& v : wave) v += rng.gaussian(0.0, 1.0);  // 1 mmHg rms noise
  const auto a = BeatDetector{}.analyze(wave);
  EXPECT_NEAR(static_cast<double>(a.beats.size()), 36.0, 5.0);
  EXPECT_NEAR(a.mean_systolic, 120.0, 6.0);
}

TEST(BeatDetector, WorksOnUncalibratedScale) {
  // Affine-transformed waveform (raw ADC units) gives the same beat count.
  auto wave = clean_pulse(20.0);
  std::vector<double> raw(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) raw[i] = wave[i] * 3.1e-4 - 0.02;
  const auto a = BeatDetector{}.analyze(wave);
  const auto b = BeatDetector{}.analyze(raw);
  // Scale invariance up to floating-point ties on marginal upstrokes.
  EXPECT_NEAR(static_cast<double>(a.beats.size()),
              static_cast<double>(b.beats.size()), 1.0);
}

TEST(BeatDetector, IntervalStddevReflectsHrv) {
  bio::PulseConfig steady;
  steady.hrv_jitter = 0.0;
  steady.mayer_depth = 0.0;
  steady.rsa_depth = 0.0;
  steady.drift_mmhg_per_sqrt_s = 0.0;
  bio::PulseConfig variable = steady;
  variable.hrv_jitter = 0.06;
  auto wave_of = [](const bio::PulseConfig& cfg) {
    bio::ArterialPulseGenerator gen{cfg};
    return gen.generate(1000.0, 40000);
  };
  const auto a_steady = BeatDetector{}.analyze(wave_of(steady));
  const auto a_var = BeatDetector{}.analyze(wave_of(variable));
  EXPECT_GT(a_var.interval_stddev_s, a_steady.interval_stddev_s);
}

TEST(BeatDetector, TooShortRecordGivesNoBeats) {
  std::vector<double> tiny(100, 0.0);
  const auto a = BeatDetector{}.analyze(tiny);
  EXPECT_TRUE(a.beats.empty());
}

TEST(BeatDetector, FlatSignalGivesNoBeats) {
  std::vector<double> flat(5000, 90.0);
  const auto a = BeatDetector{}.analyze(flat);
  EXPECT_TRUE(a.beats.empty());
}

TEST(BeatDetector, RejectsBadConfig) {
  BeatDetectorConfig bad;
  bad.sample_rate_hz = 0.0;
  EXPECT_THROW((BeatDetector{bad}), std::invalid_argument);
  BeatDetectorConfig bad2;
  bad2.lowpass_hz = 0.3;  // below highpass
  EXPECT_THROW((BeatDetector{bad2}), std::invalid_argument);
  BeatDetectorConfig bad3;
  bad3.threshold_fraction = 1.5;
  EXPECT_THROW((BeatDetector{bad3}), std::invalid_argument);
}

// Property: detection works across the clinical heart-rate range.
class HrSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(HrSweepTest, CountsBeats) {
  const double hr = GetParam();
  const double duration = 30.0;
  const auto wave = clean_pulse(duration, hr);
  const auto a = BeatDetector{}.analyze(wave);
  const double expected = duration * hr / 60.0;
  EXPECT_NEAR(static_cast<double>(a.beats.size()), expected, 0.12 * expected + 2.0)
      << "HR " << hr;
  EXPECT_NEAR(a.heart_rate_bpm, hr, 0.08 * hr + 2.0);
}

INSTANTIATE_TEST_SUITE_P(HeartRates, HrSweepTest,
                         ::testing::Values(50.0, 60.0, 72.0, 90.0, 110.0, 140.0));

}  // namespace
}  // namespace tono::core
