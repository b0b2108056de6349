// Tests for cuff-anchored two-point calibration.
#include "src/core/calibration.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/bio/pulse_generator.hpp"

namespace tono::core {
namespace {

TEST(Calibration, IdentityByDefault) {
  TwoPointCalibration cal;
  EXPECT_TRUE(cal.is_identity());
  EXPECT_DOUBLE_EQ(cal.to_mmhg(0.123), 0.123);
}

TEST(Calibration, ExactAtAnchors) {
  TwoPointCalibration cal{0.8, 0.2, 120.0, 80.0};
  EXPECT_NEAR(cal.to_mmhg(0.8), 120.0, 1e-12);
  EXPECT_NEAR(cal.to_mmhg(0.2), 80.0, 1e-12);
}

TEST(Calibration, LinearBetweenAnchors) {
  TwoPointCalibration cal{1.0, 0.0, 120.0, 80.0};
  EXPECT_NEAR(cal.to_mmhg(0.5), 100.0, 1e-12);
}

TEST(Calibration, InverseRoundTrip) {
  TwoPointCalibration cal{0.37, -0.12, 135.0, 85.0};
  for (double v = -0.5; v < 0.6; v += 0.1) {
    EXPECT_NEAR(cal.to_value(cal.to_mmhg(v)), v, 1e-10);
  }
}

TEST(Calibration, GainOffsetAccessors) {
  TwoPointCalibration cal{1.0, 0.0, 120.0, 80.0};
  EXPECT_NEAR(cal.gain_mmhg_per_unit(), 40.0, 1e-12);
  EXPECT_NEAR(cal.offset_mmhg(), 80.0, 1e-12);
}

TEST(Calibration, NegativeGainSupported) {
  // If the transducer polarity were inverted, calibration still works.
  TwoPointCalibration cal{-0.3, 0.3, 120.0, 80.0};
  EXPECT_NEAR(cal.to_mmhg(-0.3), 120.0, 1e-12);
  EXPECT_LT(cal.gain_mmhg_per_unit(), 0.0);
}

TEST(Calibration, ApplyMapsWholeRecord) {
  TwoPointCalibration cal{1.0, 0.0, 120.0, 80.0};
  const std::vector<double> values{0.0, 0.5, 1.0};
  const auto mmhg = cal.apply(values);
  ASSERT_EQ(mmhg.size(), 3u);
  EXPECT_NEAR(mmhg[0], 80.0, 1e-12);
  EXPECT_NEAR(mmhg[1], 100.0, 1e-12);
  EXPECT_NEAR(mmhg[2], 120.0, 1e-12);
}

TEST(Calibration, RejectsDegenerateAnchors) {
  EXPECT_THROW((TwoPointCalibration{0.5, 0.5, 120.0, 80.0}), std::invalid_argument);
  EXPECT_THROW((TwoPointCalibration{0.8, 0.2, 80.0, 80.0}), std::invalid_argument);
  EXPECT_THROW((TwoPointCalibration{0.8, 0.2, 80.0, 120.0}), std::invalid_argument);
}

TEST(Calibration, FromWaveformRecoversPressures) {
  // Scale a synthetic arterial waveform into "ADC units", calibrate with the
  // true systolic/diastolic, and check the round trip.
  bio::PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  bio::ArterialPulseGenerator gen{cfg};
  const auto wave = gen.generate(1000.0, 20000);
  std::vector<double> adc(wave.size());
  const double true_gain = 2.5e-3;
  const double true_offset = -0.21;
  for (std::size_t i = 0; i < wave.size(); ++i) adc[i] = wave[i] * true_gain + true_offset;

  const auto cal = TwoPointCalibration::from_beats(
      BeatDetector{}.analyze(adc), gen.mean_systolic_mmhg(), gen.mean_diastolic_mmhg());
  // Recovered affine map inverts the synthetic one.
  EXPECT_NEAR(cal.gain_mmhg_per_unit(), 1.0 / true_gain, 0.1 / true_gain);
  for (std::size_t i = 0; i < adc.size(); i += 997) {
    EXPECT_NEAR(cal.to_mmhg(adc[i]), wave[i], 6.0);
  }
}

TEST(Calibration, FromWaveformThrowsWithoutBeats) {
  std::vector<double> flat(5000, 0.1);
  EXPECT_THROW(
      (void)TwoPointCalibration::from_beats(BeatDetector{}.analyze(flat), 120.0, 80.0),
      std::runtime_error);
}

}  // namespace
}  // namespace tono::core
