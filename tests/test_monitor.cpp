// Tests for the end-to-end blood-pressure monitoring session (§3.2 / Fig. 9).
#include "src/core/monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace tono::core {
namespace {

ScanConfig quick_scan() {
  ScanConfig s;
  s.dwell_samples = 1200;
  s.settle_samples = 64;
  return s;
}

TEST(Monitor, FullSessionProducesCalibratedWaveform) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.localize(quick_scan());
  const auto cuff = mon.calibrate(12.0);
  ASSERT_TRUE(cuff.valid);
  const auto rep = mon.monitor(20.0);
  ASSERT_EQ(rep.waveform_mmhg.size(), 20000u);
  ASSERT_GE(rep.beats.beats.size(), 18u);
  // The calibrated waveform sits in the physiological band.
  for (double p : rep.waveform_mmhg) {
    EXPECT_GT(p, 40.0);
    EXPECT_LT(p, 180.0);
  }
}

TEST(Monitor, ScalarAcquireEqualsBlockAcquireOnTheMonitorField) {
  // The contact field holds physiology, artefacts, scenario and die
  // temperature for a whole output frame, so evaluating it every clock
  // (acquire) or once per frame (acquire_block) gives identical codes.
  WristModel wrist;
  wrist.enable_artifacts = true;
  wrist.enable_thermal_drift = true;
  wrist.thermal_tau_s = 2.0;
  wrist.scenario =
      std::make_shared<bio::ScenarioProfile>(bio::ScenarioProfile::exercise(4.0));
  BloodPressureMonitor scalar{ChipConfig::paper_chip(), wrist};
  BloodPressureMonitor block{ChipConfig::paper_chip(), wrist};
  (void)scalar.localize(quick_scan());
  (void)block.localize(quick_scan());
  const auto a = scalar.pipeline().acquire(scalar.contact_field(), 3000);
  const auto b = block.pipeline().acquire_block(block.contact_field(), 3000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].code, b[i].code) << "sample " << i;
    ASSERT_EQ(a[i].value, b[i].value) << "sample " << i;
  }
  EXPECT_EQ(scalar.pipeline().clocks(), block.pipeline().clocks());
  EXPECT_EQ(scalar.pipeline().temperature_k(), block.pipeline().temperature_k());
  EXPECT_EQ(scalar.pulse().beats_completed(), block.pulse().beats_completed());
}

TEST(Monitor, EstimatesTrackGroundTruth) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  const auto rep = mon.monitor(30.0);
  // Accuracy is bounded by the cuff (AAMI-style ±5 mmHg mean error).
  EXPECT_LT(std::abs(rep.systolic_error_mmhg), 6.0);
  EXPECT_LT(std::abs(rep.diastolic_error_mmhg), 6.0);
  EXPECT_LT(std::abs(rep.map_error_mmhg), 6.0);
  EXPECT_NEAR(rep.beats.heart_rate_bpm, rep.truth_heart_rate_bpm, 6.0);
}

TEST(Monitor, ContinuousBeyondCuffCapability) {
  // §1: the cuff manages ~one reading per minute; the tactile sensor streams
  // every beat. Verify the session yields dozens of per-beat readings in the
  // time a single cuff measurement would take.
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.localize(quick_scan());
  const auto cuff = mon.calibrate(12.0);
  const auto rep = mon.monitor(cuff.duration_s);  // one cuff-deflation's time
  EXPECT_GE(rep.beats.beats.size(), 40u);
}

TEST(Monitor, ReportIsOneAnalysisOfTheWindow) {
  // The quality grade and the reported beats come from one analysis of the
  // calibrated window; the beats are shifted to stream time, bit for bit.
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.calibrate(10.0);
  const auto rep = mon.monitor(12.0);
  const double fs = mon.pipeline().output_rate_hz();
  const auto fresh = BeatDetector{{.sample_rate_hz = fs}}.analyze(rep.waveform_mmhg);
  const auto quality = SignalQualityAssessor{}.assess(rep.waveform_mmhg, fresh, fs);
  EXPECT_EQ(rep.quality.sqi, quality.sqi);
  EXPECT_EQ(rep.quality.shape_consistency, quality.shape_consistency);
  EXPECT_EQ(rep.quality.beat_count, quality.beat_count);
  EXPECT_EQ(rep.beats.heart_rate_bpm, fresh.heart_rate_bpm);
  EXPECT_EQ(rep.beats.interval_stddev_s, fresh.interval_stddev_s);
  EXPECT_EQ(rep.beats.mean_systolic, fresh.mean_systolic);
  ASSERT_EQ(rep.beats.beats.size(), fresh.beats.size());
  ASSERT_GE(fresh.beats.size(), 10u);
  const double t0 = rep.time_s.front();
  EXPECT_GT(t0, 9.0);  // stream time: after the 10 s calibration window
  for (std::size_t i = 0; i < fresh.beats.size(); ++i) {
    EXPECT_EQ(rep.beats.beats[i].upstroke_s, t0 + fresh.beats[i].upstroke_s);
    EXPECT_EQ(rep.beats.beats[i].foot_s, t0 + fresh.beats[i].foot_s);
    EXPECT_EQ(rep.beats.beats[i].peak_s, t0 + fresh.beats[i].peak_s);
    EXPECT_EQ(rep.beats.beats[i].systolic_value, fresh.beats[i].systolic_value);
  }
}

TEST(Monitor, ReportIncludesQualityAndPwa) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.calibrate(10.0);
  const auto rep = mon.monitor(20.0);
  EXPECT_TRUE(rep.quality.usable);
  EXPECT_GT(rep.quality.sqi, 0.5);
  EXPECT_EQ(rep.pulse_wave.per_beat.size(), rep.beats.beats.size());
  EXPECT_GT(rep.pulse_wave.mean_dpdt_max, 100.0);
  EXPECT_NEAR(rep.pulse_wave.mean_pulse_pressure,
              rep.beats.mean_systolic - rep.beats.mean_diastolic, 1.0);
}

TEST(Monitor, CalibrationGainPositiveAndLarge) {
  // Raw values are a small fraction of full scale → mmHg/unit gain ≫ 1.
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  EXPECT_GT(mon.calibration().gain_mmhg_per_unit(), 100.0);
}

TEST(Monitor, TimeVectorMatchesOutputRate) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.calibrate(10.0);
  const auto rep = mon.monitor(5.0);
  ASSERT_EQ(rep.time_s.size(), rep.waveform_mmhg.size());
  EXPECT_NEAR(rep.time_s[1] - rep.time_s[0], 1e-3, 1e-9);
  EXPECT_GT(rep.time_s.front(), 9.9);  // continues after the calibration window
}

TEST(Monitor, PlacementOffsetWeakensButDoesNotBreak) {
  WristModel offset;
  offset.placement_offset_m = 1.0e-3;  // 1 mm off the artery
  BloodPressureMonitor mon{ChipConfig::paper_chip(), offset};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  const auto rep = mon.monitor(20.0);
  // Calibration absorbs the gain loss; errors stay bounded.
  EXPECT_LT(std::abs(rep.map_error_mmhg), 8.0);
}

TEST(Monitor, ArtifactsDegradeGracefully) {
  WristModel noisy;
  noisy.enable_artifacts = true;
  noisy.artifacts.spike_rate_hz = 0.02;
  noisy.artifacts.wander_mmhg_per_sqrt_s = 0.2;
  BloodPressureMonitor mon{ChipConfig::paper_chip(), noisy};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  const auto rep = mon.monitor(30.0);
  ASSERT_GE(rep.beats.beats.size(), 20u);
  EXPECT_LT(std::abs(rep.map_error_mmhg), 12.0);
}

TEST(Monitor, HypertensivePatient) {
  WristModel hyper;
  hyper.pulse.systolic_mmhg = 160.0;
  hyper.pulse.diastolic_mmhg = 100.0;
  BloodPressureMonitor mon{ChipConfig::paper_chip(), hyper};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  const auto rep = mon.monitor(20.0);
  EXPECT_NEAR(rep.beats.mean_systolic, 160.0, 10.0);
  EXPECT_NEAR(rep.beats.mean_diastolic, 100.0, 10.0);
}

TEST(Monitor, MonitorWithoutCalibrationStaysRaw) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  EXPECT_TRUE(mon.calibration().is_identity());
  const auto rep = mon.monitor(5.0);
  // Uncalibrated values are normalized ADC output, far from mmHg scale.
  for (double v : rep.waveform_mmhg) EXPECT_LT(std::abs(v), 1.0);
}

TEST(Monitor, CuffTargetAveragesTheLastBeatsWithoutDraining) {
  bio::PulseConfig config;
  config.systolic_mmhg = 131.0;
  config.diastolic_mmhg = 77.0;
  bio::ArterialPulseGenerator pulse{config};
  // Setpoints until five beats are on record.
  auto target = cuff_target(pulse, config);
  EXPECT_EQ(target.systolic_mmhg, 131.0);
  EXPECT_EQ(target.diastolic_mmhg, 77.0);
  (void)pulse.generate(1000.0, 40000);  // ~40 s: well past 20 beats
  const auto& truth = pulse.beat_truth();
  ASSERT_GT(truth.size(), 20u);
  double sys = 0.0, dia = 0.0;
  for (std::size_t i = truth.size() - 20; i < truth.size(); ++i) {
    sys += truth[i].systolic_mmhg;
    dia += truth[i].diastolic_mmhg;
  }
  const std::size_t logged = truth.size();
  target = cuff_target(pulse, config);
  EXPECT_DOUBLE_EQ(target.systolic_mmhg, sys / 20.0);
  EXPECT_DOUBLE_EQ(target.diastolic_mmhg, dia / 20.0);
  EXPECT_EQ(pulse.beat_truth().size(), logged) << "the truth log must not drain";
}

}  // namespace
}  // namespace tono::core
