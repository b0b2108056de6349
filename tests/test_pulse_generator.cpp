// Tests for the arterial pulse generator with physiological variability.
#include "src/bio/pulse_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/common/statistics.hpp"

namespace tono::bio {
namespace {

TEST(PulseGenerator, PressureWithinPhysiologicalBand) {
  ArterialPulseGenerator gen{PulseConfig{}};
  const auto wave = gen.generate(250.0, 250 * 30);
  EXPECT_GT(min_value(wave), 60.0);
  EXPECT_LT(max_value(wave), 140.0);
}

TEST(PulseGenerator, MeanSetpointsTrackConfig) {
  PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(250.0, 250 * 60);
  EXPECT_NEAR(gen.mean_systolic_mmhg(), 120.0, 3.0);
  EXPECT_NEAR(gen.mean_diastolic_mmhg(), 80.0, 3.0);
}

TEST(PulseGenerator, BeatIntervalsMatchHeartRate) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 60.0;
  cfg.hrv_jitter = 0.0;
  cfg.mayer_depth = 0.0;
  cfg.rsa_depth = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(500.0, 500 * 30);
  const auto& truth = gen.beat_truth();
  ASSERT_GE(truth.size(), 25u);
  for (const auto& b : truth) EXPECT_NEAR(b.interval_s, 1.0, 0.01);
}

TEST(PulseGenerator, HrvJitterSpreadsIntervals) {
  PulseConfig cfg;
  cfg.hrv_jitter = 0.05;
  cfg.mayer_depth = 0.0;
  cfg.rsa_depth = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(500.0, 500 * 120);
  std::vector<double> intervals;
  for (const auto& b : gen.beat_truth()) intervals.push_back(b.interval_s);
  ASSERT_GE(intervals.size(), 50u);
  EXPECT_GT(stddev(intervals) / mean(intervals), 0.02);
}

TEST(PulseGenerator, TruthBeatsAreOrderedAndContiguous) {
  ArterialPulseGenerator gen{PulseConfig{}};
  (void)gen.generate(500.0, 500 * 20);
  const auto& truth = gen.beat_truth();
  ASSERT_GE(truth.size(), 2u);
  for (std::size_t i = 1; i < truth.size(); ++i) {
    EXPECT_GT(truth[i].onset_s, truth[i - 1].onset_s);
    EXPECT_NEAR(truth[i].onset_s, truth[i - 1].onset_s + truth[i - 1].interval_s, 0.01);
  }
}

TEST(PulseGenerator, TruthSysAboveDia) {
  ArterialPulseGenerator gen{PulseConfig{}};
  (void)gen.generate(500.0, 500 * 30);
  for (const auto& b : gen.beat_truth()) {
    EXPECT_GT(b.systolic_mmhg, b.diastolic_mmhg);
    EXPECT_GT(b.map_mmhg, b.diastolic_mmhg);
    EXPECT_LT(b.map_mmhg, b.systolic_mmhg);
  }
}

TEST(PulseGenerator, MapClosestToDiastolic) {
  // Arterial MAP sits in the lower half of the pulse (diastole dominates).
  PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(500.0, 500 * 30);
  for (const auto& b : gen.beat_truth()) {
    EXPECT_LT(b.map_mmhg, (b.systolic_mmhg + b.diastolic_mmhg) / 2.0);
  }
}

TEST(PulseGenerator, DeterministicAcrossRuns) {
  ArterialPulseGenerator a{PulseConfig{}};
  ArterialPulseGenerator b{PulseConfig{}};
  const auto wa = a.generate(250.0, 1000);
  const auto wb = b.generate(250.0, 1000);
  EXPECT_EQ(wa, wb);
}

TEST(PulseGenerator, SeedChangesWaveform) {
  PulseConfig c1;
  c1.seed = 1;
  PulseConfig c2;
  c2.seed = 2;
  const auto wa = ArterialPulseGenerator{c1}.generate(250.0, 2000);
  const auto wb = ArterialPulseGenerator{c2}.generate(250.0, 2000);
  EXPECT_NE(wa, wb);
}

TEST(PulseGenerator, RespirationModulatesBaseline) {
  PulseConfig with;
  with.respiration_baseline_mmhg = 5.0;
  with.drift_mmhg_per_sqrt_s = 0.0;
  PulseConfig without = with;
  without.respiration_baseline_mmhg = 0.0;
  const auto ww = ArterialPulseGenerator{with}.generate(100.0, 100 * 30);
  const auto wo = ArterialPulseGenerator{without}.generate(100.0, 100 * 30);
  // Respiration widens the overall range.
  EXPECT_GT(peak_to_peak(ww), peak_to_peak(wo) + 2.0);
}

TEST(PulseGenerator, RejectsBadConfig) {
  PulseConfig bad;
  bad.systolic_mmhg = 70.0;  // below diastolic
  EXPECT_THROW((ArterialPulseGenerator{bad}), std::invalid_argument);
  PulseConfig bad2;
  bad2.heart_rate_bpm = 10.0;
  EXPECT_THROW((ArterialPulseGenerator{bad2}), std::invalid_argument);
}

TEST(PulseGenerator, RejectsBadDt) {
  ArterialPulseGenerator gen{PulseConfig{}};
  EXPECT_THROW((void)gen.sample(0.0), std::invalid_argument);
  EXPECT_THROW((void)gen.generate(0.0, 10), std::invalid_argument);
}

// Property: generator honours different clinical setpoints.
struct Setpoint {
  double sys;
  double dia;
  double hr;
};

class SetpointTest : public ::testing::TestWithParam<Setpoint> {};

TEST_P(SetpointTest, TracksTarget) {
  PulseConfig cfg;
  cfg.systolic_mmhg = GetParam().sys;
  cfg.diastolic_mmhg = GetParam().dia;
  cfg.heart_rate_bpm = GetParam().hr;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(250.0, 250 * 40);
  EXPECT_NEAR(gen.mean_systolic_mmhg(), GetParam().sys, 4.0);
  EXPECT_NEAR(gen.mean_diastolic_mmhg(), GetParam().dia, 4.0);
  const auto& truth = gen.beat_truth();
  const double expected_beats = 40.0 * GetParam().hr / 60.0;
  EXPECT_NEAR(static_cast<double>(truth.size()), expected_beats, expected_beats * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Clinical, SetpointTest,
                         ::testing::Values(Setpoint{120.0, 80.0, 72.0},
                                           Setpoint{100.0, 65.0, 55.0},
                                           Setpoint{150.0, 95.0, 90.0},
                                           Setpoint{180.0, 110.0, 110.0}));

// --- Regression tests for PR 10's unbounded-truth and single-close-out
// bugs: sample() used to close at most one beat per call (a large dt lost
// every beat but one), and every closed beat stayed in truth_ forever (every
// checkpoint serialized an ever-growing log).

TEST(PulseGenerator, LargeDtClosesEveryElapsedBeat) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 60.0;
  cfg.hrv_jitter = 0.0;
  ArterialPulseGenerator gen{cfg};
  // 30 s advanced in 5 s strides: ~30 one-second beats must close, not ~6.
  for (int i = 0; i < 6; ++i) (void)gen.sample(5.0);
  EXPECT_NEAR(static_cast<double>(gen.beats_completed()), 30.0, 3.0);
  // The log is ordered and contiguous even though whole beats had zero
  // samples.
  const auto& truth = gen.beat_truth();
  ASSERT_GE(truth.size(), 25u);
  for (std::size_t i = 1; i < truth.size(); ++i) {
    EXPECT_NEAR(truth[i].onset_s, truth[i - 1].onset_s + truth[i - 1].interval_s, 1e-9);
    // Zero-sample beats carry setpoint truth; one-sample beats have equal
    // empirical extrema — either way the pair stays ordered.
    EXPECT_GE(truth[i].systolic_mmhg, truth[i].diastolic_mmhg);
  }
}

TEST(PulseGenerator, LargeDtKeepsBeatRateOnSchedule) {
  // With jitter disabled the interval stream is deterministic, so a coarse
  // stride must close the same number of beats as a fine one over the same
  // span (the pre-fix code closed one beat per sample() call at most).
  PulseConfig cfg;
  cfg.heart_rate_bpm = 75.0;
  cfg.hrv_jitter = 0.0;
  ArterialPulseGenerator coarse{cfg};
  ArterialPulseGenerator fine{cfg};
  for (int i = 0; i < 10; ++i) (void)coarse.sample(2.0);
  for (int i = 0; i < 2000; ++i) (void)fine.sample(0.01);
  const auto coarse_beats = coarse.beats_completed();
  const auto fine_beats = fine.beats_completed();
  EXPECT_NEAR(static_cast<double>(coarse_beats), static_cast<double>(fine_beats), 2.0);
  EXPECT_GT(coarse_beats, 20u);  // ~25 beats in 20 s at 75 bpm
}

// --- Rate sweep: the monitor steps the physiology once per 1 kHz output
// frame, not once per 128 kHz modulator clock. Every random draw happens
// once per beat, so the beat train must not depend on the sampling step;
// only the sampled extrema may move.

std::vector<BeatTruth> truth_at_rate(const PulseConfig& cfg, double rate_hz,
                                     double duration_s) {
  ArterialPulseGenerator gen{cfg};
  const double dt = 1.0 / rate_hz;
  const auto n = static_cast<std::size_t>(std::llround(duration_s * rate_hz));
  for (std::size_t i = 0; i < n; ++i) (void)gen.sample(dt);
  return gen.beat_truth();
}

TEST(PulseGeneratorRateSweep, BeatTrainIsIndependentOfTheSamplingRate) {
  // A beat's extremum sampled every dt is off by at most the waveform's
  // slope there times dt. 250 mmHg/s bounds the slope at the diastolic
  // foot with margin (measured: ≤ 0.09 mmHg at 1 kHz, ≤ 0.33 at 250 Hz).
  constexpr double kSlopeMmhgPerS = 250.0;
  constexpr double kDurationS = 60.0;
  for (const PulseConfig& cfg : {PulseConfig{}, PatientPresets::atrial_fibrillation()}) {
    const auto clock_rate = truth_at_rate(cfg, 128000.0, kDurationS);
    ASSERT_GT(clock_rate.size(), 60u);
    for (const double rate : {1000.0, 250.0}) {
      const auto truth = truth_at_rate(cfg, rate, kDurationS);
      const double tolerance = kSlopeMmhgPerS / rate;
      // A beat ending within the last step may close at one rate only.
      const std::size_t n = std::min(truth.size(), clock_rate.size());
      EXPECT_LE(std::max(truth.size(), clock_rate.size()) - n, 1u);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(truth[i].onset_s, clock_rate[i].onset_s) << rate << " Hz, beat " << i;
        ASSERT_EQ(truth[i].interval_s, clock_rate[i].interval_s) << rate << " Hz, beat " << i;
        EXPECT_NEAR(truth[i].systolic_mmhg, clock_rate[i].systolic_mmhg, tolerance)
            << rate << " Hz, beat " << i;
        EXPECT_NEAR(truth[i].diastolic_mmhg, clock_rate[i].diastolic_mmhg, tolerance)
            << rate << " Hz, beat " << i;
      }
    }
  }
}

TEST(PulseGenerator, TruthLogStaysBounded) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 120.0;
  cfg.truth_capacity = 64;
  ArterialPulseGenerator gen{cfg};
  for (int i = 0; i < 60 * 500; ++i) (void)gen.sample(0.01);  // 300 s, ~600 beats
  EXPECT_GT(gen.beats_completed(), 550u);
  // Bounded: capacity plus the 25% amortization headroom, never more.
  EXPECT_LE(gen.beat_truth().size(), 64u + 16u);
  EXPECT_EQ(gen.truth_dropped() + gen.beat_truth().size(), gen.beats_completed());
  // All-beats running means keep covering dropped beats.
  EXPECT_NEAR(gen.mean_systolic_mmhg(), cfg.systolic_mmhg, 6.0);
  EXPECT_NEAR(gen.mean_diastolic_mmhg(), cfg.diastolic_mmhg, 6.0);
  // The retained tail is the most recent beats, still contiguous.
  const auto& truth = gen.beat_truth();
  for (std::size_t i = 1; i < truth.size(); ++i) {
    EXPECT_NEAR(truth[i].onset_s, truth[i - 1].onset_s + truth[i - 1].interval_s, 1e-9);
  }
}

TEST(PulseGenerator, UnboundedModeKeepsEverything) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 120.0;
  cfg.truth_capacity = 0;  // opt-out
  ArterialPulseGenerator gen{cfg};
  for (int i = 0; i < 60 * 100; ++i) (void)gen.sample(0.01);
  EXPECT_EQ(gen.truth_dropped(), 0u);
  EXPECT_EQ(gen.beat_truth().size(), gen.beats_completed());
}

TEST(PulseGenerator, DrainTruthEmptiesLogAndKeepsCounters) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 60.0;
  ArterialPulseGenerator gen{cfg};
  for (int i = 0; i < 1000; ++i) (void)gen.sample(0.01);
  const auto completed = gen.beats_completed();
  ASSERT_GT(completed, 5u);
  const auto drained = gen.drain_truth();
  EXPECT_EQ(drained.size(), completed);
  EXPECT_TRUE(gen.beat_truth().empty());
  EXPECT_EQ(gen.beats_completed(), completed);  // counters survive the drain

  // New beats land in the emptied log and drain again cleanly.
  for (int i = 0; i < 500; ++i) (void)gen.sample(0.01);
  const auto second = gen.drain_truth();
  EXPECT_EQ(gen.beats_completed(), completed + second.size());
  ASSERT_FALSE(second.empty());
  EXPECT_GT(second.front().onset_s, drained.back().onset_s);
}

TEST(PulseGenerator, BoundedLogCheckpointRoundTripIsBitIdentical) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 90.0;
  cfg.truth_capacity = 32;
  ArterialPulseGenerator a{cfg};
  for (int i = 0; i < 12000; ++i) (void)a.sample(0.01);  // far past the cap

  CheckpointWriter out;
  a.serialize(out);
  const auto blob = out.finish(1);
  // The bounded log keeps the blob small no matter how long the run was.
  EXPECT_LT(blob.size(), 16u * 1024u);

  ArterialPulseGenerator b{cfg};
  CheckpointReader in{blob};
  b.restore(in);
  EXPECT_EQ(b.beats_completed(), a.beats_completed());
  EXPECT_EQ(b.truth_dropped(), a.truth_dropped());
  ASSERT_EQ(b.beat_truth().size(), a.beat_truth().size());
  for (std::size_t i = 0; i < a.beat_truth().size(); ++i) {
    EXPECT_EQ(b.beat_truth()[i].onset_s, a.beat_truth()[i].onset_s);
    EXPECT_EQ(b.beat_truth()[i].systolic_mmhg, a.beat_truth()[i].systolic_mmhg);
  }
  // Continuing both generators stays bit-identical.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(a.sample(0.01), b.sample(0.01)) << "sample " << i;
  }
  EXPECT_EQ(a.mean_systolic_mmhg(), b.mean_systolic_mmhg());
}

}  // namespace
}  // namespace tono::bio
