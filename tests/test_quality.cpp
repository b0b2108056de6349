// Tests for the signal-quality index.
#include "src/core/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/bio/artifacts.hpp"
#include "src/bio/pulse_generator.hpp"
#include "src/common/rng.hpp"

namespace tono::core {
namespace {

std::vector<double> clean_wave(double duration_s = 30.0, std::uint64_t seed = 7) {
  bio::PulseConfig cfg;
  cfg.seed = seed;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  bio::ArterialPulseGenerator gen{cfg};
  return gen.generate(1000.0, static_cast<std::size_t>(duration_s * 1000.0));
}

/// Grades a 1 kS/s window from one fresh analysis of it, as every caller does.
QualityReport grade(const SignalQualityAssessor& q, std::span<const double> window) {
  return q.assess(window, BeatDetector{}.analyze(window), 1000.0);
}

TEST(SignalQuality, CleanSignalIsHighQuality) {
  SignalQualityAssessor q;
  const auto rep = grade(q, clean_wave());
  EXPECT_GT(rep.sqi, 0.7);
  EXPECT_TRUE(rep.usable);
  EXPECT_GE(rep.beat_count, 30u);
  EXPECT_LT(rep.interval_cv, 0.1);
}

TEST(SignalQuality, FlatSignalUnusable) {
  SignalQualityAssessor q;
  const std::vector<double> flat(20000, 90.0);
  const auto rep = grade(q, flat);
  EXPECT_FALSE(rep.usable);
  EXPECT_EQ(rep.beat_count, 0u);
  EXPECT_LT(rep.sqi, 0.5);
}

TEST(SignalQuality, EmptyWindowZero) {
  SignalQualityAssessor q;
  const auto rep = grade(q, {});
  EXPECT_DOUBLE_EQ(rep.sqi, 0.0);
  EXPECT_FALSE(rep.usable);
}

TEST(SignalQuality, TinyWindowsFiniteAndUnusable) {
  // 1- and 2-sample windows: the pulse-SNR denominator (size − 1) would
  // wrap to SIZE_MAX for a single sample without its guard. Reports must
  // stay finite and unusable, even with min_beats lowered to force the
  // later scoring stages to run on whatever the detector returns.
  QualityConfig cfg;
  cfg.min_beats = 1;
  SignalQualityAssessor q{cfg};
  for (const auto& window :
       {std::vector<double>{95.0}, std::vector<double>{95.0, 96.0}}) {
    const auto rep = grade(q, window);
    EXPECT_FALSE(rep.usable) << window.size();
    for (double v : {rep.sqi, rep.interval_cv, rep.amplitude_cv,
                     rep.artifact_fraction, rep.pulse_snr, rep.shape_consistency}) {
      EXPECT_TRUE(std::isfinite(v)) << window.size();
    }
  }
}

TEST(SignalQuality, SpikesLowerTheIndex) {
  auto wave = clean_wave();
  // Inject hard motion spikes.
  tono::Rng rng{5};
  for (int s = 0; s < 25; ++s) {
    const std::size_t at = 1000 + rng.uniform_below(wave.size() - 2000);
    for (std::size_t i = 0; i < 120; ++i) wave[at + i] += 60.0;
  }
  SignalQualityAssessor q;
  const auto clean = grade(q, clean_wave());
  const auto spiky = grade(q, wave);
  EXPECT_LT(spiky.sqi, clean.sqi);
  EXPECT_GT(spiky.artifact_fraction, clean.artifact_fraction);
}

TEST(SignalQuality, IrregularRhythmLowersRhythmScore) {
  bio::PulseConfig af = bio::PatientPresets::atrial_fibrillation();
  af.drift_mmhg_per_sqrt_s = 0.0;
  bio::ArterialPulseGenerator gen{af};
  const auto wave = gen.generate(1000.0, 40000);
  SignalQualityAssessor q;
  const auto rep_af = grade(q, wave);
  const auto rep_clean = grade(q, clean_wave(40.0));
  EXPECT_GT(rep_af.interval_cv, rep_clean.interval_cv + 0.02);
  EXPECT_LT(rep_af.sqi, rep_clean.sqi);
}

TEST(SignalQuality, HeavyArtifactsDetected) {
  auto wave = clean_wave();
  bio::ArtifactConfig art;
  art.spike_rate_hz = 1.0;
  art.spike_amplitude_mmhg = 60.0;
  art.wander_mmhg_per_sqrt_s = 2.0;
  bio::ArtifactInjector inj{art};
  inj.apply(wave, 1000.0);
  SignalQualityAssessor q;
  const auto rep = grade(q, wave);
  EXPECT_LT(rep.sqi, 0.75);
}

TEST(SignalQuality, ScaleInvariant) {
  const auto wave = clean_wave();
  std::vector<double> scaled(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) scaled[i] = wave[i] * 3.7e-4 - 0.05;
  SignalQualityAssessor q;
  EXPECT_NEAR(grade(q, wave).sqi, grade(q, scaled).sqi, 0.1);
}

TEST(SignalQuality, RealPulseHasHighShapeConsistencyAndSnr) {
  SignalQualityAssessor q;
  const auto rep = grade(q, clean_wave());
  EXPECT_GT(rep.shape_consistency, 0.8);
  EXPECT_GT(rep.pulse_snr, 8.0);
}

TEST(SignalQuality, NoiseLockedDetectionRejected) {
  // Baseline wander plus the converter's white floor (every real chain
  // output carries one): the detector locks onto the wander rhythmically,
  // but the beats neither repeat a shape nor tower over the floor.
  tono::Rng rng{31};
  std::vector<double> noise(20000);
  double state = 0.0;
  for (auto& v : noise) {
    state = 0.98 * state + rng.gaussian(0.0, 0.2);  // wander, sigma ~= 1
    v = state + rng.gaussian(0.0, 1.0);              // white converter floor
  }
  SignalQualityAssessor q;
  const auto rep = grade(q, noise);
  EXPECT_FALSE(rep.usable);
  EXPECT_LT(rep.pulse_snr, q.config().strong_pulse_snr);
}

TEST(SignalQuality, RejectsBadConfig) {
  QualityConfig bad;
  bad.iqr_multiplier = 0.0;
  EXPECT_THROW((SignalQualityAssessor{bad}), std::invalid_argument);
  QualityConfig bad2;
  bad2.min_beats = 0;
  EXPECT_THROW((SignalQualityAssessor{bad2}), std::invalid_argument);
}

}  // namespace
}  // namespace tono::core
