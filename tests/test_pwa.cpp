// Tests for pulse wave analysis.
#include "src/core/pwa.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/bio/pulse_generator.hpp"

namespace tono::core {
namespace {

struct Prepared {
  std::vector<double> wave;
  BeatAnalysis beats;
};

Prepared prepare(const bio::PulseConfig& cfg, double duration_s = 30.0) {
  bio::ArterialPulseGenerator gen{cfg};
  Prepared p;
  p.wave = gen.generate(1000.0, static_cast<std::size_t>(duration_s * 1000.0));
  p.beats = BeatDetector{}.analyze(p.wave);
  return p;
}

bio::PulseConfig steady() {
  bio::PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  return cfg;
}

TEST(Pwa, FeaturesForEveryBeat) {
  const auto p = prepare(steady());
  const auto s = PulseWaveAnalyzer{}.analyze(p.wave, p.beats);
  EXPECT_EQ(s.per_beat.size(), p.beats.beats.size());
}

TEST(Pwa, PulsePressureMatchesBeats) {
  const auto p = prepare(steady());
  const auto s = PulseWaveAnalyzer{}.analyze(p.wave, p.beats);
  EXPECT_NEAR(s.mean_pulse_pressure, 40.0, 6.0);
}

TEST(Pwa, DpdtMaxPositiveAndPlausible) {
  const auto p = prepare(steady());
  const auto s = PulseWaveAnalyzer{}.analyze(p.wave, p.beats);
  // Upstroke of ~40 mmHg over ~80 ms → several hundred mmHg/s.
  EXPECT_GT(s.mean_dpdt_max, 200.0);
  EXPECT_LT(s.mean_dpdt_max, 3000.0);
  for (const auto& f : s.per_beat) EXPECT_GT(f.dpdt_max, 0.0);
}

TEST(Pwa, DpdtTimeOnUpstroke) {
  const auto p = prepare(steady());
  const auto s = PulseWaveAnalyzer{}.analyze(p.wave, p.beats);
  for (std::size_t i = 0; i < s.per_beat.size(); ++i) {
    EXPECT_GE(s.per_beat[i].dpdt_max_time_s, p.beats.beats[i].foot_s - 1e-9);
    EXPECT_LE(s.per_beat[i].dpdt_max_time_s, p.beats.beats[i].peak_s + 1e-9);
  }
}

TEST(Pwa, FindsDicroticNotchInMostBeats) {
  const auto p = prepare(steady());
  const auto s = PulseWaveAnalyzer{}.analyze(p.wave, p.beats);
  std::size_t with_notch = 0;
  for (const auto& f : s.per_beat) {
    if (f.notch_time_s) ++with_notch;
  }
  EXPECT_GT(with_notch, s.per_beat.size() / 2);
}

TEST(Pwa, EjectionFractionPhysiological) {
  const auto p = prepare(steady());
  const auto s = PulseWaveAnalyzer{}.analyze(p.wave, p.beats);
  ASSERT_TRUE(s.mean_ejection_fraction.has_value());
  EXPECT_GT(*s.mean_ejection_fraction, 0.15);
  EXPECT_LT(*s.mean_ejection_fraction, 0.70);
}

TEST(Pwa, StiffArteryHasHigherAugmentation) {
  const auto normal = prepare(steady(), 40.0);
  bio::PulseConfig stiff_cfg = bio::PatientPresets::elderly_stiff();
  stiff_cfg.drift_mmhg_per_sqrt_s = 0.0;
  const auto stiff = prepare(stiff_cfg, 40.0);
  const auto sn = PulseWaveAnalyzer{}.analyze(normal.wave, normal.beats);
  const auto ss = PulseWaveAnalyzer{}.analyze(stiff.wave, stiff.beats);
  ASSERT_TRUE(sn.mean_augmentation_index.has_value());
  ASSERT_TRUE(ss.mean_augmentation_index.has_value());
  EXPECT_GT(*ss.mean_augmentation_index, *sn.mean_augmentation_index);
}

TEST(Pwa, TachycardiaRaisesEjectionFraction) {
  // At high heart rate, systole occupies a larger fraction of the beat.
  bio::PulseConfig fast = steady();
  fast.heart_rate_bpm = 120.0;
  const auto slow = prepare(steady(), 30.0);
  const auto quick = prepare(fast, 30.0);
  const auto ss = PulseWaveAnalyzer{}.analyze(slow.wave, slow.beats);
  const auto sq = PulseWaveAnalyzer{}.analyze(quick.wave, quick.beats);
  ASSERT_TRUE(ss.mean_ejection_fraction && sq.mean_ejection_fraction);
  EXPECT_GT(*sq.mean_ejection_fraction, *ss.mean_ejection_fraction * 0.9);
}

TEST(Pwa, EmptyInputsSafe) {
  PulseWaveAnalyzer pwa;
  const auto s1 = pwa.analyze({}, BeatAnalysis{});
  EXPECT_TRUE(s1.per_beat.empty());
  const auto p = prepare(steady(), 5.0);
  const auto s2 = pwa.analyze(p.wave, BeatAnalysis{});
  EXPECT_TRUE(s2.per_beat.empty());
}

TEST(Pwa, RejectsBadRate) {
  EXPECT_THROW((PulseWaveAnalyzer{0.0}), std::invalid_argument);
}

TEST(Pwa, T0ConsistentTimes) {
  const auto p = prepare(steady(), 10.0);
  const double t0 = 55.0;
  auto beats = BeatDetector{}.analyze(p.wave);
  for (auto& b : beats.beats) b = b.shifted(t0);
  const auto s = PulseWaveAnalyzer{}.analyze(p.wave, beats, t0);
  for (const auto& f : s.per_beat) {
    EXPECT_GE(f.dpdt_max_time_s, t0);
    if (f.notch_time_s) EXPECT_GE(*f.notch_time_s, t0);
  }
}

}  // namespace
}  // namespace tono::core
