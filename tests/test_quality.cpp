// Tests for the signal-quality index.
#include "src/core/quality.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <span>
#include <vector>

#include "examples/session_mix.hpp"
#include "src/bio/artifacts.hpp"
#include "src/bio/pulse_generator.hpp"
#include "src/common/fixed_point.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/common/statistics.hpp"
#include "src/fleet/patient_session.hpp"

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

// ---------------------------------------------------------------------------
// The shape search scores every alignment lag of a segment in one batched
// pass. It must give the bits of the per-lag search it replaced, which runs
// here as the reference: one pearson_correlation per even lag.

struct Grade {
  double shape{0.0};
  double sqi{0.0};
  bool usable{false};
};

double linear_score(double x, double floor_x) {
  if (floor_x <= 0.0) return 0.0;
  return std::clamp(1.0 - x / floor_x, 0.0, 1.0);
}

/// assess()'s shape search and blend, with one pearson_correlation per lag.
/// The other sub-scores are taken from `rep`.
Grade reference_grade(const QualityConfig& c, const QualityReport& rep,
                      std::span<const double> window, const BeatAnalysis& beats, double fs) {
  Grade g;
  if (rep.beat_count < c.min_beats) {
    g.sqi = 0.25 * linear_score(rep.artifact_fraction, c.artifact_fraction_floor);
    return g;
  }
  std::vector<double> intervals;
  for (std::size_t i = 1; i < beats.beats.size(); ++i) {
    intervals.push_back(beats.beats[i].upstroke_s - beats.beats[i - 1].upstroke_s);
  }
  const double med_iv = intervals.empty() ? 0.8 : median(intervals);
  const auto seg_len = static_cast<std::size_t>(0.6 * med_iv * fs);
  const auto max_lag = static_cast<std::size_t>(0.06 * fs);
  if (seg_len >= 8) {
    std::vector<std::vector<double>> segments;
    for (const auto& b : beats.beats) {
      const auto start = static_cast<std::size_t>(b.upstroke_s * fs);
      if (start < max_lag || start + seg_len + max_lag >= window.size()) continue;
      segments.emplace_back(window.begin() + static_cast<long>(start - max_lag),
                            window.begin() + static_cast<long>(start + seg_len + max_lag));
    }
    if (segments.size() >= 3) {
      std::vector<double> tmpl(seg_len, 0.0);
      for (const auto& s : segments) {
        for (std::size_t i = 0; i < seg_len; ++i) tmpl[i] += s[max_lag + i];
      }
      for (auto& v : tmpl) v /= static_cast<double>(segments.size());
      double corr_acc = 0.0;
      for (const auto& s : segments) {
        double best = -1.0;
        for (std::size_t lag = 0; lag <= 2 * max_lag; lag += 2) {
          const std::span<const double> cut{s.data() + lag, seg_len};
          best = std::max(best, pearson_correlation(cut, tmpl));
        }
        corr_acc += best;
      }
      g.shape = std::max(0.0, corr_acc / static_cast<double>(segments.size()));
    }
  }
  const double s_rhythm = linear_score(rep.interval_cv, c.interval_cv_floor);
  const double s_amp = linear_score(rep.amplitude_cv, c.amplitude_cv_floor);
  const double s_art = linear_score(rep.artifact_fraction, c.artifact_fraction_floor);
  const double s_pulse = std::clamp(rep.pulse_snr / c.pulse_snr_full_score, 0.0, 1.0);
  const double s_shape = std::clamp(g.shape, 0.0, 1.0);
  g.sqi = std::pow(s_rhythm * s_amp * s_art * s_pulse * s_shape, 0.2);
  g.usable = g.sqi >= 0.5 &&
             (g.shape >= c.min_shape_consistency || rep.pulse_snr >= c.strong_pulse_snr);
  return g;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Grades `window` with `beats` and requires the reference's bits; returns
/// the report.
QualityReport expect_reference_bits(std::span<const double> window, const BeatAnalysis& beats,
                                    double fs) {
  const SignalQualityAssessor q;
  const auto rep = q.assess(window, beats, fs);
  const auto want = reference_grade(q.config(), rep, window, beats, fs);
  EXPECT_TRUE(same_bits(rep.shape_consistency, want.shape))
      << rep.shape_consistency << " vs " << want.shape;
  EXPECT_TRUE(same_bits(rep.sqi, want.sqi)) << rep.sqi << " vs " << want.sqi;
  EXPECT_EQ(rep.usable, want.usable);
  return rep;
}

/// The mmHg stream a session_mix session's StreamingMonitor is fed: its
/// 12-bit codes through dequantize and the session's calibration.
std::vector<double> session_stream(std::size_t mix_index, std::size_t frames) {
  std::vector<std::int16_t> codes;
  fleet::SessionConfig config = examples::session_mix(mix_index);
  config.seed = 500 + mix_index;
  config.code_sink = [&codes](std::uint32_t, std::span<const std::int16_t> block) {
    codes.insert(codes.end(), block.begin(), block.end());
  };
  fleet::PatientSession session{static_cast<std::uint32_t>(mix_index), config};
  session.step(frames);
  const int bits = config.chip.decimation.output_bits;
  std::vector<double> mmhg;
  for (const std::int16_t code : codes) {
    mmhg.push_back(session.calibration().to_mmhg(dequantize_from_bits(code, bits)));
  }
  return mmhg;
}

/// A pulse of period 14 samples plus noise at 100 S/s, with hand-placed
/// beats every 14 samples: median interval 0.14 s makes seg_len 8 (the
/// floor) and max_lag 6.
struct SmallCase {
  std::vector<double> window;
  BeatAnalysis beats;

  SmallCase(std::size_t n, std::initializer_list<std::size_t> starts) : window(n) {
    tono::Rng rng{19};
    for (std::size_t i = 0; i < n; ++i) {
      window[i] = 90.0 + 20.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 14.0) +
                  rng.gaussian(0.0, 2.0);
    }
    double sys = 118.0;
    for (const std::size_t start : starts) {
      Beat b;
      b.upstroke_s = (static_cast<double>(start) + 0.5) / 100.0;
      b.systolic_value = sys;
      b.diastolic_value = 80.0;
      sys += 1.5;
      beats.beats.push_back(b);
    }
  }
};

/// The reference cases below, graded at the active SIMD level.
void expect_shape_search_bits() {
  // Every 2 s hop of an 8 s window, as the streaming monitor grades them,
  // over each kind of patient in the session mix.
  constexpr std::size_t kWindow = 8000;
  constexpr std::size_t kHop = 2000;
  std::size_t shaped = 0;
  for (std::size_t mix = 0; mix < 5; ++mix) {
    const auto stream = session_stream(mix, 16000);
    ASSERT_EQ(stream.size(), 16000u);
    for (std::size_t end = kWindow; end <= stream.size(); end += kHop) {
      const std::span<const double> window{stream.data() + end - kWindow, kWindow};
      const auto rep = expect_reference_bits(window, BeatDetector{}.analyze(window), 1000.0);
      if (rep.shape_consistency > 0.0) ++shaped;
    }
  }
  EXPECT_GE(shaped, 20u);  // the search ran, not only its early exits

  // Segment spans are [start − 6, start + 14). Starts below 6, and starts
  // whose span reaches the window's last sample, are skipped.
  {
    SCOPED_TRACE("exactly 3 segments: one beat too early, one too late");
    const SmallCase c{73, {3, 17, 31, 45, 59}};
    EXPECT_GT(expect_reference_bits(c.window, c.beats, 100.0).shape_consistency, 0.0);
  }
  {
    SCOPED_TRACE("first span starts at sample 0, last ends before the last sample");
    const SmallCase c{63, {6, 20, 34, 48}};
    EXPECT_GT(expect_reference_bits(c.window, c.beats, 100.0).shape_consistency, 0.0);
  }
  {
    SCOPED_TRACE("only 2 segments survive the edges: no shape score");
    const SmallCase c{62, {5, 20, 34, 48}};
    EXPECT_EQ(expect_reference_bits(c.window, c.beats, 100.0).shape_consistency, 0.0);
  }
  {
    SCOPED_TRACE("one flat segment: every lag has da == 0 and scores 0");
    SmallCase c{73, {3, 17, 31, 45, 59}};
    std::fill(c.window.begin() + 25, c.window.begin() + 45, 90.0);
    expect_reference_bits(c.window, c.beats, 100.0);
  }
  {
    SCOPED_TRACE("flat window: the template has db == 0");
    SmallCase c{73, {3, 17, 31, 45, 59}};
    std::fill(c.window.begin(), c.window.end(), 90.0);
    EXPECT_EQ(expect_reference_bits(c.window, c.beats, 100.0).shape_consistency, 0.0);
  }
}

TEST(Quality, ShapeConsistencyMatchesPerLagPearson) {
  // The baseline lag kernel, then the widest one this CPU runs (AVX2 where
  // compiled and supported): both must give the reference's bits.
  const simd::Level ambient = simd::active_level();
  for (const simd::Level level : {simd::Level::kScalar, simd::runtime_level()}) {
    SCOPED_TRACE(simd::level_name(simd::force_active_level(level)));
    expect_shape_search_bits();
  }
  simd::force_active_level(ambient);
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
