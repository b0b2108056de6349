#include "src/core/quality.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/common/simd.hpp"
#include "src/common/statistics.hpp"
#include "src/core/lag_kernel.hpp"

namespace tono::core {
namespace {

/// Coefficient of variation, 0 for degenerate input.
double cv(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / std::abs(m);
}

/// Linear score: 1 at x = 0, 0 at x >= floor_x.
double score(double x, double floor_x) {
  if (floor_x <= 0.0) return 0.0;
  return std::clamp(1.0 - x / floor_x, 0.0, 1.0);
}

/// 2 × f64: the baseline vector width (SSE2 on x86-64, NEON on aarch64).
using BaseLanes = double __attribute__((vector_size(2 * sizeof(double))));

/// The ensemble template as pearson_correlation sees it: its mean, its
/// centred values and their sum of squares, computed once for every lag.
class ShapeTemplate {
 public:
  explicit ShapeTemplate(std::span<const double> tmpl) : centred_(tmpl.size()) {
    const double mb = mean(tmpl);
    for (std::size_t i = 0; i < tmpl.size(); ++i) {
      centred_[i] = tmpl[i] - mb;
      db_ += centred_[i] * centred_[i];
    }
  }

  /// Best correlation of `segment` (seg_len + 2·max_lag samples) with the
  /// template over the even lags 0, 2, …, 2·max_lag, with the bits of one
  /// pearson_correlation per lag (lag_kernel.hpp). Every level gives the
  /// same bits; the AVX2 kernel is only faster.
  double best_lag_correlation(std::span<const double> segment, std::size_t max_lag) const {
#if defined(TONO_SIMD_AVX2)
    if (level_ == simd::Level::kAvx2) {
      return lagkernel::best_lag_correlation_avx2(segment, max_lag, centred_, db_);
    }
#endif
    return lagkernel::best_lag_correlation<BaseLanes, 8>(segment, max_lag, centred_, db_);
  }

 private:
  std::vector<double> centred_;
  double db_{0.0};
  simd::Level level_{simd::active_level()};
};

}  // namespace

SignalQualityAssessor::SignalQualityAssessor(const QualityConfig& config) : config_(config) {
  if (config_.iqr_multiplier <= 0.0) {
    throw std::invalid_argument{"SignalQualityAssessor: IQR multiplier must be > 0"};
  }
  if (config_.min_beats == 0) {
    throw std::invalid_argument{"SignalQualityAssessor: min beats must be > 0"};
  }
}

QualityReport SignalQualityAssessor::assess(std::span<const double> window,
                                            const BeatAnalysis& beats,
                                            double fs) const {
  QualityReport rep;
  if (window.empty()) return rep;

  rep.beat_count = beats.beats.size();

  // Artefact load: boxplot outliers. The inter-quartile range tracks the
  // beat's own excursion (robust to heavy spike contamination), so only
  // values beyond the physiological envelope count.
  const auto [q1, q3] = percentiles(window, 25.0, 75.0);
  const double iqr = q3 - q1;
  if (iqr > 0.0) {
    const double lo = q1 - config_.iqr_multiplier * iqr;
    const double hi = q3 + config_.iqr_multiplier * iqr;
    std::size_t outliers = 0;
    for (double v : window) {
      if (v < lo || v > hi) ++outliers;
    }
    rep.artifact_fraction = static_cast<double>(outliers) / static_cast<double>(window.size());
  }

  if (rep.beat_count < config_.min_beats) {
    // No rhythm to speak of: quality is artefact score alone, scaled down.
    rep.sqi = 0.25 * score(rep.artifact_fraction, config_.artifact_fraction_floor);
    rep.usable = false;
    return rep;
  }

  std::vector<double> intervals;
  std::vector<double> amplitudes;
  intervals.reserve(rep.beat_count);
  amplitudes.reserve(rep.beat_count);
  for (std::size_t i = 0; i < beats.beats.size(); ++i) {
    amplitudes.push_back(beats.beats[i].systolic_value - beats.beats[i].diastolic_value);
    if (i > 0) {
      intervals.push_back(beats.beats[i].upstroke_s - beats.beats[i - 1].upstroke_s);
    }
  }
  rep.interval_cv = cv(intervals);
  rep.amplitude_cv = cv(amplitudes);

  // Pulse significance: a real pulse towers over the waveform's sample-to-
  // sample noise; detections locked onto filtered converter noise do not.
  // The size() - 1 denominator underflows (wraps to SIZE_MAX) for a
  // single-sample window; min_beats normally screens those out, but the
  // guard keeps the division total for any caller.
  if (window.size() >= 2) {
    double diff_acc = 0.0;
    for (std::size_t i = 1; i < window.size(); ++i) {
      const double d = window[i] - window[i - 1];
      diff_acc += d * d;
    }
    const double hf_rms =
        std::sqrt(diff_acc / (2.0 * static_cast<double>(window.size() - 1)));
    const double mean_amp = mean(amplitudes);
    rep.pulse_snr = hf_rms > 0.0 ? mean_amp / hf_rms : 0.0;
  }

  // Shape consistency: correlate each beat segment (fixed length ~60 % of
  // the median interval, from the upstroke) against the ensemble template.
  // Detection timing jitters by tens of ms when the converter range is
  // coarse, so each segment is aligned to the template by its best lag
  // (±60 ms) before scoring — a real pulse realigns to ≈0.8+, noise cannot.
  {
    const double med_iv = intervals.empty() ? 0.8 : median(intervals);
    const auto seg_len = static_cast<std::size_t>(0.6 * med_iv * fs);
    const auto max_lag = static_cast<std::size_t>(0.06 * fs);
    if (seg_len >= 8) {
      // Segments with margin for the alignment search: max_lag each side.
      std::vector<std::span<const double>> segments;
      for (const auto& b : beats.beats) {
        const auto start = static_cast<std::size_t>(b.upstroke_s * fs);
        if (start < max_lag || start + seg_len + max_lag >= window.size()) continue;
        segments.push_back(window.subspan(start - max_lag, seg_len + 2 * max_lag));
      }
      if (segments.size() >= 3) {
        // Template from the center (unshifted) cuts.
        std::vector<double> tmpl(seg_len, 0.0);
        for (const auto& s : segments) {
          for (std::size_t i = 0; i < seg_len; ++i) tmpl[i] += s[max_lag + i];
        }
        for (auto& v : tmpl) v /= static_cast<double>(segments.size());
        const ShapeTemplate shape{tmpl};
        double corr_acc = 0.0;
        for (const auto& s : segments) corr_acc += shape.best_lag_correlation(s, max_lag);
        rep.shape_consistency =
            std::max(0.0, corr_acc / static_cast<double>(segments.size()));
      }
    }
  }

  const double s_rhythm = score(rep.interval_cv, config_.interval_cv_floor);
  const double s_amp = score(rep.amplitude_cv, config_.amplitude_cv_floor);
  const double s_art = score(rep.artifact_fraction, config_.artifact_fraction_floor);
  const double s_pulse =
      std::clamp(rep.pulse_snr / config_.pulse_snr_full_score, 0.0, 1.0);
  const double s_shape = std::clamp(rep.shape_consistency, 0.0, 1.0);
  // Geometric-style blend: any collapsed component drags the SQI down hard.
  rep.sqi = std::pow(s_rhythm * s_amp * s_art * s_pulse * s_shape, 0.2);
  const bool pulse_evidence =
      rep.shape_consistency >= config_.min_shape_consistency ||
      rep.pulse_snr >= config_.strong_pulse_snr;
  rep.usable = rep.sqi >= 0.5 && pulse_evidence;
  return rep;
}

}  // namespace tono::core
