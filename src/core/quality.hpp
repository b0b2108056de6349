// quality.hpp — signal-quality assessment for unattended monitoring.
//
// §4: "Field tests have to be performed in order [to] evaluate reliability
// and stability of blood pressure monitoring." Reliability in the field
// means knowing when a window is trustworthy. The index combines three
// scale-free observations on a waveform window:
//   * rhythm consistency — coefficient of variation of beat intervals,
//   * amplitude consistency — CV of per-beat pulse amplitudes,
//   * artefact load — fraction of samples far outside the typical range
//     (robust MAD criterion).
#pragma once

#include <span>

#include "src/core/beat_detection.hpp"

namespace tono::core {

struct QualityConfig {
  /// Samples outside [p25 − k·IQR, p75 + k·IQR] count as artefact (boxplot
  /// rule, robust up to 25 % contamination). k = 3 keeps systolic peaks of
  /// any physiological pulse pressure inside the envelope.
  double iqr_multiplier{3.0};
  /// CV values at which the respective sub-score reaches zero.
  double interval_cv_floor{0.35};
  double amplitude_cv_floor{0.60};
  /// Artefact fraction at which that sub-score reaches zero.
  double artifact_fraction_floor{0.10};
  /// Pulse-to-noise ratio (mean beat amplitude over the high-frequency
  /// residual) at which the pulse-significance sub-score saturates. Note
  /// that pure noise floors near ~5.5 (window extremes), so this is a soft
  /// score; the hard noise discriminator is shape consistency below.
  double pulse_snr_full_score{16.0};
  /// Minimum mean correlation of per-beat segments with their ensemble
  /// template. Real beats repeat a shape (≈0.8+ at a well-ranged converter);
  /// noise-locked detections do not (≈0.1–0.3). Coarse quantization of a
  /// weak-but-real pulse can also break the alignment, so a window is
  /// usable if EITHER the shape repeats OR the pulse towers over the noise
  /// (noise-locked windows floor near pulse_snr ≈ 5.5 and can do neither).
  double min_shape_consistency{0.5};
  /// Pulse SNR that certifies a real pulse even when quantization spoils
  /// the shape correlation.
  double strong_pulse_snr{10.0};
  /// Minimum beats for a meaningful assessment.
  std::size_t min_beats{4};
};

struct QualityReport {
  double sqi{0.0};                ///< overall index in [0, 1]
  double interval_cv{0.0};        ///< beat-interval coefficient of variation
  double amplitude_cv{0.0};       ///< pulse-amplitude coefficient of variation
  double artifact_fraction{0.0};  ///< fraction of envelope-outlier samples
  double pulse_snr{0.0};          ///< mean beat amplitude / hf residual rms
  double shape_consistency{0.0};  ///< mean beat-vs-template correlation
  std::size_t beat_count{0};
  bool usable{false};             ///< sqi ≥ 0.5, consistent shape, enough beats
};

class SignalQualityAssessor {
 public:
  explicit SignalQualityAssessor(const QualityConfig& config = {});

  /// Grades one waveform window sampled at `sample_rate_hz` from `beats`,
  /// the caller's BeatDetector analysis of that same window (window-relative
  /// times). Total over all inputs: empty and single-sample windows return a
  /// finite all-zero report (usable == false), never NaN — degenerate
  /// windows are exactly where an unattended monitor needs a trustworthy
  /// "not usable" verdict.
  [[nodiscard]] QualityReport assess(std::span<const double> window, const BeatAnalysis& beats,
                                     double sample_rate_hz) const;

  [[nodiscard]] const QualityConfig& config() const noexcept { return config_; }

 private:
  QualityConfig config_;
};

}  // namespace tono::core
