// beat_detection.hpp — beat segmentation and per-beat feature extraction on
// the 1 kS/s pressure stream.
//
// Upstroke detection on the band-limited derivative with an adaptive
// threshold and a physiological refractory period; each detected upstroke is
// expanded into a beat record (foot = diastolic minimum before the upstroke,
// peak = systolic maximum after it). Works on raw ADC values or calibrated
// mmHg alike, since the mapping is affine.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tono::core {

struct BeatDetectorConfig {
  double sample_rate_hz{1000.0};
  /// Band limits for the detection filter.
  double highpass_hz{0.5};
  double lowpass_hz{16.0};
  /// Threshold as a fraction of the running derivative-peak estimate.
  double threshold_fraction{0.40};
  /// Decay time of the running peak estimate [s].
  double peak_decay_s{2.0};
  /// Minimum time between beats [s] (refractory; 0.3 s ≈ 200 bpm).
  double refractory_s{0.3};
  /// Search windows around the upstroke for foot and peak [s].
  double foot_window_s{0.35};
  double peak_window_s{0.45};
  /// Beats with pulse amplitude below this fraction of the upper-quartile
  /// detection amplitude are rejected (dicrotic-wave false triggers).
  double min_amplitude_fraction{0.4};
};

/// One detected beat.
struct Beat {
  double upstroke_s{0.0};   ///< time of maximum slope
  double foot_s{0.0};       ///< diastolic foot time
  double peak_s{0.0};       ///< systolic peak time
  double systolic_value{0.0};
  double diastolic_value{0.0};
  double mean_value{0.0};   ///< mean over foot..next-foot (or available span)

  /// The same beat with its times moved by `t0_s` (window → stream time).
  [[nodiscard]] Beat shifted(double t0_s) const noexcept {
    return Beat{t0_s + upstroke_s, t0_s + foot_s, t0_s + peak_s,
                systolic_value, diastolic_value, mean_value};
  }
};

struct BeatAnalysis {
  std::vector<Beat> beats;
  double mean_systolic{0.0};
  double mean_diastolic{0.0};
  double mean_map{0.0};
  double heart_rate_bpm{0.0};
  /// Standard deviation of beat intervals (HRV proxy) [s].
  double interval_stddev_s{0.0};
};

class BeatDetector {
 public:
  explicit BeatDetector(const BeatDetectorConfig& config = {});

  /// Detects beats over a full record, in record-relative time (samples[0]
  /// at 0 s); Beat::shifted moves them to stream time.
  [[nodiscard]] BeatAnalysis analyze(std::span<const double> samples) const;

  [[nodiscard]] const BeatDetectorConfig& config() const noexcept { return config_; }

 private:
  BeatDetectorConfig config_;
};

}  // namespace tono::core
