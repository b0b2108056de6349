// calibration.hpp — cuff-anchored two-point calibration (§3.2, Fig. 9).
//
// "The acquired signal is relative to the pressure applied to the skin
// surface … In order to get absolute pressure values, a calibration has to
// be performed … by measuring the systolic and diastolic pressure with a
// conventional hand cuff device."
//
// The tonometer output is affine in arterial pressure (tissue gain ×
// transducer sensitivity × converter gain), so anchoring the waveform's
// per-beat maxima to the cuff systolic value and minima to the cuff
// diastolic value determines the map  mmHg = gain · value + offset.
#pragma once

#include <span>

#include "src/core/beat_detection.hpp"

namespace tono {
class CheckpointReader;
class CheckpointWriter;
}  // namespace tono

namespace tono::core {

/// Affine calibration value → mmHg.
class TwoPointCalibration {
 public:
  /// Identity (uncalibrated) map.
  TwoPointCalibration() = default;

  /// Directly from two anchor pairs (value_hi → sys, value_lo → dia).
  /// Throws std::invalid_argument if the anchors are degenerate.
  TwoPointCalibration(double value_at_systolic, double value_at_diastolic,
                      double cuff_systolic_mmhg, double cuff_diastolic_mmhg);

  /// Fits from a beat analysis of the calibration waveform: anchors its
  /// mean per-beat systolic/diastolic values to the cuff reading. Throws
  /// std::runtime_error if the analysis holds fewer than `min_beats` beats.
  [[nodiscard]] static TwoPointCalibration from_beats(const BeatAnalysis& beats,
                                                      double cuff_systolic_mmhg,
                                                      double cuff_diastolic_mmhg,
                                                      std::size_t min_beats = 5);

  [[nodiscard]] double to_mmhg(double value) const noexcept {
    return gain_ * value + offset_;
  }
  [[nodiscard]] double to_value(double mmhg) const noexcept {
    return (mmhg - offset_) / gain_;
  }

  /// Applies to a whole record.
  [[nodiscard]] std::vector<double> apply(std::span<const double> values) const;

  [[nodiscard]] double gain_mmhg_per_unit() const noexcept { return gain_; }
  [[nodiscard]] double offset_mmhg() const noexcept { return offset_; }
  [[nodiscard]] bool is_identity() const noexcept { return gain_ == 1.0 && offset_ == 0.0; }

  /// Calibration after a converter range change: when the full scale is
  /// multiplied by `full_scale_ratio` (e.g. a feedback-capacitor switch),
  /// raw values shrink by that ratio, so the gain grows by it. The offset
  /// (mmHg at raw 0) is unchanged.
  [[nodiscard]] TwoPointCalibration rescaled(double full_scale_ratio) const;

  /// Checkpointing: the fitted gain/offset pair (the cuff anchor). Unlike
  /// the 4-arg constructor this accepts the identity map unchanged.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  double gain_{1.0};
  double offset_{0.0};
};

}  // namespace tono::core
