// imaging.hpp — tactile imaging with the sensor array.
//
// The paper's §2 uses the array for vessel localization; its references
// [3, 4] are tactile-imaging sensors. This module drives the array as an
// imager: it scans every element in sequence through the shared ΔΣ readout
// (respecting the §2.2 settling constraint) and assembles pressure-map
// frames. Frame rate is set by the converter bandwidth, not the mux:
//   frame_time = elements × (settle + dwell) / output_rate.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/pipeline.hpp"

namespace tono::core {

struct ImagerConfig {
  /// Output samples discarded after each element switch (filter transient).
  std::size_t settle_samples{12};
  /// Output samples averaged per pixel.
  std::size_t dwell_samples{4};
};

/// One scanned frame: row-major normalized pixel values.
struct TactileFrame {
  std::size_t rows{0};
  std::size_t cols{0};
  double start_s{0.0};
  double end_s{0.0};
  std::vector<double> pixels;  ///< mean output value per element

  [[nodiscard]] double at(std::size_t row, std::size_t col) const {
    return pixels.at(row * cols + col);
  }
};

class TactileImager {
 public:
  explicit TactileImager(const ImagerConfig& config = {});

  /// Flat-field calibration. Each element's capacitance mismatch
  /// (ChipConfig::element_mismatch_sigma) offsets its pixel by more than a
  /// physiological pressure gradient across the die moves it — an image
  /// sensor's fixed-pattern noise. This scans `frames` frames of the
  /// pipeline's array under a uniform reference field and keeps their
  /// per-pixel mean; every later capture subtracts it, so a pixel reads its
  /// element's change from the reference. Throws std::invalid_argument if
  /// `frames` is 0.
  void calibrate(AcquisitionPipeline& pipeline, const ContactField& reference,
                 std::size_t frames = 4);
  /// The stored flat-field frame, row-major; empty until calibrate().
  [[nodiscard]] const std::vector<double>& flat_field() const noexcept {
    return flat_field_;
  }

  /// Scans one frame over the pipeline's array under the contact field,
  /// minus the flat field once calibrated. Throws std::invalid_argument if
  /// the flat field was taken on an array of another size.
  [[nodiscard]] TactileFrame capture(AcquisitionPipeline& pipeline,
                                     const ContactField& field) const;

  /// Captures a sequence of frames back to back.
  [[nodiscard]] std::vector<TactileFrame> capture_sequence(AcquisitionPipeline& pipeline,
                                                           const ContactField& field,
                                                           std::size_t frames) const;

  /// Achievable frame rate for a given array/pipeline [frames/s].
  [[nodiscard]] double frame_rate_hz(const AcquisitionPipeline& pipeline) const;

  [[nodiscard]] const ImagerConfig& config() const noexcept { return config_; }

 private:
  ImagerConfig config_;
  std::vector<double> flat_field_;  ///< per-pixel reference; empty = raw
};

}  // namespace tono::core
