#include "src/core/imaging.hpp"

#include <stdexcept>
#include <utility>

namespace tono::core {

TactileImager::TactileImager(const ImagerConfig& config) : config_(config) {
  if (config_.dwell_samples == 0) {
    throw std::invalid_argument{"TactileImager: dwell must be > 0"};
  }
}

void TactileImager::calibrate(AcquisitionPipeline& pipeline,
                              const ContactField& reference, std::size_t frames) {
  if (frames == 0) {
    throw std::invalid_argument{"TactileImager: flat field needs frames > 0"};
  }
  flat_field_.clear();  // the reference frames are read raw
  std::vector<double> sum(pipeline.array().rows() * pipeline.array().cols(), 0.0);
  for (std::size_t i = 0; i < frames; ++i) {
    const auto frame = capture(pipeline, reference);
    for (std::size_t p = 0; p < sum.size(); ++p) sum[p] += frame.pixels[p];
  }
  for (auto& v : sum) v /= static_cast<double>(frames);
  flat_field_ = std::move(sum);
}

TactileFrame TactileImager::capture(AcquisitionPipeline& pipeline,
                                    const ContactField& field) const {
  TactileFrame frame;
  frame.rows = pipeline.array().rows();
  frame.cols = pipeline.array().cols();
  if (!flat_field_.empty() && flat_field_.size() != frame.rows * frame.cols) {
    throw std::invalid_argument{"TactileImager: flat field is for another array size"};
  }
  frame.start_s = pipeline.time_s();
  frame.pixels.reserve(frame.rows * frame.cols);
  for (std::size_t r = 0; r < frame.rows; ++r) {
    for (std::size_t c = 0; c < frame.cols; ++c) {
      pipeline.select(r, c);
      if (config_.settle_samples > 0) {
        (void)pipeline.acquire(field, config_.settle_samples);
      }
      const auto window = pipeline.acquire(field, config_.dwell_samples);
      double acc = 0.0;
      for (const auto& s : window) acc += s.value;
      const double pixel = acc / static_cast<double>(window.size());
      frame.pixels.push_back(flat_field_.empty()
                                 ? pixel
                                 : pixel - flat_field_[frame.pixels.size()]);
    }
  }
  frame.end_s = pipeline.time_s();
  return frame;
}

std::vector<TactileFrame> TactileImager::capture_sequence(AcquisitionPipeline& pipeline,
                                                          const ContactField& field,
                                                          std::size_t frames) const {
  std::vector<TactileFrame> out;
  out.reserve(frames);
  for (std::size_t i = 0; i < frames; ++i) out.push_back(capture(pipeline, field));
  return out;
}

double TactileImager::frame_rate_hz(const AcquisitionPipeline& pipeline) const {
  const double per_element =
      static_cast<double>(config_.settle_samples + config_.dwell_samples) /
      pipeline.output_rate_hz();
  const auto elements =
      static_cast<double>(pipeline.array().rows() * pipeline.array().cols());
  return 1.0 / (per_element * elements);
}

}  // namespace tono::core
