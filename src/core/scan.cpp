#include "src/core/scan.hpp"

#include <stdexcept>

#include "src/common/statistics.hpp"

namespace tono::core {

ScanController::ScanController(const ScanConfig& config) : config_(config) {
  if (config_.dwell_samples == 0) {
    throw std::invalid_argument{"ScanController: dwell must be > 0"};
  }
  if (config_.low_percentile >= config_.high_percentile) {
    throw std::invalid_argument{"ScanController: bad percentile span"};
  }
}

ScanResult ScanController::scan(AcquisitionPipeline& pipeline,
                                const ContactField& field) const {
  ScanResult result;
  const std::size_t rows = pipeline.array().rows();
  const std::size_t cols = pipeline.array().cols();
  result.elements.reserve(rows * cols);

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      pipeline.select(r, c);
      // Discard the decimation-chain transient after the switch.
      auto settle = pipeline.acquire(field, config_.settle_samples);
      (void)settle;
      const auto window = pipeline.acquire(field, config_.dwell_samples);
      std::vector<double> values;
      values.reserve(window.size());
      for (const auto& s : window) values.push_back(s.value);

      ElementSignal sig;
      sig.row = r;
      sig.col = c;
      const auto [low, high] =
          percentiles(values, config_.low_percentile, config_.high_percentile);
      sig.amplitude = high - low;
      sig.mean_level = mean(values);
      result.elements.push_back(sig);

      if (sig.amplitude > result.best_amplitude) {
        result.best_amplitude = sig.amplitude;
        result.best_row = r;
        result.best_col = c;
      }
    }
  }
  pipeline.select(result.best_row, result.best_col);
  return result;
}

}  // namespace tono::core
