#include "src/core/calibration.hpp"

#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"

namespace tono::core {

TwoPointCalibration::TwoPointCalibration(double value_at_systolic, double value_at_diastolic,
                                         double cuff_systolic_mmhg,
                                         double cuff_diastolic_mmhg) {
  const double dv = value_at_systolic - value_at_diastolic;
  const double dp = cuff_systolic_mmhg - cuff_diastolic_mmhg;
  if (std::abs(dv) < 1e-12 || dp <= 0.0) {
    throw std::invalid_argument{"TwoPointCalibration: degenerate anchors"};
  }
  gain_ = dp / dv;
  offset_ = cuff_diastolic_mmhg - gain_ * value_at_diastolic;
}

TwoPointCalibration TwoPointCalibration::from_beats(const BeatAnalysis& beats,
                                                    double cuff_systolic_mmhg,
                                                    double cuff_diastolic_mmhg,
                                                    std::size_t min_beats) {
  if (beats.beats.size() < min_beats) {
    throw std::runtime_error{"TwoPointCalibration: not enough beats in calibration window"};
  }
  return TwoPointCalibration{beats.mean_systolic, beats.mean_diastolic, cuff_systolic_mmhg,
                             cuff_diastolic_mmhg};
}

TwoPointCalibration TwoPointCalibration::rescaled(double full_scale_ratio) const {
  if (full_scale_ratio <= 0.0) {
    throw std::invalid_argument{"TwoPointCalibration::rescaled: ratio must be > 0"};
  }
  TwoPointCalibration out;
  out.gain_ = gain_ * full_scale_ratio;
  out.offset_ = offset_;
  return out;
}

void TwoPointCalibration::serialize(CheckpointWriter& out) const {
  out.section("calibration");
  out.f64(gain_);
  out.f64(offset_);
}

void TwoPointCalibration::restore(CheckpointReader& in) {
  in.section("calibration");
  gain_ = in.f64();
  offset_ = in.f64();
  if (!(gain_ != 0.0) || !std::isfinite(gain_) || !std::isfinite(offset_)) {
    throw CheckpointError{"calibration checkpoint gain/offset invalid"};
  }
}

std::vector<double> TwoPointCalibration::apply(std::span<const double> values) const {
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(to_mmhg(v));
  return out;
}

}  // namespace tono::core
