#include "src/core/holddown.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/statistics.hpp"

namespace tono::core {
namespace {

constexpr double kGoldenRatio = 0.6180339887498949;

}  // namespace

HoldDownOptimizer::HoldDownOptimizer(const HoldDownConfig& config) : config_(config) {
  if (config_.min_mmhg <= 0.0 || config_.max_mmhg <= config_.min_mmhg) {
    throw std::invalid_argument{"HoldDownOptimizer: bad pressure range"};
  }
  if (config_.coarse_steps < 3) {
    throw std::invalid_argument{"HoldDownOptimizer: need >= 3 coarse steps"};
  }
  if (config_.dwell_samples < 100) {
    throw std::invalid_argument{"HoldDownOptimizer: dwell too short"};
  }
}

double HoldDownOptimizer::evaluate(const ChipConfig& chip, const WristModel& wrist,
                                   double hold_down_mmhg) const {
  WristModel candidate = wrist;
  candidate.hold_down_mmhg = hold_down_mmhg;
  BloodPressureMonitor monitor{chip, candidate};
  auto field = monitor.contact_field();
  auto& pipe = monitor.pipeline();
  // Drop the filter transient, then measure robust peak-to-peak.
  (void)pipe.acquire(field, 64);
  const auto window = pipe.acquire(field, config_.dwell_samples);
  std::vector<double> values;
  values.reserve(window.size());
  for (const auto& s : window) values.push_back(s.value);
  const auto [p5, p95] = percentiles(values, 5.0, 95.0);
  return p95 - p5;
}

HoldDownResult HoldDownOptimizer::optimize(const ChipConfig& chip,
                                           const WristModel& wrist) const {
  HoldDownResult result;

  // Coarse sweep.
  double best = config_.min_mmhg;
  double best_amp = -1.0;
  for (std::size_t i = 0; i < config_.coarse_steps; ++i) {
    const double hd = config_.min_mmhg +
                      (config_.max_mmhg - config_.min_mmhg) *
                          static_cast<double>(i) /
                          static_cast<double>(config_.coarse_steps - 1);
    const double amp = evaluate(chip, wrist, hd);
    result.profile.emplace_back(hd, amp);
    if (amp > best_amp) {
      best_amp = amp;
      best = hd;
    }
  }

  // Golden-section refinement around the coarse winner.
  const double step = (config_.max_mmhg - config_.min_mmhg) /
                      static_cast<double>(config_.coarse_steps - 1);
  double lo = std::max(config_.min_mmhg, best - step);
  double hi = std::min(config_.max_mmhg, best + step);
  double x1 = hi - kGoldenRatio * (hi - lo);
  double x2 = lo + kGoldenRatio * (hi - lo);
  double f1 = evaluate(chip, wrist, x1);
  double f2 = evaluate(chip, wrist, x2);
  result.profile.emplace_back(x1, f1);
  result.profile.emplace_back(x2, f2);
  for (std::size_t i = 0; i < config_.refine_iterations; ++i) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kGoldenRatio * (hi - lo);
      f2 = evaluate(chip, wrist, x2);
      result.profile.emplace_back(x2, f2);
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kGoldenRatio * (hi - lo);
      f1 = evaluate(chip, wrist, x1);
      result.profile.emplace_back(x1, f1);
    }
  }
  const double refined = 0.5 * (lo + hi);
  const double refined_amp = std::max(f1, f2);
  if (refined_amp > best_amp) {
    result.best_mmhg = refined;
    result.best_amplitude = refined_amp;
  } else {
    result.best_mmhg = best;
    result.best_amplitude = best_amp;
  }
  return result;
}

}  // namespace tono::core
