#include "src/core/streaming_monitor.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/checkpoint.hpp"

namespace tono::core {

std::string to_string(AlarmKind kind) {
  switch (kind) {
    case AlarmKind::kSystolicLow: return "systolic-low";
    case AlarmKind::kSystolicHigh: return "systolic-high";
    case AlarmKind::kDiastolicLow: return "diastolic-low";
    case AlarmKind::kDiastolicHigh: return "diastolic-high";
    case AlarmKind::kRateLow: return "rate-low";
    case AlarmKind::kRateHigh: return "rate-high";
  }
  return "unknown";
}

StreamingMonitor::StreamingMonitor(const StreamingConfig& config) : config_(config) {
  if (config_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument{"StreamingMonitor: sample rate must be > 0"};
  }
  if (config_.window_s < 3.0 || config_.hop_s <= 0.0 || config_.hop_s > config_.window_s) {
    throw std::invalid_argument{"StreamingMonitor: need window >= 3 s and 0 < hop <= window"};
  }
  if (config_.limits.confirm_beats == 0) {
    throw std::invalid_argument{"StreamingMonitor: confirm_beats must be > 0"};
  }
  window_samples_ = static_cast<std::size_t>(config_.window_s * config_.sample_rate_hz);
  // A hop shorter than one sample hops on every sample, exactly as a
  // one-sample hop does.
  hop_samples_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.hop_s * config_.sample_rate_hz));
  // push() compacts only at hops, so the buffer peaks at window + hop
  // samples: reserve all of it once, and neither push() nor restore()
  // reallocates.
  buffer_.reserve(window_samples_ + hop_samples_);
  alarm_states_.assign(6, AlarmState{});
  auto& reg = metrics::Registry::global();
  alarms_raised_metric_ = &reg.counter(metrics::names::kMonitorAlarmsRaised);
  alarm_latency_gauge_ = &reg.gauge(metrics::names::kMonitorAlarmLatencyS);
  config_.detector.sample_rate_hz = config_.sample_rate_hz;
}

void StreamingMonitor::serialize(CheckpointWriter& out) const {
  out.section("streaming_monitor");
  out.size(buffer_.size());
  for (double v : buffer_) out.f64(v);
  out.size(since_hop_);
  out.f64(time_s_);
  out.f64(buffer_start_s_);
  out.f64(last_emitted_beat_s_);
  out.size(beats_emitted_);
  out.f64(last_rate_bpm_);
  out.size(alarm_states_.size());
  for (const auto& state : alarm_states_) {
    out.size(state.violations);
    out.size(state.recoveries);
    out.boolean(state.active);
    out.f64(state.first_violation_s);
  }
}

void StreamingMonitor::restore(CheckpointReader& in) {
  in.section("streaming_monitor");
  // Between pushes the buffer holds at most window + hop − 1 samples.
  const std::size_t buffered = in.size();
  if (buffered >= window_samples_ + hop_samples_) {
    throw CheckpointError{"streaming monitor checkpoint window overflows config"};
  }
  buffer_.resize(buffered);
  for (auto& v : buffer_) v = in.f64();
  since_hop_ = in.size();
  // Accept exactly the states push() reaches: while the first window fills,
  // every sample counts toward the hop; after it, the buffer is the window
  // plus the samples of the hop in progress.
  const bool filling = buffered < window_samples_ && since_hop_ == buffered;
  const bool hopping =
      buffered == window_samples_ + since_hop_ && since_hop_ < hop_samples_;
  if (!filling && !hopping) {
    throw CheckpointError{"streaming monitor checkpoint hop state does not match its window"};
  }
  time_s_ = in.f64();
  buffer_start_s_ = in.f64();
  last_emitted_beat_s_ = in.f64();
  beats_emitted_ = in.size();
  last_rate_bpm_ = in.f64();
  if (in.size() != alarm_states_.size()) {
    throw CheckpointError{"streaming monitor checkpoint alarm count mismatch"};
  }
  for (auto& state : alarm_states_) {
    state.violations = in.size();
    state.recoveries = in.size();
    state.active = in.boolean();
    state.first_violation_s = in.f64();
  }
}

void StreamingMonitor::push(double mmhg) {
  buffer_.push_back(mmhg);
  time_s_ += 1.0 / config_.sample_rate_hz;
  if (++since_hop_ >= hop_samples_ && buffer_.size() >= window_samples_) {
    since_hop_ = 0;
    // Compact once per hop (amortized O(1) per sample): keep exactly the
    // trailing analysis window.
    if (buffer_.size() > window_samples_) {
      const std::size_t excess = buffer_.size() - window_samples_;
      buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(excess));
      buffer_start_s_ += static_cast<double>(excess) / config_.sample_rate_hz;
    }
    process_window();
  }
}

void StreamingMonitor::push(const std::vector<double>& mmhg) {
  for (double v : mmhg) push(v);
}

void StreamingMonitor::process_window() {
  // One analysis per hop, in window-relative time: the quality gate grades
  // it, and its beats move to stream time only as they are emitted.
  const auto analysis = BeatDetector{config_.detector}.analyze(buffer_);
  const auto quality =
      SignalQualityAssessor{config_.quality}.assess(buffer_, analysis, config_.sample_rate_hz);
  if (quality_cb_) quality_cb_(quality, time_s_);
  if (config_.gate_on_quality && !quality.usable) return;

  for (const auto& window_beat : analysis.beats) {
    const Beat beat = window_beat.shifted(buffer_start_s_);
    // Emit each beat exactly once across overlapping windows. Skip beats in
    // the last second of the window: their peak/foot search windows may be
    // truncated, and the next hop will see them completely.
    if (beat.upstroke_s <= last_emitted_beat_s_ + 0.05) continue;
    if (beat.upstroke_s > buffer_start_s_ + config_.window_s - 1.0) continue;
    last_emitted_beat_s_ = beat.upstroke_s;
    ++beats_emitted_;
    if (beat_cb_) beat_cb_(beat);
    last_rate_bpm_ = analysis.heart_rate_bpm;
    evaluate_alarms(beat, analysis.heart_rate_bpm);
  }
}

void StreamingMonitor::check_limit(AlarmKind kind, double value, double low, double high,
                                   double time_s) {
  auto& state = alarm_states_[static_cast<std::size_t>(kind)];
  const bool violating = (kind == AlarmKind::kSystolicLow ||
                          kind == AlarmKind::kDiastolicLow || kind == AlarmKind::kRateLow)
                             ? value < low
                             : value > high;
  if (violating) {
    state.recoveries = 0;
    if (!state.active) {
      if (state.violations == 0) state.first_violation_s = time_s;
      if (++state.violations >= config_.limits.confirm_beats) {
        state.active = true;
        state.violations = 0;
        alarms_raised_metric_->add(1);
        alarm_latency_gauge_->set(time_s - state.first_violation_s);
        if (alarm_cb_) alarm_cb_(AlarmEvent{kind, true, time_s, value});
      }
    }
  } else {
    state.violations = 0;
    if (state.active && ++state.recoveries >= config_.limits.confirm_beats) {
      state.active = false;
      state.recoveries = 0;
      if (alarm_cb_) alarm_cb_(AlarmEvent{kind, false, time_s, value});
    }
  }
}

void StreamingMonitor::evaluate_alarms(const Beat& beat, double rate_bpm) {
  const auto& lim = config_.limits;
  check_limit(AlarmKind::kSystolicLow, beat.systolic_value, lim.systolic_low_mmhg, 1e9,
              beat.peak_s);
  check_limit(AlarmKind::kSystolicHigh, beat.systolic_value, -1e9, lim.systolic_high_mmhg,
              beat.peak_s);
  check_limit(AlarmKind::kDiastolicLow, beat.diastolic_value, lim.diastolic_low_mmhg, 1e9,
              beat.foot_s);
  check_limit(AlarmKind::kDiastolicHigh, beat.diastolic_value, -1e9,
              lim.diastolic_high_mmhg, beat.foot_s);
  if (rate_bpm > 0.0) {
    check_limit(AlarmKind::kRateLow, rate_bpm, lim.rate_low_bpm, 1e9, beat.peak_s);
    check_limit(AlarmKind::kRateHigh, rate_bpm, -1e9, lim.rate_high_bpm, beat.peak_s);
  }
}

bool StreamingMonitor::alarm_active(AlarmKind kind) const {
  return alarm_states_[static_cast<std::size_t>(kind)].active;
}

}  // namespace tono::core
