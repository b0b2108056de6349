#include "src/core/beat_detection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/statistics.hpp"
#include "src/dsp/biquad.hpp"

namespace tono::core {

BeatDetector::BeatDetector(const BeatDetectorConfig& config) : config_(config) {
  if (config_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument{"BeatDetector: sample rate must be > 0"};
  }
  if (config_.lowpass_hz <= config_.highpass_hz) {
    throw std::invalid_argument{"BeatDetector: lowpass must exceed highpass"};
  }
  if (config_.threshold_fraction <= 0.0 || config_.threshold_fraction >= 1.0) {
    throw std::invalid_argument{"BeatDetector: threshold fraction must be in (0,1)"};
  }
}

BeatAnalysis BeatDetector::analyze(std::span<const double> samples) const {
  BeatAnalysis out;
  const double fs = config_.sample_rate_hz;
  const auto n = samples.size();
  if (n < static_cast<std::size_t>(fs)) return out;  // need at least 1 s

  // Detection band: remove wander, limit to the pulse band.
  dsp::BiquadCascade band;
  band.add(dsp::Biquad::highpass(config_.highpass_hz, fs));
  band.add(dsp::Biquad::lowpass(config_.lowpass_hz, fs));
  const auto filtered = band.process(samples);

  // Band-limited derivative.
  std::vector<double> slope(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) slope[i] = (filtered[i] - filtered[i - 1]) * fs;

  // Adaptive threshold: exponentially decaying running peak of the slope.
  const double decay = std::exp(-1.0 / (config_.peak_decay_s * fs));
  const auto refractory = static_cast<std::size_t>(config_.refractory_s * fs);
  const auto foot_win = static_cast<std::size_t>(config_.foot_window_s * fs);
  const auto peak_win = static_cast<std::size_t>(config_.peak_window_s * fs);

  // The detection filters need ~1 s to forget their zero initial state; the
  // warmup transient would otherwise poison the adaptive threshold (and look
  // like a giant first upstroke). Skip it for both seeding and detection.
  const auto warmup = static_cast<std::size_t>(fs);
  if (n < 2 * warmup) return out;
  double running_peak = 0.0;
  for (std::size_t i = warmup; i < 2 * warmup; ++i) {
    running_peak = std::max(running_peak, slope[i]);
  }
  if (running_peak <= 0.0) return out;

  std::vector<std::size_t> upstrokes;
  std::size_t last_up = 0;
  bool armed = true;
  for (std::size_t i = warmup + 1; i < n; ++i) {
    running_peak *= decay;
    running_peak = std::max(running_peak, slope[i]);
    const double threshold = config_.threshold_fraction * running_peak;
    const bool past_refractory = upstrokes.empty() || i - last_up >= refractory;
    if (armed && past_refractory && slope[i] >= threshold && slope[i] > 0.0) {
      // Local slope maximum: wait until the slope starts dropping.
      if (i + 1 < n && slope[i + 1] < slope[i]) {
        upstrokes.push_back(i);
        last_up = i;
        armed = false;
      }
    }
    if (!armed && slope[i] < 0.0) armed = true;  // re-arm after the peak
  }

  // Expand upstrokes into beats.
  for (std::size_t b = 0; b < upstrokes.size(); ++b) {
    const std::size_t up = upstrokes[b];
    const std::size_t foot_lo = up > foot_win ? up - foot_win : 0;
    std::size_t foot = foot_lo;
    for (std::size_t i = foot_lo; i <= up; ++i) {
      if (samples[i] < samples[foot]) foot = i;
    }
    const std::size_t peak_hi = std::min(up + peak_win, n - 1);
    std::size_t peak = up;
    for (std::size_t i = up; i <= peak_hi; ++i) {
      if (samples[i] > samples[peak]) peak = i;
    }
    // Mean over this beat: foot to the next beat's foot (or record end).
    const std::size_t span_end =
        (b + 1 < upstrokes.size())
            ? std::min(upstrokes[b + 1], n - 1)
            : n - 1;
    double mean_acc = 0.0;
    std::size_t mean_n = 0;
    for (std::size_t i = foot; i <= span_end; ++i) {
      mean_acc += samples[i];
      ++mean_n;
    }
    Beat beat;
    beat.upstroke_s = static_cast<double>(up) / fs;
    beat.foot_s = static_cast<double>(foot) / fs;
    beat.peak_s = static_cast<double>(peak) / fs;
    beat.systolic_value = samples[peak];
    beat.diastolic_value = samples[foot];
    beat.mean_value = mean_n > 0 ? mean_acc / static_cast<double>(mean_n) : samples[up];
    // A beat with no pulse amplitude is a filter-transient artefact (e.g. a
    // threshold crossing on a constant record), not a heart beat. A beat
    // whose peak coincides with the previous beat's is a double-fire on the
    // same pulse.
    const bool duplicate = !out.beats.empty() && out.beats.back().peak_s == beat.peak_s;
    if (beat.systolic_value > beat.diastolic_value && !duplicate) {
      out.beats.push_back(beat);
    }
  }

  // Reject dicrotic-wave false triggers: their pulse amplitude is a small
  // fraction of a real beat's. The reference is the upper-quartile
  // amplitude, not the median: in a slow heart's long diastole the
  // secondary waves can outnumber the beats, and the median sits among them.
  if (out.beats.size() >= 3 && config_.min_amplitude_fraction > 0.0) {
    std::vector<double> amps;
    amps.reserve(out.beats.size());
    for (const auto& b : out.beats) amps.push_back(b.systolic_value - b.diastolic_value);
    const double floor_amp = config_.min_amplitude_fraction * percentile(amps, 75.0);
    std::vector<Beat> kept;
    kept.reserve(out.beats.size());
    for (const auto& b : out.beats) {
      if (b.systolic_value - b.diastolic_value >= floor_amp) kept.push_back(b);
    }
    out.beats = std::move(kept);
  }

  // Adaptive refractory: strongly augmented morphologies can trigger on the
  // secondary wave with near-beat amplitude. Any pair of detections closer
  // than half the median interval is one heart beat — keep the larger.
  if (out.beats.size() >= 4) {
    std::vector<double> raw_intervals;
    raw_intervals.reserve(out.beats.size() - 1);
    for (std::size_t b = 1; b < out.beats.size(); ++b) {
      raw_intervals.push_back(out.beats[b].upstroke_s - out.beats[b - 1].upstroke_s);
    }
    const double med_iv = median(raw_intervals);
    std::vector<Beat> kept;
    kept.reserve(out.beats.size());
    for (const auto& b : out.beats) {
      if (!kept.empty() && b.upstroke_s - kept.back().upstroke_s < 0.5 * med_iv) {
        const double amp_new = b.systolic_value - b.diastolic_value;
        const double amp_prev = kept.back().systolic_value - kept.back().diastolic_value;
        if (amp_new > amp_prev) kept.back() = b;
        continue;
      }
      kept.push_back(b);
    }
    out.beats = std::move(kept);
  }

  if (out.beats.empty()) return out;

  double sys_acc = 0.0;
  double dia_acc = 0.0;
  double map_acc = 0.0;
  for (const auto& beat : out.beats) {
    sys_acc += beat.systolic_value;
    dia_acc += beat.diastolic_value;
    map_acc += beat.mean_value;
  }
  const auto nb = static_cast<double>(out.beats.size());
  out.mean_systolic = sys_acc / nb;
  out.mean_diastolic = dia_acc / nb;
  out.mean_map = map_acc / nb;

  if (out.beats.size() >= 2) {
    std::vector<double> intervals;
    intervals.reserve(out.beats.size() - 1);
    for (std::size_t b = 1; b < out.beats.size(); ++b) {
      intervals.push_back(out.beats[b].upstroke_s - out.beats[b - 1].upstroke_s);
    }
    // Median interval for the rate: robust against the double-length gap a
    // single missed beat leaves behind.
    out.heart_rate_bpm = 60.0 / median(intervals);
    double mean_iv = 0.0;
    for (double iv : intervals) mean_iv += iv;
    mean_iv /= static_cast<double>(intervals.size());
    double var = 0.0;
    for (double iv : intervals) var += (iv - mean_iv) * (iv - mean_iv);
    out.interval_stddev_s = std::sqrt(var / static_cast<double>(intervals.size()));
  }
  return out;
}

}  // namespace tono::core
