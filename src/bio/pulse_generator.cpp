#include "src/bio/pulse_generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"
#include "src/common/units.hpp"

namespace tono::bio {

ArterialPulseGenerator::ArterialPulseGenerator(const PulseConfig& config)
    : config_(config), beat_(config.morphology), rng_(config.seed) {
  if (config_.systolic_mmhg <= config_.diastolic_mmhg) {
    throw std::invalid_argument{"ArterialPulseGenerator: systolic must exceed diastolic"};
  }
  if (config_.heart_rate_bpm <= 20.0 || config_.heart_rate_bpm > 250.0) {
    throw std::invalid_argument{"ArterialPulseGenerator: implausible heart rate"};
  }
  start_new_beat(0.0);
}

void ArterialPulseGenerator::start_new_beat(double onset_s) {
  // Nominal interval modulated by Mayer wave, RSA and white jitter. All
  // slow-wave phases are evaluated at the beat's scheduled onset (not the
  // sampling clock), and every random draw happens here, once per beat, so
  // any sampling step — one that spans several beats included — produces
  // the same beat train.
  const double nominal = 60.0 / config_.heart_rate_bpm;
  const double mayer =
      config_.mayer_depth * std::sin(units::two_pi * config_.mayer_freq_hz * onset_s);
  const double rsa =
      config_.rsa_depth * std::sin(units::two_pi * config_.respiration_freq_hz * onset_s);
  const double jitter = config_.hrv_jitter * rng_.gaussian();
  double interval = nominal * (1.0 + mayer + rsa + jitter);
  // AF-like rhythm: large uniform interval spread on top of the modulation.
  if (config_.af_irregularity > 0.0) {
    interval *= 1.0 + config_.af_irregularity * rng_.uniform(-1.0, 1.0);
  }
  interval = std::max(interval, 0.3 * nominal);
  const double prev_interval = beat_interval_s_;
  // The setpoint drift is a random walk that only the per-beat setpoints
  // read, so it steps from onset to onset with variance σ²·(elapsed time):
  // the same law as any finer walk sampled at the onsets, and independent
  // of the rate the waveform is sampled at.
  if (onset_s > beat_start_s_) {
    drift_mmhg_ += config_.drift_mmhg_per_sqrt_s * std::sqrt(onset_s - beat_start_s_) *
                   rng_.gaussian();
  }
  beat_interval_s_ = interval;
  beat_start_s_ = onset_s;

  // Per-beat pressure setpoints: respiration modulates pulse pressure;
  // drift moves both endpoints.
  const double resp_pp =
      1.0 + config_.respiration_pp_depth *
                std::sin(units::two_pi * config_.respiration_freq_hz * onset_s);
  double pp = (config_.systolic_mmhg - config_.diastolic_mmhg) * resp_pp;
  if (config_.af_irregularity > 0.0) {
    // Short preceding interval → reduced ventricular filling → weaker beat
    // (the classic AF pulse-deficit mechanism).
    const double filling = std::clamp(prev_interval / nominal, 0.5, 1.5);
    pp *= 0.4 + 0.6 * filling;
  }
  beat_dia_mmhg_ = config_.diastolic_mmhg + drift_mmhg_;
  beat_sys_mmhg_ = beat_dia_mmhg_ + pp;

  cur_min_ = 1e9;
  cur_max_ = -1e9;
  cur_sum_ = 0.0;
  cur_n_ = 0;
}

void ArterialPulseGenerator::close_out_beat() {
  if (cur_n_ > 0) {
    push_truth(BeatTruth{beat_start_s_, beat_interval_s_, cur_max_, cur_min_,
                         cur_sum_ / static_cast<double>(cur_n_)});
  } else {
    // No samples landed inside this beat (dt spanned it entirely). It still
    // happened: record the setpoint truth so per-beat ground truth stays
    // contiguous instead of silently merging skipped beats into neighbours.
    const double pp = beat_sys_mmhg_ - beat_dia_mmhg_;
    push_truth(BeatTruth{beat_start_s_, beat_interval_s_, beat_sys_mmhg_, beat_dia_mmhg_,
                         beat_dia_mmhg_ + pp / 3.0});
  }
}

void ArterialPulseGenerator::push_truth(const BeatTruth& beat) {
  ++beats_completed_;
  truth_sum_sys_ += beat.systolic_mmhg;
  truth_sum_dia_ += beat.diastolic_mmhg;
  truth_.push_back(beat);
  if (config_.truth_capacity > 0) {
    // Amortized trim: let the log overshoot by 25% before one bulk erase,
    // so the steady-state cost is O(1) per beat, not O(capacity).
    const std::size_t cap = config_.truth_capacity;
    if (truth_.size() > cap + cap / 4) {
      const std::size_t excess = truth_.size() - cap;
      truth_.erase(truth_.begin(), truth_.begin() + static_cast<std::ptrdiff_t>(excess));
      truth_dropped_ += excess;
    }
  }
}

std::vector<BeatTruth> ArterialPulseGenerator::drain_truth() {
  std::vector<BeatTruth> out;
  out.swap(truth_);
  return out;
}

double ArterialPulseGenerator::sample(double dt_s) {
  if (dt_s <= 0.0) throw std::invalid_argument{"ArterialPulseGenerator: dt must be > 0"};
  time_s_ += dt_s;

  // Close out *every* beat the step crossed — a dt spanning several beat
  // intervals must emit each beat's truth, not merge them into one.
  while (time_s_ - beat_start_s_ >= beat_interval_s_) {
    close_out_beat();
    start_new_beat(beat_start_s_ + beat_interval_s_);
  }

  const double phase = (time_s_ - beat_start_s_) / beat_interval_s_;
  const double shape = beat_.value(phase);
  const double resp_baseline =
      config_.respiration_baseline_mmhg *
      std::sin(units::two_pi * config_.respiration_freq_hz * time_s_);
  const double p =
      beat_dia_mmhg_ + (beat_sys_mmhg_ - beat_dia_mmhg_) * shape + resp_baseline;

  cur_min_ = std::min(cur_min_, p);
  cur_max_ = std::max(cur_max_, p);
  cur_sum_ += p;
  ++cur_n_;
  return p;
}

std::vector<double> ArterialPulseGenerator::generate(double sample_rate_hz, std::size_t n) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument{"ArterialPulseGenerator: sample rate must be > 0"};
  }
  std::vector<double> out;
  out.reserve(n);
  const double dt = 1.0 / sample_rate_hz;
  for (std::size_t i = 0; i < n; ++i) out.push_back(sample(dt));
  return out;
}

void ArterialPulseGenerator::set_targets(double systolic_mmhg, double diastolic_mmhg,
                                         double heart_rate_bpm) {
  if (systolic_mmhg <= diastolic_mmhg) {
    throw std::invalid_argument{"set_targets: systolic must exceed diastolic"};
  }
  if (heart_rate_bpm <= 20.0 || heart_rate_bpm > 250.0) {
    throw std::invalid_argument{"set_targets: implausible heart rate"};
  }
  config_.systolic_mmhg = systolic_mmhg;
  config_.diastolic_mmhg = diastolic_mmhg;
  config_.heart_rate_bpm = heart_rate_bpm;
}

PulseConfig PatientPresets::normotensive() { return PulseConfig{}; }

PulseConfig PatientPresets::hypertensive() {
  PulseConfig c;
  c.systolic_mmhg = 165.0;
  c.diastolic_mmhg = 102.0;
  c.heart_rate_bpm = 80.0;
  c.seed = 11;
  return c;
}

PulseConfig PatientPresets::hypotensive() {
  PulseConfig c;
  c.systolic_mmhg = 95.0;
  c.diastolic_mmhg = 60.0;
  c.heart_rate_bpm = 64.0;
  c.seed = 12;
  return c;
}

PulseConfig PatientPresets::tachycardic() {
  PulseConfig c;
  c.systolic_mmhg = 118.0;
  c.diastolic_mmhg = 78.0;
  c.heart_rate_bpm = 125.0;
  c.seed = 13;
  return c;
}

PulseConfig PatientPresets::elderly_stiff() {
  PulseConfig c;
  c.systolic_mmhg = 150.0;
  c.diastolic_mmhg = 85.0;
  c.heart_rate_bpm = 68.0;
  // Stiff arteries reflect early and strongly: boost the augmentation lobe.
  c.morphology.lobes[1].amplitude = 0.62;
  c.morphology.lobes[1].center_phase = 0.27;
  c.seed = 14;
  return c;
}

PulseConfig PatientPresets::atrial_fibrillation() {
  PulseConfig c;
  c.systolic_mmhg = 130.0;
  c.diastolic_mmhg = 84.0;
  c.heart_rate_bpm = 95.0;
  c.af_irregularity = 0.25;
  c.hrv_jitter = 0.08;
  c.seed = 15;
  return c;
}

void ArterialPulseGenerator::serialize(CheckpointWriter& out) const {
  out.section("pulse_generator");
  out.f64(config_.systolic_mmhg);  // set_targets can retarget these three
  out.f64(config_.diastolic_mmhg);
  out.f64(config_.heart_rate_bpm);
  rng_.serialize(out);
  out.f64(time_s_);
  out.f64(beat_start_s_);
  out.f64(beat_interval_s_);
  out.f64(beat_sys_mmhg_);
  out.f64(beat_dia_mmhg_);
  out.f64(drift_mmhg_);
  out.f64(cur_min_);
  out.f64(cur_max_);
  out.f64(cur_sum_);
  out.size(cur_n_);
  out.u64(beats_completed_);
  out.u64(truth_dropped_);
  out.f64(truth_sum_sys_);
  out.f64(truth_sum_dia_);
  out.size(truth_.size());
  for (const auto& b : truth_) {
    out.f64(b.onset_s);
    out.f64(b.interval_s);
    out.f64(b.systolic_mmhg);
    out.f64(b.diastolic_mmhg);
    out.f64(b.map_mmhg);
  }
}

void ArterialPulseGenerator::restore(CheckpointReader& in) {
  in.section("pulse_generator");
  config_.systolic_mmhg = in.f64();
  config_.diastolic_mmhg = in.f64();
  config_.heart_rate_bpm = in.f64();
  rng_.restore(in);
  time_s_ = in.f64();
  beat_start_s_ = in.f64();
  beat_interval_s_ = in.f64();
  beat_sys_mmhg_ = in.f64();
  beat_dia_mmhg_ = in.f64();
  drift_mmhg_ = in.f64();
  cur_min_ = in.f64();
  cur_max_ = in.f64();
  cur_sum_ = in.f64();
  cur_n_ = in.size();
  beats_completed_ = in.u64();
  truth_dropped_ = in.u64();
  truth_sum_sys_ = in.f64();
  truth_sum_dia_ = in.f64();
  truth_.resize(in.size());
  for (auto& b : truth_) {
    b.onset_s = in.f64();
    b.interval_s = in.f64();
    b.systolic_mmhg = in.f64();
    b.diastolic_mmhg = in.f64();
    b.map_mmhg = in.f64();
  }
}

double ArterialPulseGenerator::mean_systolic_mmhg() const noexcept {
  if (beats_completed_ == 0) return config_.systolic_mmhg;
  return truth_sum_sys_ / static_cast<double>(beats_completed_);
}

double ArterialPulseGenerator::mean_diastolic_mmhg() const noexcept {
  if (beats_completed_ == 0) return config_.diastolic_mmhg;
  return truth_sum_dia_ / static_cast<double>(beats_completed_);
}

}  // namespace tono::bio
