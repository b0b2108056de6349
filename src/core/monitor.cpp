#include "src/core/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"
#include "src/common/units.hpp"

namespace tono::core {
namespace {

/// Time constant of the MAP reference used to split the arterial signal
/// into the static component (carried by the hold-down equilibrium) and the
/// transmitted deviation.
constexpr double kMapEmaTauS = 5.0;

/// The reference only adapts during placement/settling; after this it is
/// frozen, like a tonometer zeroed at setup. A running reference would
/// AC-couple the sensor and erase slow pressure trends — the very thing
/// continuous monitoring must catch.
constexpr double kMapReferenceFreezeS = 10.0;

ChipConfig with_backpressure(ChipConfig chip, double hold_down_mmhg) {
  // §3.2: the backside pressure tube biases the membranes upward so they
  // protrude into the contact layer; operationally this nulls the static
  // hold-down load so the converter range is spent on the pulsation.
  chip.transducer.backpressure_pa = units::mmhg_to_pa(hold_down_mmhg);
  return chip;
}

}  // namespace

CuffTarget cuff_target(const bio::ArterialPulseGenerator& pulse,
                       const bio::PulseConfig& setpoints) {
  const auto& truth = pulse.beat_truth();
  if (truth.size() < 5) return {setpoints.systolic_mmhg, setpoints.diastolic_mmhg};
  double sys_acc = 0.0;
  double dia_acc = 0.0;
  const std::size_t take = std::min<std::size_t>(truth.size(), 20);
  for (std::size_t i = truth.size() - take; i < truth.size(); ++i) {
    sys_acc += truth[i].systolic_mmhg;
    dia_acc += truth[i].diastolic_mmhg;
  }
  return {sys_acc / static_cast<double>(take), dia_acc / static_cast<double>(take)};
}

TwoPointCalibration calibrate_on_window(std::span<const dsp::DecimatedSample> window,
                                        double sample_rate_hz, const bio::CuffReading& cuff,
                                        bool enforce_quality, const std::string& who,
                                        metrics::Counter* rejections) {
  std::vector<double> values;
  values.reserve(window.size());
  for (const auto& s : window) values.push_back(s.value);

  const auto beats = BeatDetector{{.sample_rate_hz = sample_rate_hz}}.analyze(values);
  // Anchoring the calibration to noise-triggered "beats" (bad placement,
  // dead elements) would silently produce garbage pressures.
  if (enforce_quality) {
    const auto quality = SignalQualityAssessor{}.assess(values, beats, sample_rate_hz);
    if (!quality.usable) {
      if (rejections != nullptr) rejections->add(1);
      throw std::runtime_error{who +
                               ": calibration window has no usable pulse signal (SQI " +
                               std::to_string(quality.sqi) + ")"};
    }
  }
  return TwoPointCalibration::from_beats(beats, cuff.systolic_mmhg, cuff.diastolic_mmhg);
}

BloodPressureMonitor::BloodPressureMonitor(const ChipConfig& chip, const WristModel& wrist)
    : chip_(with_backpressure(chip, wrist.hold_down_mmhg)),
      wrist_(wrist),
      pipeline_(chip_),
      pulse_(std::make_unique<bio::ArterialPulseGenerator>(wrist.pulse)),
      tissue_(wrist.tissue) {
  if (wrist_.enable_artifacts) {
    artifacts_ = std::make_unique<bio::ArtifactInjector>(wrist_.artifacts);
  }
  arterial_mmhg_ = wrist_.pulse.diastolic_mmhg;
  map_estimate_mmhg_ =
      (wrist_.pulse.systolic_mmhg + 2.0 * wrist_.pulse.diastolic_mmhg) / 3.0;
  if (wrist_.enable_thermal_drift) set_die_temperature_(0.0);
  auto& reg = metrics::Registry::global();
  sessions_metric_ = &reg.counter(metrics::names::kMonitorSessions);
  beats_metric_ = &reg.counter(metrics::names::kMonitorBeats);
  quality_rejections_metric_ = &reg.counter(metrics::names::kMonitorQualityRejections);
  rescans_metric_ = &reg.counter(metrics::names::kMonitorRescans);
  session_wall_ = &reg.timer(metrics::names::kMonitorSessionWall);
}

void BloodPressureMonitor::stream_over_link_(
    const std::vector<dsp::DecimatedSample>& samples) {
  // Fig. 3: the decimated words leave the FPGA as framed USB telemetry. The
  // simulated wire is clean, so this feeds the link instrumentation with the
  // session's true frame volume (errors stay 0 unless a harness corrupts the
  // bytes deliberately).
  // The wire format carries exactly 12-bit words; ablation configs with a
  // different output width bypass the link rather than faking a narrower code.
  if (pipeline_.config().decimation.output_bits != 12) return;
  std::vector<std::int16_t> frame;
  frame.reserve(kMaxSamplesPerFrame);
  for (std::size_t i = 0; i < samples.size(); i += kMaxSamplesPerFrame) {
    frame.clear();
    const std::size_t end = std::min(samples.size(), i + kMaxSamplesPerFrame);
    for (std::size_t j = i; j < end; ++j) {
      frame.push_back(static_cast<std::int16_t>(samples[j].code));
    }
    (void)link_decoder_.push(link_encoder_.encode(frame));
  }
}

void BloodPressureMonitor::advance_to(double t_s) {
  // Physiology steps once per output frame and holds for the whole frame:
  // a field evaluated at any clock of frame k reads physiology step k. The
  // frame rate is the only rate anything downstream reads, so finer steps
  // would be simulated and thrown away.
  const double f_clk = chip_.modulator.sampling_rate_hz;
  const std::size_t osr = chip_.decimation.total_decimation;
  const auto frame =
      static_cast<std::uint64_t>(std::max(0.0, std::round(t_s * f_clk))) / osr;
  if (frame <= physiology_steps_) return;
  const double dt = static_cast<double>(osr) / f_clk;
  while (physiology_steps_ < frame) {
    const double step_start_s = static_cast<double>(physiology_steps_) * dt;
    const double step_end_s = static_cast<double>(physiology_steps_ + 1) * dt;
    if (wrist_.scenario && step_end_s - last_scenario_apply_s_ > 0.1) {
      wrist_.scenario->apply(*pulse_, step_end_s);
      last_scenario_apply_s_ = step_end_s;
    }
    arterial_mmhg_ = pulse_->sample(dt);
    if (artifacts_) artifact_mmhg_ = artifacts_->next(dt);
    if (step_start_s < kMapReferenceFreezeS) {
      map_estimate_mmhg_ += dt / kMapEmaTauS * (arterial_mmhg_ - map_estimate_mmhg_);
    }
    ++physiology_steps_;
  }
  if (wrist_.enable_thermal_drift) set_die_temperature_(static_cast<double>(frame) * dt);
}

void BloodPressureMonitor::set_die_temperature_(double t_s) {
  const double warm = 1.0 - std::exp(-t_s / wrist_.thermal_tau_s);
  pipeline_.set_temperature(wrist_.ambient_temperature_k +
                            (wrist_.skin_temperature_k - wrist_.ambient_temperature_k) * warm);
}

void BloodPressureMonitor::serialize(CheckpointWriter& out) const {
  out.section("monitor");
  pipeline_.serialize(out);
  pulse_->serialize(out);
  out.boolean(artifacts_ != nullptr);
  if (artifacts_) artifacts_->serialize(out);
  calibration_.serialize(out);
  out.u64(physiology_steps_);
  out.f64(arterial_mmhg_);
  out.f64(artifact_mmhg_);
  out.f64(map_estimate_mmhg_);
  out.f64(last_scenario_apply_s_);
  out.f64(wrist_.placement_offset_m);  // shift_placement mutates it
  link_encoder_.serialize(out);
  link_decoder_.serialize(out);
}

void BloodPressureMonitor::restore(CheckpointReader& in) {
  in.section("monitor");
  pipeline_.restore(in);
  pulse_->restore(in);
  if (in.boolean() != (artifacts_ != nullptr)) {
    throw CheckpointError{"monitor checkpoint artefact-injector presence mismatch"};
  }
  if (artifacts_) artifacts_->restore(in);
  calibration_.restore(in);
  physiology_steps_ = in.u64();
  arterial_mmhg_ = in.f64();
  artifact_mmhg_ = in.f64();
  map_estimate_mmhg_ = in.f64();
  last_scenario_apply_s_ = in.f64();
  wrist_.placement_offset_m = in.f64();
  link_encoder_.restore(in);
  link_decoder_.restore(in);
}

ContactField BloodPressureMonitor::contact_field() {
  return [this](double x_m, double y_m, double t_s) -> double {
    (void)y_m;  // the artery runs along y; only the x offset attenuates
    advance_to(t_s);
    const double offset =
        std::abs(x_m + wrist_.placement_offset_m - wrist_.vessel_x_m);
    const double contact_mmhg =
        tissue_.contact_pressure_mmhg(arterial_mmhg_, map_estimate_mmhg_,
                                      wrist_.hold_down_mmhg, offset) +
        artifact_mmhg_;
    return units::mmhg_to_pa(contact_mmhg);
  };
}

ScanResult BloodPressureMonitor::localize(const ScanConfig& scan) {
  return ScanController{scan}.scan(pipeline_, contact_field());
}

bio::CuffReading BloodPressureMonitor::calibrate(double window_s,
                                                 const bio::CuffConfig& cuff_config,
                                                 bool enforce_quality) {
  // 1. Cuff reading against the patient's current ground truth.
  const CuffTarget target = cuff_target(*pulse_, wrist_.pulse);
  bio::OscillometricCuff cuff{cuff_config};
  const auto reading = cuff.measure(target.systolic_mmhg, target.diastolic_mmhg,
                                    wrist_.pulse.heart_rate_bpm);
  if (!reading.valid) {
    throw std::runtime_error{"BloodPressureMonitor: cuff measurement failed"};
  }

  // 2. Acquire the calibration window on the selected element; gate and fit.
  const double fs = pipeline_.output_rate_hz();
  const auto window =
      pipeline_.acquire_block(contact_field(), static_cast<std::size_t>(window_s * fs));
  calibration_ = calibrate_on_window(window, fs, reading, enforce_quality,
                                     "BloodPressureMonitor", quality_rejections_metric_);
  return reading;
}

MonitoringReport BloodPressureMonitor::monitor(double duration_s) {
  metrics::TraceSpan span{*session_wall_};
  sessions_metric_->add(1);
  MonitoringReport report;
  const double fs_out = pipeline_.output_rate_hz();
  const auto n = static_cast<std::size_t>(duration_s * fs_out);
  const double t_start = pipeline_.time_s();

  const auto samples = pipeline_.acquire_block(contact_field(), n);
  stream_over_link_(samples);
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& s : samples) values.push_back(s.value);

  report.waveform_mmhg = calibration_.apply(values);
  report.time_s.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    report.time_s.push_back(t_start + static_cast<double>(i) / fs_out);
  }

  // One analysis, graded in window-relative time; the report carries its
  // beats in stream time.
  report.beats = BeatDetector{{.sample_rate_hz = fs_out}}.analyze(report.waveform_mmhg);
  report.quality = SignalQualityAssessor{}.assess(report.waveform_mmhg, report.beats, fs_out);
  for (auto& beat : report.beats.beats) beat = beat.shifted(t_start);
  beats_metric_->add(report.beats.beats.size());
  report.pulse_wave =
      PulseWaveAnalyzer{fs_out}.analyze(report.waveform_mmhg, report.beats, t_start);

  // Ground truth over the same interval.
  const double t_end = pipeline_.time_s();
  double sys_acc = 0.0;
  double dia_acc = 0.0;
  double map_acc = 0.0;
  double interval_acc = 0.0;
  std::size_t nb = 0;
  for (const auto& b : pulse_->beat_truth()) {
    if (b.onset_s >= t_start && b.onset_s < t_end) {
      sys_acc += b.systolic_mmhg;
      dia_acc += b.diastolic_mmhg;
      map_acc += b.map_mmhg;
      interval_acc += b.interval_s;
      ++nb;
    }
  }
  if (nb > 0) {
    const auto nbd = static_cast<double>(nb);
    report.truth_systolic_mmhg = sys_acc / nbd;
    report.truth_diastolic_mmhg = dia_acc / nbd;
    report.truth_map_mmhg = map_acc / nbd;
    report.truth_heart_rate_bpm = 60.0 / (interval_acc / nbd);
    report.systolic_error_mmhg = report.beats.mean_systolic - report.truth_systolic_mmhg;
    report.diastolic_error_mmhg =
        report.beats.mean_diastolic - report.truth_diastolic_mmhg;
    report.map_error_mmhg = report.beats.mean_map - report.truth_map_mmhg;
  }
  return report;
}

BloodPressureMonitor::AdaptiveReport BloodPressureMonitor::monitor_adaptive(
    double duration_s, const AdaptiveConfig& config) {
  AdaptiveReport report;
  double remaining = duration_s;
  while (remaining > 0.5 * config.chunk_s) {
    const double chunk = std::min(config.chunk_s, remaining);
    auto rep = monitor(chunk);
    report.chunk_sqi.push_back(rep.quality.sqi);
    const bool degraded = !rep.quality.usable;
    if (degraded) quality_rejections_metric_->add(1);
    report.chunks.push_back(std::move(rep));
    remaining -= chunk;
    if (degraded && report.rescans < config.max_rescans) {
      // Re-acquire the strongest element; the signal may have moved.
      (void)ScanController{config.scan}.scan(pipeline_, contact_field());
      ++report.rescans;
      rescans_metric_->add(1);
    }
  }
  return report;
}

}  // namespace tono::core
