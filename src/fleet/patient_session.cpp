#include "src/fleet/patient_session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/bio/cuff.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/fixed_point.hpp"
#include "src/core/scan.hpp"

namespace tono::fleet {
namespace {

/// Per-session stream decorrelation: every random consumer in the slice
/// forks its own stream from the session seed, so two sessions with
/// different seeds never share a draw — and a session's draws are identical
/// whether it runs solo or inside a 64-session fleet.
struct DerivedSeeds {
  std::uint64_t chip;
  std::uint64_t modulator;
  std::uint64_t pulse;
  std::uint64_t artifacts;
  std::uint64_t cuff;
  std::uint64_t fault;
};

DerivedSeeds derive_seeds(std::uint64_t session_seed) {
  Rng root{session_seed};
  // The fault stream MUST stay the last fork: each fork advances `root` by
  // one draw, so appending here keeps every pre-existing stream (and with an
  // empty fault plan, the whole session) bit-identical to older builds.
  return DerivedSeeds{
      .chip = root.fork_named("chip").next_u64(),
      .modulator = root.fork_named("modulator").next_u64(),
      .pulse = root.fork_named("pulse").next_u64(),
      .artifacts = root.fork_named("artifacts").next_u64(),
      .cuff = root.fork_named("cuff").next_u64(),
      .fault = root.fork_named("fault-plan").next_u64(),
  };
}

std::shared_ptr<const bio::ScenarioProfile> make_scenario(const std::string& name) {
  if (name == "rest") return nullptr;  // static setpoints
  if (name == "exercise") {
    return std::make_shared<bio::ScenarioProfile>(bio::ScenarioProfile::exercise());
  }
  if (name == "hypotensive") {
    return std::make_shared<bio::ScenarioProfile>(
        bio::ScenarioProfile::hypotensive_episode());
  }
  throw std::invalid_argument{"PatientSession: unknown scenario '" + name + "'"};
}

}  // namespace

std::string to_string(SessionState state) {
  switch (state) {
    case SessionState::kAdmitted: return "admitted";
    case SessionState::kRunning: return "running";
    case SessionState::kPaused: return "paused";
    case SessionState::kDischarged: return "discharged";
    case SessionState::kQuarantined: return "quarantined";
    case SessionState::kRecovering: return "recovering";
    case SessionState::kRetired: return "retired";
  }
  return "unknown";
}

PatientSession::PatientSession(std::uint32_t id, SessionConfig config)
    : id_(id),
      config_(std::move(config)),
      codes_(config_.code_ring_capacity),
      events_(config_.event_ring_capacity) {
  const DerivedSeeds seeds = derive_seeds(config_.seed);
  config_.chip.seed = seeds.chip;
  config_.chip.modulator.seed = seeds.modulator;
  config_.wrist.pulse.seed = seeds.pulse;
  config_.wrist.artifacts.seed = seeds.artifacts;
  config_.wrist.scenario = config_.scenario_profile ? config_.scenario_profile
                                                    : make_scenario(config_.scenario);
  inner_ = std::make_unique<core::BloodPressureMonitor>(config_.chip, config_.wrist);
  field_ = inner_->contact_field();

  // Fault plan: schedule and link-injector seeds both fork from the
  // session's dedicated fault stream, so the plan is a pure function of the
  // session seed — the fleet determinism contract extends to faults.
  Rng fault_root{seeds.fault};
  const std::uint64_t plan_seed = fault_root.fork_named("schedule").next_u64();
  const std::uint64_t link_seed = fault_root.fork_named("link").next_u64();
  plan_ = FaultPlan{config_.fault_plan, plan_seed, config_.chip.array.rows,
                    config_.chip.array.cols};
  for (const auto& e : config_.manual_faults) plan_.add(e);
  throws_left_.reserve(plan_.events().size());
  bool has_contact_loss = false;
  for (const auto& e : plan_.events()) {
    throws_left_.push_back(e.throw_count);
    has_contact_loss |= (e.kind == FaultKind::kContactLoss);
  }
  fired_.assign(plan_.events().size(), 0);
  if (plan_.has_link_bursts()) {
    link_encoder_ = std::make_unique<core::FrameEncoder>();
    link_decoder_ = std::make_unique<core::FrameDecoder>();
    link_injector_ =
        std::make_unique<core::LinkFaultInjector>(plan_.link_config(), link_seed);
  }
  // Only sessions with contact-loss events pay the window scan; everyone
  // else keeps the exact pre-fault-plan field object.
  effective_field_ = field_;
  if (has_contact_loss) {
    effective_field_ = [this](double x, double y, double t) {
      for (const auto& w : contact_loss_windows_) {
        if (t >= w.first && t < w.second) return 0.0;
      }
      return field_(x, y, t);
    };
  }
  faults_injected_metric_ =
      &metrics::Registry::global().counter(metrics::names::kFleetFaultsInjected);
}

PatientSession::~PatientSession() = default;

double PatientSession::output_rate_hz() const noexcept {
  return inner_->pipeline().output_rate_hz();
}

double PatientSession::stream_time_s() const noexcept {
  return static_cast<double>(frames_produced_) / output_rate_hz();
}

std::vector<bio::BeatTruth> PatientSession::drain_beat_truth() {
  return inner_->pulse().drain_truth();
}

void PatientSession::admit() {
  if (admitted_) return;
  auto& pipeline = inner_->pipeline();
  if (config_.localize) {
    (void)core::ScanController{}.scan(pipeline, field_);
  }

  const double fs = pipeline.output_rate_hz();
  const auto window =
      pipeline.acquire_block(field_, static_cast<std::size_t>(config_.calibration_window_s * fs));

  // Cuff-anchored calibration (§3.2), read against the beats of the window
  // just acquired; the cuff draws from its own session stream.
  bio::CuffConfig cuff_config;
  cuff_config.seed = derive_seeds(config_.seed).cuff;
  bio::OscillometricCuff cuff{cuff_config};
  const core::CuffTarget target = core::cuff_target(inner_->pulse(), config_.wrist.pulse);
  const auto reading = cuff.measure(target.systolic_mmhg, target.diastolic_mmhg,
                                    config_.wrist.pulse.heart_rate_bpm);
  if (!reading.valid) {
    throw std::runtime_error{"PatientSession: cuff measurement failed"};
  }
  calibration_ = core::calibrate_on_window(window, fs, reading, config_.enforce_quality,
                                           "PatientSession");

  make_stream_();
  // Monitoring starts here: fault-plan onsets (stream time) map onto the
  // pipeline clock from this epoch.
  stream_epoch_clock_s_ = pipeline.time_s();
  admitted_ = true;
}

void PatientSession::make_stream_() {
  config_.streaming.sample_rate_hz = inner_->pipeline().output_rate_hz();
  stream_ = std::make_unique<core::StreamingMonitor>(config_.streaming);
  stream_->on_beat([this](const core::Beat& b) {
    publish_event_(FleetEvent{.kind = FleetEventKind::kBeat,
                              .session_id = id_,
                              .time_s = b.peak_s,
                              .value_a = b.systolic_value,
                              .value_b = b.diastolic_value});
  });
  stream_->on_alarm([this](const core::AlarmEvent& a) {
    publish_event_(FleetEvent{.kind = FleetEventKind::kAlarm,
                              .session_id = id_,
                              .alarm_kind = a.kind,
                              .flag = a.active,
                              .time_s = a.time_s,
                              .value_a = a.value});
  });
  stream_->on_quality([this](const core::QualityReport& q, double t_s) {
    publish_event_(FleetEvent{.kind = FleetEventKind::kQuality,
                              .session_id = id_,
                              .flag = q.usable,
                              .time_s = t_s,
                              .value_a = q.sqi});
  });
}

void PatientSession::step(std::size_t frames) {
  if (!begin_step(frames)) return;
  auto& pipeline = inner_->pipeline();
  for (std::size_t f = 0; f < frames; ++f) {
    step_samples_.push_back(pipeline.clock_block(
        effective_field_(step_pos_.x_m, step_pos_.y_m, pipeline.time_s())));
  }
  end_step();
}

bool PatientSession::begin_step(std::size_t frames) {
  if (!admitted_) admit();
  // External ingest (gateway replay): admission above is the whole step —
  // codes arrive via ingest_codes() and advance stream time there.
  if (config_.external_ingest || frames == 0) return false;
  apply_due_faults_();
  // Faults may have re-routed the readout; the element is fixed from here.
  const auto& pipeline = inner_->pipeline();
  step_pos_ = pipeline.array()
                  .element(pipeline.selected_row(), pipeline.selected_col())
                  .position();
  step_frames_ = frames;
  step_samples_.clear();
  step_samples_.reserve(frames);
  return true;
}

PatientSession::FrameLane PatientSession::begin_frame() {
  auto& pipeline = inner_->pipeline();
  const double p = effective_field_(step_pos_.x_m, step_pos_.y_m, pipeline.time_s());
  if (const auto fallback = pipeline.begin_frame(p)) {
    step_samples_.push_back(*fallback);
    return {};
  }
  return {&pipeline.modulator(), pipeline.frame_capacitance(),
          pipeline.array().reference_capacitance(),
          pipeline.config().decimation.total_decimation};
}

void PatientSession::end_frame(std::span<const int> bits) {
  step_samples_.push_back(inner_->pipeline().end_frame(bits));
}

void PatientSession::end_step() {
  // The codes that survive the simulated USB hop: a link-burst plan
  // round-trips them through the link, corrupting frames inside its windows.
  step_codes_.clear();
  if (link_decoder_ == nullptr) {
    for (const auto& s : step_samples_) {
      step_codes_.push_back(static_cast<std::int16_t>(s.code));
    }
  } else {
    link_roundtrip_(step_samples_, step_codes_);
  }
  if (config_.code_sink) {
    // Gateway mode: the wire carries the codes, and the demux delivers them
    // back via ingest_codes() at the batch barrier.
    config_.code_sink(id_, step_codes_);
  } else {
    publish_(step_codes_);
  }
  frames_produced_ += step_frames_;
}

void PatientSession::ingest_codes(std::span<const std::int16_t> codes) {
  if (!admitted_) {
    throw std::runtime_error{
        "PatientSession: ingest_codes before admission (gateway pump must "
        "run after the session's first step)"};
  }
  publish_(codes);
  // Gateway-live sessions advanced stream time in step() when they
  // acquired; only an externally-fed session advances it on delivery.
  if (config_.external_ingest) frames_produced_ += codes.size();
}

void PatientSession::publish_(std::span<const std::int16_t> codes) {
  // Bit-identical to feeding the decimated values: a DecimatedSample's value
  // IS dequantize_from_bits(code, output_bits), and 12-bit codes survive the
  // int16 cast.
  const int bits = config_.chip.decimation.output_bits;
  for (const std::int16_t code : codes) {
    (void)codes_.push(code, config_.code_policy);
    // The streaming monitor's callbacks fire inside push(): beats and
    // alarms land in the events ring with bounded latency (one hop).
    stream_->push(calibration_.to_mmhg(dequantize_from_bits(code, bits)));
  }
}

void PatientSession::apply_due_faults_() {
  if (array_dead_) {
    throw std::runtime_error{
        "fault-plan: no healthy array element left for readout"};
  }
  const double now_s = stream_time_s();
  const auto& events = plan_.events();
  while (next_fault_ < events.size() && events[next_fault_].at_s <= now_s) {
    const FaultEvent& event = events[next_fault_];
    if (!fired_[next_fault_]) {
      fired_[next_fault_] = 1;
      faults_injected_metric_->add(1);
    }
    if (throws_left_[next_fault_] > 0) {
      // The injected disturbance aborts this step; the scheduler quarantines
      // and (maybe) readmits. Stream time has not advanced, so the event is
      // due again on the next attempt — with one less throw in its budget,
      // which is what lets a transient fault eventually admit the session
      // back while an unrecoverable one strikes it out.
      if (throws_left_[next_fault_] != kUnrecoverableThrows) {
        --throws_left_[next_fault_];
      }
      fault_log_.push_back("injected: " + FaultPlan::describe(event));
      throw std::runtime_error{"fault-plan: " + FaultPlan::describe(event)};
    }
    ++next_fault_;
    fault_log_.push_back("applied: " + FaultPlan::describe(event));
    apply_fault_(event);  // may throw (dead array) — event stays consumed
  }
}

void PatientSession::apply_fault_(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kContactLoss:
      contact_loss_windows_.emplace_back(
          stream_epoch_clock_s_ + event.at_s,
          stream_epoch_clock_s_ + event.at_s + event.duration_s);
      break;
    case FaultKind::kLinkBurst:
      link_burst_windows_.emplace_back(event.at_s, event.at_s + event.duration_s);
      break;
    case FaultKind::kElementFault:
      apply_element_fault_(event);
      break;
  }
}

void PatientSession::apply_element_fault_(const FaultEvent& event) {
  auto& pipeline = inner_->pipeline();
  pipeline.inject_element_fault(event.row, event.col, event.element_fault);
  const auto& array = pipeline.array();
  if (array.element(pipeline.selected_row(), pipeline.selected_col()).is_healthy()) {
    return;  // fault landed off the readout path; array degraded, stream intact
  }
  // Graceful degradation: re-route readout to the first healthy element.
  // select() restarts the mux transient, so the next frames transparently
  // take the pipeline's scalar fallback path until the switch settles.
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      if (!array.element(r, c).is_healthy()) continue;
      pipeline.select(r, c);
      fault_log_.push_back("rerouted readout to healthy element (" +
                           std::to_string(r) + "," + std::to_string(c) + ")");
      return;
    }
  }
  array_dead_ = true;
  throw std::runtime_error{
      "fault-plan: no healthy array element left for readout"};
}

void PatientSession::link_roundtrip_(const std::vector<dsp::DecimatedSample>& samples,
                                     std::vector<std::int16_t>& out) {
  // Round-trip every code through the simulated Fig. 3 USB link. Outside
  // burst windows this is bit-identical to direct publishing: the decimated
  // value is dequantize_from_bits(code, output_bits) by construction, so the
  // decoder-side rebuild reproduces it exactly. Inside a burst the injector
  // corrupts frames and the decoder's CRC/resync accounting drops them —
  // counted losses, never wrong samples.
  const double rate = output_rate_hz();
  std::vector<std::int16_t> chunk;
  std::size_t i = 0;
  while (i < samples.size()) {
    const std::size_t n = std::min(samples.size() - i, core::kMaxSamplesPerFrame);
    chunk.clear();
    for (std::size_t j = 0; j < n; ++j) {
      chunk.push_back(static_cast<std::int16_t>(samples[i + j].code));
    }
    auto wire = link_encoder_->encode(chunk);
    const double chunk_start_s =
        static_cast<double>(frames_produced_ + i) / rate;
    if (link_burst_active_(chunk_start_s)) {
      (void)link_injector_->corrupt(wire);
    }
    for (const auto& frame : link_decoder_->push(wire)) {
      out.insert(out.end(), frame.samples.begin(), frame.samples.end());
    }
    i += n;
  }
}

bool PatientSession::link_burst_active_(double stream_s) const noexcept {
  for (const auto& w : link_burst_windows_) {
    if (stream_s >= w.first && stream_s < w.second) return true;
  }
  return false;
}

void PatientSession::publish_event_(const FleetEvent& event) {
  (void)events_.push(event, config_.event_policy);
}

std::vector<std::uint8_t> PatientSession::checkpoint() const {
  CheckpointWriter out;
  serialize(out);
  return out.finish(kSessionCheckpointVersion);
}

void PatientSession::restore_checkpoint(const std::vector<std::uint8_t>& blob) {
  CheckpointReader in{blob};
  in.require_version(kSessionCheckpointVersion);
  restore(in);
  in.expect_end();
}

void PatientSession::serialize(CheckpointWriter& out) const {
  out.section("patient_session");
  out.u32(id_);
  out.boolean(admitted_);
  // Pipeline, calibration and frame accounting are carried even for a
  // not-yet-admitted session: an admit() that throws midway (cuff failure,
  // quality reject) has already advanced the pipeline through the scan and
  // the calibration block, and resume-equivalence with an in-place retry
  // requires the replacement to pick up from exactly that point. Only the
  // streaming monitor is admission-gated — it does not exist until admit()
  // completes.
  inner_->serialize(out);
  calibration_.serialize(out);
  out.u64(frames_produced_);
  out.f64(stream_epoch_clock_s_);
  if (admitted_) stream_->serialize(out);
  // Fault-plan execution state. The plan itself is a pure function of the
  // session config and seed, so only the cursor and budgets are carried.
  out.boolean(array_dead_);
  out.size(next_fault_);
  out.size(throws_left_.size());
  for (std::size_t budget : throws_left_) out.size(budget);
  for (char f : fired_) out.u8(static_cast<std::uint8_t>(f));
  out.size(fault_log_.size());
  for (const auto& line : fault_log_) out.str(line);
  out.size(contact_loss_windows_.size());
  for (const auto& w : contact_loss_windows_) {
    out.f64(w.first);
    out.f64(w.second);
  }
  out.size(link_burst_windows_.size());
  for (const auto& w : link_burst_windows_) {
    out.f64(w.first);
    out.f64(w.second);
  }
  out.boolean(link_encoder_ != nullptr);
  if (link_encoder_) {
    link_encoder_->serialize(out);
    link_decoder_->serialize(out);
    link_injector_->serialize(out);
  }
  codes_.serialize_accounting(out);
  events_.serialize_accounting(out);
}

void PatientSession::restore(CheckpointReader& in) {
  in.section("patient_session");
  const std::uint32_t id = in.u32();
  if (id != id_) {
    throw CheckpointError{"session checkpoint is for id " + std::to_string(id) +
                          ", not " + std::to_string(id_)};
  }
  const bool was_admitted = in.boolean();
  inner_->restore(in);
  calibration_.restore(in);
  frames_produced_ = in.u64();
  stream_epoch_clock_s_ = in.f64();
  if (was_admitted) {
    make_stream_();
    stream_->restore(in);
    admitted_ = true;
  }
  array_dead_ = in.boolean();
  next_fault_ = in.size();
  if (in.size() != throws_left_.size()) {
    throw CheckpointError{"session checkpoint fault-plan event count mismatch"};
  }
  if (next_fault_ > throws_left_.size()) {
    throw CheckpointError{"session checkpoint fault cursor out of range"};
  }
  for (auto& budget : throws_left_) budget = in.size();
  for (auto& f : fired_) f = static_cast<char>(in.u8());
  fault_log_.resize(in.size());
  for (auto& line : fault_log_) line = in.str();
  contact_loss_windows_.resize(in.size());
  for (auto& w : contact_loss_windows_) {
    w.first = in.f64();
    w.second = in.f64();
  }
  link_burst_windows_.resize(in.size());
  for (auto& w : link_burst_windows_) {
    w.first = in.f64();
    w.second = in.f64();
  }
  if (in.boolean() != (link_encoder_ != nullptr)) {
    throw CheckpointError{"session checkpoint link-path presence mismatch"};
  }
  if (link_encoder_) {
    link_encoder_->restore(in);
    link_decoder_->restore(in);
    link_injector_->restore(in);
  }
  codes_.restore_accounting(in);
  events_.restore_accounting(in);
}

}  // namespace tono::fleet
