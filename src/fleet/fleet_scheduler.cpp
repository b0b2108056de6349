#include "src/fleet/fleet_scheduler.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "src/common/checkpoint.hpp"
#include "src/common/rng.hpp"

namespace tono::fleet {

FleetScheduler::FleetScheduler(FleetConfig config, WardAggregator& ward)
    : config_(std::move(config)), ward_(ward) {
  if (config_.frames_per_step == 0) {
    throw std::invalid_argument{"FleetScheduler: frames_per_step must be > 0"};
  }
  if (config_.session_id_stride == 0) {
    throw std::invalid_argument{"FleetScheduler: session_id_stride must be > 0"};
  }
  auto& reg = metrics::Registry::global();
  admitted_metric_ = &reg.counter(metrics::names::kFleetSessionsAdmitted);
  discharged_metric_ = &reg.counter(metrics::names::kFleetSessionsDischarged);
  quarantined_metric_ = &reg.counter(metrics::names::kFleetSessionsQuarantined);
  recoveries_metric_ = &reg.counter(metrics::names::kFleetRecoveries);
  retired_metric_ = &reg.counter(metrics::names::kFleetRetired);
  batches_metric_ = &reg.counter(metrics::names::kFleetBatches);
  frames_metric_ = &reg.counter(metrics::names::kFleetFrames);
  checkpoints_written_metric_ = &reg.counter(metrics::names::kFleetCheckpointsWritten);
  checkpoints_restored_metric_ = &reg.counter(metrics::names::kFleetCheckpointsRestored);
  checkpoints_rejected_metric_ = &reg.counter(metrics::names::kFleetCheckpointsRejected);
  batch_wall_ = &reg.timer(metrics::names::kFleetBatchWall);
  active_gauge_ = &reg.gauge(metrics::names::kFleetSessionsActive);
}

FleetScheduler::~FleetScheduler() = default;

std::uint64_t FleetScheduler::session_seed(std::size_t session_id) const {
  // The SweepRunner derivation: depends only on (base_seed, stream_name,
  // global session id), so a solo harness can reproduce any fleet session
  // exactly — and a shard of a hospital (same base_seed/stream_name, ids
  // mapped through offset/stride) draws the very same seed for it.
  return Rng{config_.base_seed}
      .fork_named(config_.stream_name)
      .fork(static_cast<std::uint64_t>(session_id))
      .next_u64();
}

std::uint32_t FleetScheduler::admit(SessionConfig config, std::string label) {
  const auto index = sessions_.size();
  const auto id = static_cast<std::uint32_t>(
      config_.session_id_offset + index * config_.session_id_stride);
  if (config.seed == 0) config.seed = session_seed(id);
  if (config.code_ring_capacity < config_.frames_per_step) {
    // Nothing drains mid-batch; a ring smaller than one batch would wedge
    // a blocking push forever.
    throw std::invalid_argument{
        "FleetScheduler: code ring capacity must cover one batch "
        "(frames_per_step)"};
  }
  Slot slot;
  slot.session = std::make_unique<PatientSession>(id, std::move(config));
  ward_.attach(*slot.session, std::move(label));
  ward_.set_lifecycle(id, SessionState::kAdmitted);
  sessions_.push_back(std::move(slot));
  admitted_metric_->add(1);
  active_gauge_->set(static_cast<double>(active_sessions()));
  return id;
}

FleetScheduler::Slot* FleetScheduler::find_(std::uint32_t id) {
  // Invert the id mapping: id = offset + index·stride.
  if (id < config_.session_id_offset) return nullptr;
  const std::uint32_t delta = id - config_.session_id_offset;
  if (delta % config_.session_id_stride != 0) return nullptr;
  const std::size_t index = delta / config_.session_id_stride;
  return index < sessions_.size() ? &sessions_[index] : nullptr;
}

const FleetScheduler::Slot* FleetScheduler::find_(std::uint32_t id) const {
  return const_cast<FleetScheduler*>(this)->find_(id);
}

void FleetScheduler::pause(std::uint32_t id) {
  Slot* slot = find_(id);
  if (slot == nullptr) return;
  if (slot->state == SessionState::kRunning || slot->state == SessionState::kAdmitted) {
    slot->state = SessionState::kPaused;
    ward_.set_lifecycle(id, slot->state);
    active_gauge_->set(static_cast<double>(active_sessions()));
  }
}

void FleetScheduler::resume(std::uint32_t id) {
  Slot* slot = find_(id);
  if (slot == nullptr || slot->state != SessionState::kPaused) return;
  slot->state = slot->session->admitted() ? SessionState::kRunning
                                          : SessionState::kAdmitted;
  ward_.set_lifecycle(id, slot->state);
  active_gauge_->set(static_cast<double>(active_sessions()));
}

void FleetScheduler::discharge(std::uint32_t id) {
  Slot* slot = find_(id);
  if (slot == nullptr) return;
  if (slot->state == SessionState::kDischarged ||
      slot->state == SessionState::kQuarantined ||
      slot->state == SessionState::kRetired) {
    return;
  }
  slot->state = SessionState::kDischarged;
  ward_.set_lifecycle(id, slot->state);
  (void)ward_.drain_once();  // collect anything still queued
  ward_.settle();
  discharged_metric_->add(1);
  active_gauge_->set(static_cast<double>(active_sessions()));
}

SessionState FleetScheduler::state(std::uint32_t id) const {
  const Slot* slot = find_(id);
  if (slot == nullptr) throw std::out_of_range{"FleetScheduler: unknown session id"};
  return slot->state;
}

const std::string& FleetScheduler::quarantine_reason(std::uint32_t id) const {
  const Slot* slot = find_(id);
  if (slot == nullptr) throw std::out_of_range{"FleetScheduler: unknown session id"};
  return slot->quarantine_reason;
}

PatientSession* FleetScheduler::session(std::uint32_t id) {
  Slot* slot = find_(id);
  return slot != nullptr ? slot->session.get() : nullptr;
}

std::size_t FleetScheduler::active_sessions() const {
  std::size_t n = 0;
  for (const auto& slot : sessions_) {
    if (slot.state == SessionState::kAdmitted || slot.state == SessionState::kRunning ||
        slot.state == SessionState::kRecovering) {
      ++n;
    }
  }
  return n;
}

std::size_t FleetScheduler::strikes(std::uint32_t id) const {
  const Slot* slot = find_(id);
  if (slot == nullptr) throw std::out_of_range{"FleetScheduler: unknown session id"};
  return slot->strikes;
}

void FleetScheduler::sync_fault_log_(Slot& slot) {
  const auto& log = slot.session->fault_log();
  for (; slot.fault_log_synced < log.size(); ++slot.fault_log_synced) {
    ward_.note_fault(slot.session->id(), log[slot.fault_log_synced]);
  }
}

void FleetScheduler::quarantine_(Slot& slot, const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    slot.quarantine_reason = e.what();
  } catch (...) {
    slot.quarantine_reason = "unknown exception";
  }
  sync_fault_log_(slot);  // the injected fault precedes the verdict in the log
  const std::uint32_t id = slot.session->id();
  ++slot.strikes;
  if (slot.strikes > config_.max_readmits) {
    slot.state = SessionState::kRetired;
    ward_.note_fault(id, "retired after " + std::to_string(config_.max_readmits) +
                             " readmission(s): " + slot.quarantine_reason);
    ward_.set_lifecycle(id, slot.state, slot.quarantine_reason);
    retired_metric_->add(1);
    return;
  }
  slot.state = SessionState::kQuarantined;
  // Deterministic backoff: batches, not wall time, doubling per strike.
  const std::size_t shift = std::min<std::size_t>(slot.strikes - 1, 16);
  const std::uint64_t backoff =
      static_cast<std::uint64_t>(config_.readmit_backoff_batches) << shift;
  slot.eligible_batch = batch_index_ + backoff;
  ward_.note_fault(id, "quarantined (strike " + std::to_string(slot.strikes) + "/" +
                           std::to_string(config_.max_readmits + 1) +
                           "): " + slot.quarantine_reason);
  ward_.set_lifecycle(id, slot.state, slot.quarantine_reason);
  quarantined_metric_->add(1);
}

void FleetScheduler::readmit_from_checkpoint_(Slot& slot) {
  // A throwing step consumes nothing — no frames, no Rng draws, and the
  // quarantining batch ended with a full drain — so the parked object IS the
  // last good checkpoint. Capture it and resume a freshly constructed
  // session from the blob: recovery goes through the same restore path a
  // process restart uses, instead of trusting whatever state the quarantined
  // object accumulated.
  const std::uint32_t id = slot.session->id();
  try {
    const auto blob = slot.session->checkpoint();
    ++checkpoints_written_;
    checkpoints_written_metric_->add(1);
    auto fresh = std::make_unique<PatientSession>(id, slot.session->config());
    fresh->restore_checkpoint(blob);
    ward_.reattach(*fresh);  // keep the accumulated WardSessionState
    slot.session = std::move(fresh);
    ++checkpoints_restored_;
    checkpoints_restored_metric_->add(1);
  } catch (const CheckpointError& e) {
    // Validation refused the blob; the quarantined object resumes in place
    // (state-equivalent, just not via the restore path). Counted and logged.
    ++checkpoints_rejected_;
    checkpoints_rejected_metric_->add(1);
    ward_.note_fault(id, std::string{"checkpoint rejected, resuming in place: "} +
                             e.what());
  }
}

std::size_t FleetScheduler::step_all(double until_s) {
  // Readmission backoff is measured against this counter, so it advances on
  // every call — including batches that end up empty.
  ++batch_index_;
  // Batch membership is decided up front; stepping never touches lifecycle
  // state.
  std::vector<Slot*> batch;
  batch.reserve(sessions_.size());
  for (auto& slot : sessions_) {
    if (slot.state == SessionState::kQuarantined) {
      if (batch_index_ < slot.eligible_batch) continue;
      if (slot.session->stream_time_s() >= until_s) continue;
      readmit_from_checkpoint_(slot);
      slot.state = SessionState::kRecovering;
      ward_.set_lifecycle(slot.session->id(), slot.state);
      batch.push_back(&slot);
      continue;
    }
    if (slot.state != SessionState::kAdmitted && slot.state != SessionState::kRunning) {
      continue;
    }
    if (slot.session->stream_time_s() >= until_s) continue;
    batch.push_back(&slot);
  }
  if (batch.empty()) return 0;

  batches_metric_->add(1);
  metrics::TraceSpan span{*batch_wall_};
  const std::size_t frames = config_.frames_per_step;
  std::vector<std::exception_ptr> errors(batch.size());

  // Rings hold a full batch (the code ring is checked at admit), so nothing
  // blocks with the consumer waiting below.
  step_cohort_(batch, errors, frames);

  // Production barrier: every session has stepped. The gateway pump
  // (set_batch_hook) delivers this batch's wire traffic into the session
  // rings here, before the ward's final drain and escalation below.
  if (batch_hook_) batch_hook_();

  std::size_t stepped = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Slot& slot = *batch[i];
    if (errors[i]) {
      quarantine_(slot, errors[i]);
      continue;
    }
    if (slot.state == SessionState::kRecovering) {
      // Readmission succeeded: the session resumed streaming this batch.
      ward_.note_fault(slot.session->id(),
                       "readmitted after strike " + std::to_string(slot.strikes));
      slot.state = SessionState::kRunning;
      ward_.set_lifecycle(slot.session->id(), slot.state);
      recoveries_metric_->add(1);
    } else if (slot.state == SessionState::kAdmitted) {
      slot.state = SessionState::kRunning;
      ward_.set_lifecycle(slot.session->id(), SessionState::kRunning);
    }
    sync_fault_log_(slot);  // silent degradations (re-routes, bursts) too
    frames_metric_->add(frames);
    ++stepped;
  }
  active_gauge_->set(static_cast<double>(active_sessions()));
  (void)ward_.drain_once();
  // Escalation runs only here, at the batch barrier, where every code and
  // event of the batch has been consumed.
  ward_.settle();
  return stepped;
}

void FleetScheduler::step_cohort_(std::span<Slot* const> batch,
                                  std::span<std::exception_ptr> errors,
                                  std::size_t frames) {
  Cohort& c = cohort_;
  const auto guarded = [&](std::size_t i, auto&& phase) {
    try {
      phase(*batch[i]->session);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  c.live.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    guarded(i, [&](PatientSession& s) {
      if (s.begin_step(frames)) c.live.push_back(i);
    });
  }
  for (std::size_t f = 0; f < frames && !c.live.empty(); ++f) {
    c.lanes.clear();
    c.lane_owner.clear();
    c.c_sense.clear();
    c.c_ref.clear();
    std::size_t clocks = 0;
    for (const std::size_t i : c.live) {
      if (errors[i]) continue;
      guarded(i, [&](PatientSession& s) {
        const PatientSession::FrameLane lane = s.begin_frame();
        if (lane.modulator == nullptr) return;  // the mux fallback ran it
        if (c.lanes.empty()) clocks = lane.clocks;
        if (lane.clocks != clocks) {
          // A different frame length cannot share the bank's block: step
          // this lane alone (lane == solo, so the bits are the same).
          std::vector<int> bits(lane.clocks);
          lane.modulator->step_capacitive_block(lane.c_sense_f, lane.c_ref_f,
                                                bits.data(), bits.size());
          s.end_frame(bits);
          return;
        }
        c.lanes.push_back(lane.modulator);
        c.lane_owner.push_back(i);
        c.c_sense.push_back(lane.c_sense_f);
        c.c_ref.push_back(lane.c_ref_f);
      });
    }
    if (c.lanes.empty()) continue;
    c.bits.resize(c.lanes.size() * clocks);
    c.bank.set_lanes(c.lanes);
    c.bank.step_capacitive_block(c.c_sense.data(), c.c_ref.data(), c.bits.data(),
                                 clocks);
    for (std::size_t k = 0; k < c.lanes.size(); ++k) {
      guarded(c.lane_owner[k], [&](PatientSession& s) {
        s.end_frame({c.bits.data() + k * clocks, clocks});
      });
    }
  }
  for (const std::size_t i : c.live) {
    if (!errors[i]) guarded(i, [](PatientSession& s) { s.end_step(); });
  }
}

bool FleetScheduler::recovery_pending(double until_s) const {
  for (const auto& slot : sessions_) {
    if (slot.state == SessionState::kQuarantined &&
        slot.session->stream_time_s() < until_s) {
      return true;
    }
  }
  return false;
}

void FleetScheduler::serialize(CheckpointWriter& out) const {
  out.section("fleet_scheduler");
  out.u64(batch_index_);
  out.u64(checkpoints_written_);
  out.u64(checkpoints_restored_);
  out.u64(checkpoints_rejected_);
  out.size(sessions_.size());
  for (const auto& slot : sessions_) {
    out.u8(static_cast<std::uint8_t>(slot.state));
    out.str(slot.quarantine_reason);
    out.size(slot.strikes);
    out.u64(slot.eligible_batch);
    out.size(slot.fault_log_synced);
    slot.session->serialize(out);
  }
}

void FleetScheduler::restore(CheckpointReader& in) {
  in.section("fleet_scheduler");
  batch_index_ = in.u64();
  checkpoints_written_ = in.u64();
  checkpoints_restored_ = in.u64();
  checkpoints_rejected_ = in.u64();
  if (in.size() != sessions_.size()) {
    throw CheckpointError{"scheduler checkpoint session count mismatch"};
  }
  for (auto& slot : sessions_) {
    const std::uint8_t state = in.u8();
    if (state > static_cast<std::uint8_t>(SessionState::kRetired)) {
      throw CheckpointError{"scheduler checkpoint has unknown session state"};
    }
    slot.state = static_cast<SessionState>(state);
    slot.quarantine_reason = in.str();
    slot.strikes = in.size();
    slot.eligible_batch = in.u64();
    slot.fault_log_synced = in.size();
    slot.session->restore(in);
  }
  active_gauge_->set(static_cast<double>(active_sessions()));
}

void FleetScheduler::run(double duration_s) {
  for (;;) {
    if (step_all(duration_s) > 0) continue;
    // Nothing stepped: done, unless a quarantined session is waiting out
    // its readmission backoff — then keep ticking batches until it gets
    // every retry its budget allows (it either recovers or retires).
    if (!recovery_pending(duration_s)) break;
  }
  (void)ward_.drain_once();
  ward_.settle();
}

}  // namespace tono::fleet
