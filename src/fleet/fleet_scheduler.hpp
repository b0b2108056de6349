// fleet_scheduler.hpp — deterministic batch stepping of many sessions.
//
// The serving loop of the fleet layer (docs/FLEET.md): sessions advance in
// lockstep batches of `frames_per_step` output frames. The whole batch is
// one cohort, stepped on the calling thread frame by frame: every frame
// runs all the sessions' ΔΣ modulators as lanes of one ModulatorBank (lane
// == solo, so this changes scheduling only). Parallelism lives one layer up:
// a HospitalScheduler gives each shard its own FleetScheduler and driver
// thread. Nothing drains the rings mid-batch, so a ring should hold one
// whole batch: admission rejects a code ring smaller than frames_per_step.
// A kBlock ring that still fills grows instead of waiting (ring_buffer.hpp),
// so a burst of events costs a reallocation, never a lost event or a hang.
//
// Determinism reuses the SweepRunner pattern: session i's seed derives from
// (base_seed, stream_name, admission index) alone, every session owns all
// of its mutable state, and each batch is a barrier — so a fleet session is
// bit-identical to the same session stepped solo, and a shard of a hospital
// to the unsharded fleet (tests/test_fleet.cpp, tests/test_hospital.cpp).
//
// Crash isolation: an admit()/step() that throws quarantines that session —
// the exception is recorded as the quarantine reason, the batch and every
// other session continue, and nothing propagates to the caller.
//
// Recovery (this is what makes quarantine non-terminal): each quarantine is
// a strike; after a deterministic backoff measured in batch counts
// (readmit_backoff_batches, doubling per strike) the session is readmitted
// as kRecovering and stepped again — back to kRunning on success, another
// strike on a throw. A session exceeding max_readmits strikes is kRetired
// for good. Backoff in batches (not wall time) keeps the whole state
// machine, and therefore every snapshot byte, identical across shard
// layouts and runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/analog/modulator_bank.hpp"
#include "src/common/metrics.hpp"
#include "src/fleet/patient_session.hpp"
#include "src/fleet/ward_aggregator.hpp"

namespace tono::fleet {

struct FleetConfig {
  std::uint64_t base_seed{0x70A05EEDull};
  /// Seed-stream family name; two fleets with different names draw
  /// decorrelated session seeds from the same base seed.
  std::string stream_name{"fleet"};
  /// Output frames (1 ms each at the paper rate) per session per batch.
  std::size_t frames_per_step{64};
  /// Bounded re-admissions: a quarantined session is retried up to this many
  /// times before it is retired for good. 0 makes the first strike terminal.
  std::size_t max_readmits{3};
  /// Readmission delay after the first strike, in batches; doubles with each
  /// further strike (deterministic backoff — no wall clock anywhere).
  std::size_t readmit_backoff_batches{2};
  /// Global-id mapping for sharded fleets (hospital_scheduler.hpp): the
  /// n-th admitted session gets id `session_id_offset + n *
  /// session_id_stride`, and its seed derives from that *global* id. With
  /// the defaults (offset 0, stride 1) ids equal admission order and
  /// nothing changes. Shard s of an S-shard hospital uses (offset=s,
  /// stride=S), which makes shard assignment `id % S` — a pure function of
  /// session id — and keeps every session's seed, and therefore its entire
  /// stream, bit-identical to the unsharded and solo runs.
  std::uint32_t session_id_offset{0};
  std::uint32_t session_id_stride{1};
};

class FleetScheduler {
 public:
  FleetScheduler(FleetConfig config, WardAggregator& ward);
  ~FleetScheduler();

  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  /// The deterministic seed of global session id i — depends only on
  /// (base_seed, stream_name, i). For an unsharded fleet (default id
  /// mapping) the id equals the admission index. A solo harness reproducing
  /// fleet session i bit-for-bit seeds its session with this value.
  [[nodiscard]] std::uint64_t session_seed(std::size_t session_id) const;

  /// Registers a session (state kAdmitted) and attaches it to the ward.
  /// The id is session_id_offset + n·session_id_stride for the n-th
  /// admission; config.seed == 0 is replaced with session_seed(id).
  /// Admission work (localization + calibration) runs inside the session's
  /// first batch step, so it quarantines like a step.
  /// Throws std::invalid_argument if the code ring cannot hold one batch
  /// (frames_per_step): nothing drains mid-batch, so a smaller ring would
  /// shed or regrow on every batch.
  std::uint32_t admit(SessionConfig config, std::string label = "");

  void pause(std::uint32_t id);
  void resume(std::uint32_t id);
  void discharge(std::uint32_t id);

  [[nodiscard]] SessionState state(std::uint32_t id) const;
  /// Exception text of a quarantined session ("" otherwise).
  [[nodiscard]] const std::string& quarantine_reason(std::uint32_t id) const;
  [[nodiscard]] PatientSession* session(std::uint32_t id);
  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }
  [[nodiscard]] std::size_t active_sessions() const;
  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

  /// One batch: every admitted/running session with stream_time_s() <
  /// `until_s` advances frames_per_step frames; quarantined sessions whose
  /// readmission backoff has elapsed join the batch as kRecovering. Returns
  /// sessions stepped successfully. Every call — even one that steps nothing
  /// — advances the batch counter that readmission backoff is measured in.
  std::size_t step_all(double until_s = 1e300);

  /// Batches until every admitted/running session has produced `duration_s`
  /// of monitoring stream (or retired trying), then fully drains the ward.
  /// Keeps ticking empty batches while a quarantined session is waiting out
  /// its backoff, so every readmission the budget allows actually happens.
  /// Paused sessions are skipped, not waited for.
  void run(double duration_s);

  /// Quarantine strikes accrued by a session so far.
  [[nodiscard]] std::size_t strikes(std::uint32_t id) const;

  /// True while a quarantined session still has readmission budget and
  /// stream time left before `until_s` — i.e. an empty batch is not "done",
  /// it is a backoff tick. run() loops on this; a sharded driver
  /// (hospital_scheduler.cpp) needs it for the same loop.
  [[nodiscard]] bool recovery_pending(double until_s) const;

  /// Batches ticked so far (every step_all call counts, stepped or empty).
  [[nodiscard]] std::uint64_t batches() const noexcept { return batch_index_; }

  /// Barrier hook: runs inside every non-empty step_all(), after every
  /// session of the batch has stepped and
  /// before lifecycle processing and the final drain/settle. The gateway
  /// integration (docs/GATEWAY.md) pumps its demux here — codes that
  /// crossed the wire this batch are delivered into the session rings
  /// before the ward consumes and escalates, which is what keeps
  /// gateway-fed runs bit-identical to direct-publish runs. Runtime wiring
  /// only: never serialized with the scheduler.
  void set_batch_hook(std::function<void()> hook) { batch_hook_ = std::move(hook); }

  /// Checkpoint accounting for the readmission path: blobs captured from
  /// quarantined sessions, blobs successfully restored into fresh sessions,
  /// and blobs rejected by validation (the session then resumes in place).
  [[nodiscard]] std::uint64_t checkpoints_written() const noexcept {
    return checkpoints_written_;
  }
  [[nodiscard]] std::uint64_t checkpoints_restored() const noexcept {
    return checkpoints_restored_;
  }
  [[nodiscard]] std::uint64_t checkpoints_rejected() const noexcept {
    return checkpoints_rejected_;
  }

  /// Checkpointing of the whole scheduler: the batch counter plus every
  /// slot's lifecycle (state, strikes, backoff, quarantine reason, fault-log
  /// sync cursor) and the full session dump. Restore expects a scheduler
  /// with the same sessions admitted in the same order; call only at a
  /// batch barrier (between step_all calls).
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  struct Slot {
    std::unique_ptr<PatientSession> session;
    SessionState state{SessionState::kAdmitted};
    std::string quarantine_reason;
    std::size_t strikes{0};           ///< quarantines so far
    std::uint64_t eligible_batch{0};  ///< batch index the next readmit may run
    std::size_t fault_log_synced{0};  ///< session fault_log entries mirrored to ward
  };

  /// The batch's bank and scratch, kept across batches: a batch whose
  /// sessions do not change re-points the bank without rebuilding packets
  /// and allocates nothing.
  struct Cohort {
    analog::ModulatorBank bank;
    std::vector<std::size_t> live;  ///< batch indices acquiring this step
    std::vector<analog::DeltaSigmaModulator*> lanes;
    std::vector<std::size_t> lane_owner;  ///< batch index of each lane
    std::vector<double> c_sense;
    std::vector<double> c_ref;
    std::vector<int> bits;  ///< lane-major, lanes × clocks
  };

  [[nodiscard]] Slot* find_(std::uint32_t id);
  [[nodiscard]] const Slot* find_(std::uint32_t id) const;
  void quarantine_(Slot& slot, const std::exception_ptr& error);
  void sync_fault_log_(Slot& slot);
  /// Readmission = resume-from-checkpoint: captures the quarantined
  /// session's last-barrier state as a blob, rebuilds a fresh session from
  /// the same config, restores the blob into it and re-points the ward's
  /// rings at the replacement. On a rejected blob the old object resumes in
  /// place (counted, noted in the ward fault log).
  void readmit_from_checkpoint_(Slot& slot);
  /// PatientSession::step(frames) for every session of `batch`, in phases:
  /// every prologue, then frame by frame each session's begin_frame, one
  /// bank step of all their modulators and each end_frame, then every
  /// epilogue. A throw lands in that session's `errors` slot and drops it
  /// from the rest of the step; the others go on.
  void step_cohort_(std::span<Slot* const> batch, std::span<std::exception_ptr> errors,
                    std::size_t frames);

  FleetConfig config_;
  WardAggregator& ward_;
  std::function<void()> batch_hook_;
  Cohort cohort_;
  std::vector<Slot> sessions_;
  std::uint64_t batch_index_{0};
  std::uint64_t checkpoints_written_{0};
  std::uint64_t checkpoints_restored_{0};
  std::uint64_t checkpoints_rejected_{0};
  // Observability (resolved once at construction; batch-rate updates).
  metrics::Counter* admitted_metric_;
  metrics::Counter* discharged_metric_;
  metrics::Counter* quarantined_metric_;
  metrics::Counter* recoveries_metric_;
  metrics::Counter* retired_metric_;
  metrics::Counter* batches_metric_;
  metrics::Counter* frames_metric_;
  metrics::Counter* checkpoints_written_metric_;
  metrics::Counter* checkpoints_restored_metric_;
  metrics::Counter* checkpoints_rejected_metric_;
  metrics::Timer* batch_wall_;
  metrics::Gauge* active_gauge_;
};

}  // namespace tono::fleet
