// ward_aggregator.hpp — the ward's single pane of glass.
//
// The consumer side of the fleet: drains every session's code and event
// rings, maintains per-session vitals (last BP, SQI, active alarms, ring
// loss accounting), and runs the ward-level alarm escalation queue — the
// piece a single-patient monitor cannot have. Escalation policy
// (docs/FLEET.md):
//
//   kNotice   — an alarm was raised on a session,
//   kUrgent   — still active `escalate_after_s` of session stream time
//               later (nobody resolved it),
//   kCritical — the session has >= `critical_active_kinds` distinct alarm
//               kinds active at once (multi-vital deterioration).
//
// Threading contract: drain_once(), attach(), lifecycle updates and
// snapshots all run on ONE thread (the scheduler's caller). Producers touch
// only the rings, so the aggregator never reads session objects while
// they step. Consumption totals are mirrored into the global
// metrics registry (ward.* / fleet.ring_* instruments).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/core/validation.hpp"
#include "src/fleet/patient_session.hpp"

namespace tono::fleet {

enum class WardAlarmLevel : std::uint8_t { kNotice, kUrgent, kCritical };

[[nodiscard]] std::string to_string(WardAlarmLevel level);

/// One entry of the ward escalation queue.
struct WardAlarm {
  std::uint32_t session_id{0};
  core::AlarmKind kind{core::AlarmKind::kSystolicLow};
  WardAlarmLevel level{WardAlarmLevel::kNotice};
  double raised_s{0.0};   ///< session stream time of the raise
  double value{0.0};      ///< measurement that confirmed the raise
  bool active{true};
};

/// Per-session state as seen from the ward (rebuilt purely from the rings
/// plus scheduler lifecycle notes).
struct WardSessionState {
  std::uint32_t id{0};
  std::string label;
  SessionState lifecycle{SessionState::kAdmitted};
  std::string note;  ///< quarantine reason, when applicable
  std::uint64_t codes{0};
  std::uint64_t events{0};
  std::uint64_t beats{0};
  std::int16_t last_code{0};
  double last_systolic_mmhg{0.0};
  double last_diastolic_mmhg{0.0};
  double last_beat_s{0.0};
  double last_sqi{0.0};
  bool sqi_usable{false};
  std::uint64_t code_drops{0};    ///< mirrored from the codes ring
  std::uint64_t event_drops{0};   ///< mirrored from the events ring
  std::uint64_t block_events{0};  ///< producer stalls (both rings)
  std::size_t alarms_active{0};
  std::uint64_t recoveries{0};    ///< completed readmissions (kRecovering → kRunning)
  /// Scheduler-mirrored fault history: injected faults, re-routes,
  /// quarantine strikes, readmissions, retirement. Exported in snapshots.
  std::vector<std::string> fault_log;
};

struct WardConfig {
  /// Session stream time an alarm may stay active before kNotice → kUrgent.
  double escalate_after_s{10.0};
  /// Distinct active alarm kinds on one session that force kCritical.
  std::size_t critical_active_kinds{2};
  /// Keep every consumed 12-bit code per session (determinism tests; off by
  /// default to bound ward memory on long runs).
  bool record_codes{false};
};

/// A value-type copy of everything a ward snapshot serializes: the
/// per-session states plus the ward-level totals. Decoupling this from
/// WardAggregator is what makes hospital sharding and async snapshots work —
/// shard snapshots merge into one (merge_snapshots) and serialization
/// (export_jsonl below) can run on a dedicated writer thread while the wards
/// keep draining.
struct WardSnapshot {
  std::vector<WardSessionState> sessions;
  std::uint64_t codes_consumed{0};
  std::uint64_t events_consumed{0};
  std::size_t alarms_active{0};
  std::size_t alarms_total{0};
  std::uint64_t escalations{0};
  std::uint64_t drops{0};        ///< total ring losses (codes + events)
  std::uint64_t event_drops{0};  ///< events lost (0 under blocking policy)
  std::uint64_t recoveries{0};
  std::uint64_t retired{0};
};

/// Serializes a snapshot as JSONL: one "session" object per line, then one
/// "ward" summary line. Byte-compatible with WardAggregator::export_jsonl —
/// and shard-count-invariant: merging N shard snapshots and serializing
/// yields the same bytes as the equivalent single-ward run.
void export_jsonl(const WardSnapshot& snapshot, std::ostream& os);

/// Merges shard snapshots into one hospital-wide snapshot: sessions are
/// re-ordered by global session id, totals are summed.
[[nodiscard]] WardSnapshot merge_snapshots(std::vector<WardSnapshot> parts);

class WardAggregator {
 public:
  explicit WardAggregator(WardConfig config = {});

  /// Registers a session's rings. Call before the session's first step.
  void attach(PatientSession& session, std::string label = "");

  /// Re-points an already-attached session id at a new PatientSession
  /// object (checkpoint-restored readmission). The accumulated
  /// WardSessionState — vitals, ring-loss accounting, fault log, alarm
  /// history — is preserved; only the ring pointers move. The replacement
  /// carries the old object's ring lifetime counters in its checkpoint, so
  /// the delta mirrors continue seamlessly. Throws std::out_of_range for an
  /// unknown id.
  void reattach(PatientSession& session);

  /// Scheduler lifecycle note (shown in snapshots; quarantine reasons land
  /// here). Tracks recovery/retire accounting: a kRecovering → kRunning
  /// transition counts one recovery and clears the stale quarantine note, a
  /// first transition to kRetired counts one retirement.
  void set_lifecycle(std::uint32_t session_id, SessionState state,
                     std::string note = "");

  /// Appends one line to a session's fault log (scheduler mirror of the
  /// session-side log plus quarantine/readmit/retire verdicts).
  void note_fault(std::uint32_t session_id, std::string entry);

  /// Drains every attached ring once and updates per-session state and the
  /// ward.* consumption metrics. Returns items consumed. Safe to call while
  /// producers are mid-batch (the rings are lock-free), though the fleet
  /// scheduler drains only at batch barriers.
  std::size_t drain_once();

  /// Runs the time-based escalation policy and refreshes the alarms-active
  /// gauge. Deliberately split from drain_once(): a drain may see partial
  /// code counts, so notice→urgent decisions only fire here — the
  /// scheduler calls it at batch barriers, after a full drain, which keeps
  /// escalation (and snapshot bytes) identical across shard layouts.
  void settle();

  [[nodiscard]] const std::vector<WardSessionState>& sessions() const noexcept {
    return sessions_;
  }
  [[nodiscard]] const WardSessionState* session(std::uint32_t session_id) const;
  [[nodiscard]] const std::vector<WardAlarm>& alarm_queue() const noexcept {
    return alarm_queue_;
  }
  [[nodiscard]] std::size_t alarms_active() const noexcept;
  [[nodiscard]] std::uint64_t escalations() const noexcept { return escalations_; }
  [[nodiscard]] std::uint64_t recoveries() const noexcept { return recoveries_; }
  [[nodiscard]] std::uint64_t retired() const noexcept { return retired_; }
  [[nodiscard]] std::uint64_t codes_consumed() const noexcept { return codes_consumed_; }
  [[nodiscard]] std::uint64_t events_consumed() const noexcept { return events_consumed_; }
  /// Total items lost to drop-oldest backpressure across all rings.
  [[nodiscard]] std::uint64_t total_drops() const noexcept;
  /// Alarm/beat/quality events lost (must stay 0 under the blocking policy).
  [[nodiscard]] std::uint64_t event_drops() const noexcept;
  /// Producer stalls on blocking rings, summed across sessions.
  [[nodiscard]] std::uint64_t total_blocks() const noexcept;

  /// Copies the full ward state into a value-type snapshot (same threading
  /// contract as export_jsonl: call at a barrier or after the run).
  [[nodiscard]] WardSnapshot snapshot() const;

  /// Recorded code stream of a session (requires WardConfig::record_codes).
  [[nodiscard]] const std::vector<std::int16_t>& recorded_codes(
      std::uint32_t session_id) const;

  /// Ward snapshot as JSONL: one "session" object per line, then one "ward"
  /// summary line. Complements the metrics registry export (ward.* totals)
  /// with per-session detail the flat registry cannot carry. Equivalent to
  /// fleet::export_jsonl(snapshot(), os).
  void export_jsonl(std::ostream& os) const;

  /// Validation roll-up (docs/VALIDATION.md): sessions graded by the
  /// validation harness report here; cohort grades are exact merges of the
  /// per-session accumulators, so a sharded fleet grades identically to a
  /// serial run. Same threading contract as snapshots: record at barriers.
  void record_validation(core::SessionValidationRecord record);
  [[nodiscard]] const std::vector<core::SessionValidationRecord>& validation_records()
      const noexcept {
    return validation_records_;
  }
  [[nodiscard]] std::vector<core::CohortValidation> validation_by_cohort() const;
  /// Per-session + per-cohort + fleet validation lines
  /// (core::export_validation_jsonl over the recorded set).
  void export_validation_jsonl(std::ostream& os) const;

  /// Checkpointing: per-session ward state (vitals, loss accounting, fault
  /// logs, recorded codes), the alarm queue and the ward totals. Restore
  /// expects the same sessions attached in the same order; the registry
  /// mirrors are process-lifetime and are untouched.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  struct Entry {
    RingBuffer<std::int16_t>* codes;
    RingBuffer<FleetEvent>* events;
    double output_rate_hz;
    std::vector<std::int16_t> code_log;  ///< only when record_codes
  };

  void consume_event_(WardSessionState& state, const FleetEvent& event);
  void run_escalations_();

  WardConfig config_;
  std::vector<WardSessionState> sessions_;
  std::vector<Entry> entries_;  ///< parallel to sessions_
  std::vector<WardAlarm> alarm_queue_;
  std::vector<core::SessionValidationRecord> validation_records_;
  std::uint64_t escalations_{0};
  std::uint64_t recoveries_{0};
  std::uint64_t retired_{0};
  std::uint64_t codes_consumed_{0};
  std::uint64_t events_consumed_{0};
  std::vector<std::int16_t> code_scratch_;
  std::vector<FleetEvent> event_scratch_;
  // Observability (resolved once at construction; drain-rate updates).
  metrics::Counter* codes_metric_;
  metrics::Counter* events_metric_;
  metrics::Counter* drops_metric_;
  metrics::Counter* blocks_metric_;
  metrics::Counter* escalations_metric_;
  metrics::Gauge* alarms_active_gauge_;
};

}  // namespace tono::fleet
