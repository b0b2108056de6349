// patient_session.hpp — one admitted patient's full vertical slice.
//
// The repo simulates one bedside chain end-to-end (Fig. 3: wrist →
// transducer → ΔΣ modulator → decimation → calibrated mmHg stream); the
// fleet layer (docs/FLEET.md) serves many of them concurrently. A
// PatientSession owns everything one patient needs — bio scenario, chip
// pipeline, cuff-anchored calibration, push-based StreamingMonitor — and
// publishes its outputs into two bounded rings:
//
//   * codes ring  — every 12-bit converter word (1 kS/s), default
//                   drop-oldest backpressure (stale telemetry is droppable,
//                   and every drop is counted),
//   * events ring — beats, alarms, quality reports, default blocking
//                   backpressure (a lost alarm is a clinical failure).
//
// Determinism contract: a session's code stream depends only on its
// SessionConfig (including the seed) and the step schedule — never on
// which thread steps it or what other sessions exist. All randomness is
// forked from `seed`, all state is owned by the session, and the shared
// metrics registry never feeds back into the signal path. This is what
// makes the N-session parallel fleet bit-identical to N solo runs
// (tests/test_fleet.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/common/ring_buffer.hpp"
#include "src/core/monitor.hpp"
#include "src/core/streaming_monitor.hpp"
#include "src/core/telemetry.hpp"
#include "src/fleet/fault_plan.hpp"

namespace tono::fleet {

/// Schema version of the PatientSession checkpoint blob. Bump whenever the
/// serialized layout changes; CheckpointReader::require_version turns a
/// stale blob into a loud CheckpointError instead of a silent misparse.
inline constexpr std::uint32_t kSessionCheckpointVersion = 4;

/// Lifecycle of a session inside the scheduler (docs/FLEET.md):
///
///   kAdmitted ──step──► kRunning ◄──resume── kPaused
///       │                  │  │──pause──────────▲
///       │                  └──discharge──► kDischarged
///       │                  │                      readmit (backoff elapsed)
///       └── admit()/step() throws ──► kQuarantined ──────► kRecovering
///                                         ▲                   │   │
///                                         │ throws again      │   └─step OK─► kRunning
///                                         └───────────────────┘
///                                             (strikes > max_readmits ⇒ kRetired)
///
/// Quarantine is crash isolation: a throwing session is parked with its
/// reason recorded; the batch and every other session continue. It is no
/// longer terminal: the scheduler readmits after a deterministic batch-count
/// backoff, up to FleetConfig::max_readmits strikes, then retires for good.
enum class SessionState : std::uint8_t {
  kAdmitted,     ///< registered, not yet calibrated
  kRunning,      ///< producing frames every batch
  kPaused,       ///< retained but skipped by the scheduler
  kDischarged,   ///< finished; rings drained and retired
  kQuarantined,  ///< threw during admit/step; parked until readmission
  kRecovering,   ///< readmitted this batch; kRunning on success, back on throw
  kRetired,      ///< readmission budget exhausted; terminal
};

[[nodiscard]] std::string to_string(SessionState state);

enum class FleetEventKind : std::uint8_t { kBeat, kAlarm, kQuality };

/// One beat/alarm/quality occurrence, trivially copyable for the ring.
struct FleetEvent {
  FleetEventKind kind{FleetEventKind::kBeat};
  std::uint32_t session_id{0};
  core::AlarmKind alarm_kind{core::AlarmKind::kSystolicLow};
  bool flag{false};     ///< alarm: raised/cleared; quality: usable
  double time_s{0.0};   ///< session stream time (0 = monitoring start)
  double value_a{0.0};  ///< beat: systolic mmHg; alarm: confirming value; quality: SQI
  double value_b{0.0};  ///< beat: diastolic mmHg
};

struct SessionConfig {
  /// Root seed of every random stream in the slice (chip mismatch,
  /// modulator noise, physiology). 0 lets the scheduler derive one from
  /// (fleet base_seed, admission index) — the SweepRunner pattern.
  std::uint64_t seed{0};
  /// Bio scenario preset: "rest", "exercise" or "hypotensive".
  std::string scenario{"rest"};
  /// Explicit scenario profile; overrides the `scenario` preset string when
  /// set. This is how population members (bio::ScenarioConfig::make_profile)
  /// ride a session — the profile is config-static, so checkpoint/restore
  /// and readmission reproduce it from the config.
  std::shared_ptr<const bio::ScenarioProfile> scenario_profile{};
  core::ChipConfig chip{core::ChipConfig::paper_chip()};
  core::WristModel wrist{};
  core::StreamingConfig streaming{};
  /// Admission: optional localization scan, then a cuff-anchored two-point
  /// calibration fitted on this acquisition window.
  bool localize{false};
  double calibration_window_s{8.0};
  /// Reject admission when the calibration window has no usable pulse
  /// (bad placement → quarantine instead of streaming garbage pressures).
  bool enforce_quality{true};
  /// Ring capacities (rounded up to powers of two) and policies. Nothing
  /// drains mid-batch, so the codes capacity must cover the scheduler's
  /// frames_per_step (checked at admission); a kBlock ring that fills
  /// anyway grows rather than losing an item.
  std::size_t code_ring_capacity{4096};
  std::size_t event_ring_capacity{256};
  BackpressurePolicy code_policy{BackpressurePolicy::kDropOldest};
  BackpressurePolicy event_policy{BackpressurePolicy::kBlock};
  /// Runtime fault schedule, generated from this config plus the session's
  /// forked fault stream; manual_faults are appended verbatim (tests,
  /// targeted scenarios). An empty plan leaves the fault machinery fully
  /// disengaged: the session's output is byte-identical to a build without
  /// it (docs/FLEET.md determinism contract).
  FaultPlanConfig fault_plan{};
  std::vector<FaultEvent> manual_faults{};
  /// Gateway wiring (src/gateway/, docs/GATEWAY.md). When set, step() hands
  /// the block's surviving 12-bit codes to the sink instead of publishing
  /// them locally; the gateway demux delivers what crossed the wire back
  /// via ingest_codes() at the batch barrier. Lives in the config so a
  /// checkpoint-readmitted replacement session keeps its wiring.
  std::function<void(std::uint32_t, std::span<const std::int16_t>)> code_sink{};
  /// External code source (gateway replay): after admission — which runs
  /// normally, so calibration stays deterministic — step() never acquires
  /// from the pipeline; codes arrive only through ingest_codes(). The fault
  /// machinery stays disengaged: a recorded stream already embodies
  /// whatever faults shaped it.
  bool external_ingest{false};
};

class PatientSession {
 public:
  PatientSession(std::uint32_t id, SessionConfig config);
  ~PatientSession();

  PatientSession(const PatientSession&) = delete;
  PatientSession& operator=(const PatientSession&) = delete;

  /// Localizes (optional) and calibrates. Called once, before the first
  /// step — by the scheduler inside the session's first batch step, so slow
  /// admissions parallelize and a throwing admission quarantines cleanly.
  void admit();

  /// Produces `frames` output samples (1 ms each at the paper rate):
  /// acquires via the block-mode pipeline, publishes every 12-bit code to
  /// the codes ring, converts to mmHg through the calibration and feeds the
  /// streaming monitor, whose beat/alarm/quality callbacks publish to the
  /// events ring. Must only run on one thread at a time (the scheduler
  /// steps each session in exactly one cohort per batch).
  void step(std::size_t frames);

  /// step() in phases, for a scheduler that steps a cohort of sessions frame
  /// by frame with their modulators as lanes of one ModulatorBank
  /// (FleetScheduler, docs/FLEET.md). step(frames) is exactly
  /// begin_step(frames); then `frames` times begin_frame() — stepping the
  /// returned lane's modulator, if any, for total_decimation clocks — and
  /// end_frame(bits); then end_step().
  ///
  /// Prologue: admits on first use and applies due faults (either may
  /// throw). Returns false when the step acquires nothing (external ingest,
  /// or frames == 0); the frame phase and end_step are then skipped.
  [[nodiscard]] bool begin_step(std::size_t frames);
  /// What a frame needs from the caller: `modulator` to step at the given
  /// capacitances, or nullptr when the pipeline's mux-transient fallback
  /// already produced the frame (no end_frame then).
  struct FrameLane {
    analog::DeltaSigmaModulator* modulator{nullptr};
    double c_sense_f{0.0};
    double c_ref_f{0.0};
    std::size_t clocks{0};  ///< modulator clocks per frame (total_decimation)
  };
  /// Frame phase, first half: evaluates the contact field at the pipeline
  /// clock and begins the pipeline frame.
  [[nodiscard]] FrameLane begin_frame();
  /// Frame phase, second half: decimates the lane's bits for this frame.
  void end_frame(std::span<const int> bits);
  /// Epilogue: the link round trip, then the code sink or the local publish
  /// of the step's codes; advances stream time.
  void end_step();

  /// Delivers codes that arrived over the gateway wire: pushes each to the
  /// codes ring (session code_policy) and feeds the streaming monitor via
  /// dequantize + calibration — bit-identical to the direct path, because
  /// the decimated value IS dequantize_from_bits(code, output_bits) by
  /// construction. Under external_ingest this also advances stream time.
  /// Requires an admitted session (the scheduler admits on first step, and
  /// the gateway pump runs only at batch barriers, after that step).
  void ingest_codes(std::span<const std::int16_t> codes);

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const SessionConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool admitted() const noexcept { return admitted_; }
  /// Monitoring stream time: frames produced / output rate. Excludes the
  /// admission (localization + calibration) acquisition.
  [[nodiscard]] double stream_time_s() const noexcept;
  /// Pipeline-clock time at monitoring start. Subtract from pulse-generator
  /// truth onsets to align them with stream-time beat events (validation).
  [[nodiscard]] double stream_epoch_clock_s() const noexcept {
    return stream_epoch_clock_s_;
  }
  /// Consume-and-clear the pulse generator's per-beat ground truth (onsets
  /// on the generator clock; see stream_epoch_clock_s). The validation
  /// harness drains at scoring points so long sessions stay bounded.
  [[nodiscard]] std::vector<bio::BeatTruth> drain_beat_truth();
  [[nodiscard]] std::uint64_t frames_produced() const noexcept { return frames_produced_; }
  [[nodiscard]] double output_rate_hz() const noexcept;

  [[nodiscard]] RingBuffer<std::int16_t>& codes() noexcept { return codes_; }
  [[nodiscard]] RingBuffer<FleetEvent>& events() noexcept { return events_; }

  /// The inner single-patient chain (tests/benches introspection).
  [[nodiscard]] core::BloodPressureMonitor& monitor() noexcept { return *inner_; }
  [[nodiscard]] const core::TwoPointCalibration& calibration() const noexcept {
    return calibration_;
  }

  /// The session's resolved fault schedule (empty for clean sessions).
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return plan_; }
  /// Everything the plan has done so far, one human-readable line per
  /// entry (fault injections, element re-routes). The scheduler mirrors new
  /// entries into the ward's per-session fault log after every batch.
  [[nodiscard]] const std::vector<std::string>& fault_log() const noexcept {
    return fault_log_;
  }
  /// Link accounting when the plan routes codes over the simulated USB link
  /// (any kLinkBurst event); nullptr for direct-publish sessions.
  [[nodiscard]] const core::LinkStats* link_stats() const noexcept {
    return link_decoder_ ? &link_decoder_->stats() : nullptr;
  }

  /// Serializes the whole session — every stateful stage of the vertical
  /// slice plus the fault-plan cursor — into one framed SessionCheckpoint
  /// blob (magic, schema version, checksum; see src/common/checkpoint.hpp).
  /// Must be taken at a batch barrier: per-frame scratch is excluded and
  /// both rings must be drained (quiescent), which the scheduler guarantees.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const;

  /// Restores from a checkpoint() blob into a session freshly constructed
  /// with the SAME id and SessionConfig — construction-time statics
  /// (mismatch draws, LUTs, derived seeds) are reproduced by the
  /// constructor; the blob carries only dynamic state. Continuing from the
  /// restored session is bit-identical to never having stopped. Throws
  /// CheckpointError on any framing/versioning/shape mismatch.
  void restore_checkpoint(const std::vector<std::uint8_t>& blob);

  /// Raw (unframed) stage dump, used by checkpoint() and by whole-scheduler
  /// snapshots that embed many sessions into one frame.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  /// Builds the streaming monitor and registers the ring-publishing
  /// callbacks. Shared by admit() and restore(): a restored session gets a
  /// fresh StreamingMonitor whose state is then overwritten from the blob,
  /// with callbacks freshly bound to this instance.
  void make_stream_();
  void publish_event_(const FleetEvent& event);
  /// Pushes codes to the codes ring and, dequantized and calibrated, to the
  /// streaming monitor: the one publish path of step() and ingest_codes().
  void publish_(std::span<const std::int16_t> codes);
  /// Applies every plan event whose onset has passed. Throws (→ quarantine)
  /// while an event still has throw budget; otherwise installs the
  /// degradation (contact window, link burst window, element fault).
  void apply_due_faults_();
  void apply_fault_(const FaultEvent& event);
  void apply_element_fault_(const FaultEvent& event);
  /// Round-trips `samples` through the simulated USB link (encoder →
  /// injector → decoder), appending every surviving code to `out` —
  /// counted losses, never wrong samples.
  void link_roundtrip_(const std::vector<dsp::DecimatedSample>& samples,
                       std::vector<std::int16_t>& out);
  [[nodiscard]] bool link_burst_active_(double stream_s) const noexcept;

  std::uint32_t id_;
  SessionConfig config_;
  std::unique_ptr<core::BloodPressureMonitor> inner_;
  core::ContactField field_;
  core::ContactField effective_field_;  ///< field_ masked by contact-loss windows
  core::TwoPointCalibration calibration_;
  std::unique_ptr<core::StreamingMonitor> stream_;
  RingBuffer<std::int16_t> codes_;
  RingBuffer<FleetEvent> events_;
  bool admitted_{false};
  std::uint64_t frames_produced_{0};
  // Fault-plan execution state. Windows on the pipeline clock are offset by
  // stream_epoch_clock_s_ (pipeline time at monitoring start): the pipeline
  // evaluates the contact field at its own clock, which includes the
  // admission acquisition, while the plan schedules in stream time.
  FaultPlan plan_;
  std::size_t next_fault_{0};
  std::vector<std::size_t> throws_left_;  ///< parallel to plan_.events()
  std::vector<char> fired_;               ///< metric fired once per event
  std::vector<std::string> fault_log_;
  std::vector<std::pair<double, double>> contact_loss_windows_;  ///< pipeline clock
  std::vector<std::pair<double, double>> link_burst_windows_;    ///< stream time
  double stream_epoch_clock_s_{0.0};
  bool array_dead_{false};  ///< no healthy element left; every step throws
  std::unique_ptr<core::FrameEncoder> link_encoder_;
  std::unique_ptr<core::FrameDecoder> link_decoder_;
  std::unique_ptr<core::LinkFaultInjector> link_injector_;
  // Per-step scratch, never serialized (a step starts and ends between
  // checkpoints).
  std::size_t step_frames_{0};
  core::ElementPosition step_pos_{};  ///< the selected element, for the field
  std::vector<dsp::DecimatedSample> step_samples_;
  std::vector<std::int16_t> step_codes_;
  metrics::Counter* faults_injected_metric_;
};

}  // namespace tono::fleet
