// metrics.hpp — process-wide runtime observability for the simulator.
//
// The paper's headline numbers (SNR > 72 dB, 12 bit @ 1 kS/s, 11.5 mW) are
// measured quantities; operating the simulator as a service needs the same
// discipline applied to the runtime itself. This registry provides four
// instrument kinds — Counter, Gauge, fixed-bucket Histogram and Timer (fed
// by scoped TraceSpan objects on the monotonic clock) — plus JSONL and
// human-readable table exporters.
//
// Hot-path contract (enforced by tests/test_metrics.cpp):
//   * registration (name → instrument) takes a mutex once, at component
//     construction; callers cache the returned reference;
//   * every update is a relaxed atomic op — no locks, no allocation;
//   * instrumentation hooks fire at frame rate (1 kHz) and coarser only,
//     never inside the 128 kHz modulator clock loop;
//   * recording never feeds back into the signal path: modulator bit
//     streams and decimated outputs are bit-identical whether recording is
//     enabled or disabled (see set_enabled()).
//
// See docs/OBSERVABILITY.md for the instrument catalogue and formats.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tono::metrics {

/// Global recording switch. Instruments stay registered while disabled;
/// updates become no-ops. Reads are relaxed atomic loads, so toggling is
/// safe at any time (intended for the bit-exactness regression test and for
/// benchmarking the instrumentation overhead itself).
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (set) or high-water-mark (record_max) scalar.
class Gauge {
 public:
  void set(double v) noexcept;
  /// Raises the gauge to `v` if larger; loses no update under concurrency.
  void record_max(double v) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// overflow bucket catches the rest. Bounds are fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double v) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Duration statistics (count / total / min / max, nanoseconds), fed by
/// TraceSpan or record_ns() directly.
class Timer {
 public:
  void record_ns(std::uint64_t ns) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  /// 0 when no observation has been recorded.
  [[nodiscard]] std::uint64_t min_ns() const noexcept;
  [[nodiscard]] std::uint64_t max_ns() const noexcept {
    return max_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_ns() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> min_ns_{UINT64_MAX};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Scoped monotonic-clock timer: measures from construction to stop() (or
/// destruction) on std::chrono::steady_clock and records into a Timer.
class TraceSpan {
 public:
  explicit TraceSpan(Timer& timer) noexcept
      : timer_(&timer), start_(std::chrono::steady_clock::now()) {}
  ~TraceSpan() { stop(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Records the elapsed time; idempotent (the destructor then does nothing).
  void stop() noexcept;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Name → instrument registry. Registration (the *_named lookups) is
/// mutex-guarded get-or-create with stable addresses: the returned reference
/// lives as long as the registry, so components resolve their instruments
/// once at construction and update lock-free afterwards.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Bounds apply on first registration only; later calls with the same
  /// name return the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::span<const double> upper_bounds);
  [[nodiscard]] Timer& timer(std::string_view name);

  /// Zeroes every registered instrument (registrations are kept).
  void reset_values();

  /// One JSON object per line, one line per instrument, sorted by name
  /// within each instrument kind (counters, gauges, histograms, timers).
  void export_jsonl(std::ostream& os) const;
  /// Aligned human-readable table, same ordering.
  void export_table(std::ostream& os) const;
  /// export_jsonl into `path` (truncating); false if the file cannot open.
  bool write_jsonl_file(const std::string& path) const;

  /// The process-wide registry every built-in instrumentation point uses.
  [[nodiscard]] static Registry& global();

 private:
  mutable std::mutex mutex_;  ///< guards the maps, never the instruments
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

/// Canonical instrument names used by the built-in instrumentation points.
/// Kept in one place so exporters, dashboards and tests agree; the catalogue
/// is documented in docs/OBSERVABILITY.md.
namespace names {
// AcquisitionPipeline (frame rate, 1 kHz)
inline constexpr const char* kPipelineFrames = "pipeline.frames";
inline constexpr const char* kPipelineFramesBlock = "pipeline.frames_block";
inline constexpr const char* kPipelineFramesScalar = "pipeline.frames_scalar";
inline constexpr const char* kPipelineMuxFallbacks = "pipeline.mux_fallbacks";
// DeltaSigmaModulator (published by the pipeline at frame rate)
inline constexpr const char* kModulatorPeakState1V = "modulator.peak_state1_v";
inline constexpr const char* kModulatorPeakState2V = "modulator.peak_state2_v";
inline constexpr const char* kModulatorClipCount = "modulator.clip_count";
/// Noise-plan frames generated by the block path (one per 128-clock frame).
inline constexpr const char* kModulatorNoisePlanFills = "modulator.noise_plan_fills";
// ModulatorBank (block rate). Lane-frames stepped in W-wide SIMD packets vs
// as 1-wide packets: their ratio is how well the banks pack.
inline constexpr const char* kBankStepBlock = "bank.step_block";
inline constexpr const char* kBankPackedLaneFrames = "bank.packed_lane_frames";
inline constexpr const char* kBankNarrowLaneFrames = "bank.narrow_lane_frames";
// Process info, set once by register_standard_instruments.
/// Kernel lane width of the process's SIMD dispatch (4 = AVX2, 2 = NEON,
/// 1 = scalar).
inline constexpr const char* kProcessSimdWidth = "process.simd_width";
// DecimationChain (output rate, 1 kHz)
inline constexpr const char* kDecimationSamples = "decimation.samples";
inline constexpr const char* kDecimationFirSaturations = "decimation.fir_saturations";
// SweepRunner / ThreadPool
inline constexpr const char* kSweepRuns = "sweep.runs";
inline constexpr const char* kSweepTrials = "sweep.trials";
inline constexpr const char* kSweepTrialsPerStrand = "sweep.trials_per_strand";
inline constexpr const char* kSweepRunWall = "sweep.run_wall";
inline constexpr const char* kSweepThreads = "sweep.threads";
inline constexpr const char* kPoolTasksSubmitted = "threadpool.tasks_submitted";
inline constexpr const char* kPoolTasksExecuted = "threadpool.tasks_executed";
inline constexpr const char* kPoolPeakQueueDepth = "threadpool.peak_queue_depth";
/// Instantaneous queue depth (set on every submit/claim under the queue
/// lock); the fleet scheduler reads this to spot a starved batch.
inline constexpr const char* kPoolQueueDepth = "threadpool.queue_depth";
// Telemetry link (FrameDecoder / LinkStats)
inline constexpr const char* kTelemetryFramesOk = "telemetry.frames_ok";
inline constexpr const char* kTelemetryCrcErrors = "telemetry.crc_errors";
inline constexpr const char* kTelemetryResyncs = "telemetry.resyncs";
inline constexpr const char* kTelemetryLostFrames = "telemetry.lost_frames";
// BloodPressureMonitor / StreamingMonitor
inline constexpr const char* kMonitorSessions = "monitor.sessions";
inline constexpr const char* kMonitorBeats = "monitor.beats";
inline constexpr const char* kMonitorQualityRejections = "monitor.quality_rejections";
inline constexpr const char* kMonitorRescans = "monitor.rescans";
inline constexpr const char* kMonitorLastSqi = "monitor.last_sqi";
inline constexpr const char* kMonitorSessionWall = "monitor.session_wall";
inline constexpr const char* kMonitorAlarmsRaised = "monitor.alarms_raised";
inline constexpr const char* kMonitorAlarmLatencyS = "monitor.alarm_latency_s";
// Fleet serving layer (FleetScheduler / PatientSession / WardAggregator;
// see docs/FLEET.md)
inline constexpr const char* kFleetSessionsAdmitted = "fleet.sessions_admitted";
inline constexpr const char* kFleetSessionsDischarged = "fleet.sessions_discharged";
inline constexpr const char* kFleetSessionsQuarantined = "fleet.sessions_quarantined";
inline constexpr const char* kFleetBatches = "fleet.batches";
inline constexpr const char* kFleetFrames = "fleet.frames";
inline constexpr const char* kFleetBatchWall = "fleet.batch_wall";
inline constexpr const char* kFleetSessionsActive = "fleet.sessions_active";
inline constexpr const char* kFleetRingDrops = "fleet.ring_drops";
inline constexpr const char* kFleetRingBlocks = "fleet.ring_blocks";
inline constexpr const char* kFleetRecoveries = "fleet.recoveries";
inline constexpr const char* kFleetRetired = "fleet.retired";
inline constexpr const char* kFleetFaultsInjected = "fleet.faults_injected";
inline constexpr const char* kFleetCheckpointsWritten = "fleet.checkpoints_written";
inline constexpr const char* kFleetCheckpointsRestored = "fleet.checkpoints_restored";
inline constexpr const char* kFleetCheckpointsRejected = "fleet.checkpoints_rejected";
inline constexpr const char* kWardCodesConsumed = "ward.codes_consumed";
inline constexpr const char* kWardEventsConsumed = "ward.events_consumed";
inline constexpr const char* kWardAlarmsActive = "ward.alarms_active";
inline constexpr const char* kWardEscalations = "ward.escalations";
// Hospital sharding layer (HospitalScheduler / AggregationTree /
// AsyncSnapshotWriter; see docs/FLEET.md "Sharding")
inline constexpr const char* kHospitalEpochs = "hospital.epochs";
inline constexpr const char* kHospitalSnapshotsWritten = "hospital.snapshots_written";
inline constexpr const char* kHospitalSnapshotsSkipped = "hospital.snapshots_skipped";
inline constexpr const char* kHospitalShardsActive = "hospital.shards_active";
inline constexpr const char* kHospitalCodesConsumed = "hospital.codes_consumed";
inline constexpr const char* kHospitalAlarmsActive = "hospital.alarms_active";
inline constexpr const char* kHospitalSnapshotWall = "hospital.snapshot_wall";
inline constexpr const char* kShardMirrorPublishes = "shard.mirror_publishes";
inline constexpr const char* kShardEpochWall = "shard.epoch_wall";
// Streaming gateway (GatewayMux/GatewayDemux/SessionRecorder/SessionReplayer;
// see docs/GATEWAY.md)
inline constexpr const char* kGatewayFramesMuxed = "gateway.frames_muxed";
inline constexpr const char* kGatewayFramesDemuxed = "gateway.frames_demuxed";
inline constexpr const char* kGatewayBytesSent = "gateway.bytes_sent";
inline constexpr const char* kGatewayBytesReceived = "gateway.bytes_received";
inline constexpr const char* kGatewayBackpressureBlocks = "gateway.backpressure_blocks";
inline constexpr const char* kGatewayEnvelopesDropped = "gateway.envelopes_dropped";
inline constexpr const char* kGatewayCodesDropped = "gateway.codes_dropped";
inline constexpr const char* kGatewayCrcErrors = "gateway.crc_errors";
inline constexpr const char* kGatewayResyncs = "gateway.resyncs";
inline constexpr const char* kGatewayLostEnvelopes = "gateway.lost_envelopes";
inline constexpr const char* kGatewayChannels = "gateway.channels";
inline constexpr const char* kGatewayRecorderBytes = "gateway.recorder_bytes";
inline constexpr const char* kGatewayReplaySpeedup = "gateway.replay_speedup";
// Validation harness (SessionValidator / validation_report; see
// docs/VALIDATION.md)
inline constexpr const char* kValidationSessions = "validation.sessions_scored";
inline constexpr const char* kValidationBeatsMatched = "validation.beats_matched";
inline constexpr const char* kValidationBeatsUnmatched = "validation.beats_unmatched";
inline constexpr const char* kValidationAamiPass = "validation.aami_pass";
inline constexpr const char* kValidationAamiFail = "validation.aami_fail";
inline constexpr const char* kValidationLastSysBias = "validation.last_sys_bias_mmhg";
inline constexpr const char* kValidationLastSysSd = "validation.last_sys_sd_mmhg";
}  // namespace names

/// Pre-registers the full canonical instrument set in `r` (all zero until
/// first touched, except the process-info gauges), so a snapshot covers
/// every subsystem even when the run exercised only part of the signal
/// chain. Idempotent.
void register_standard_instruments(Registry& r = Registry::global());

}  // namespace tono::metrics
