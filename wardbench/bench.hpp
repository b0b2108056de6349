// bench.hpp — shared pieces of the ward benchmark (see README.md).
//
// The benchmark drives the program only through public functions of
// src/fleet, src/gateway, src/core and src/bio and times every layer from
// outside, around those calls. Tracing, percentiles, grading against the
// pulse generator's beat truth and the result line live here; the three
// workloads and the traced-run layer probes are in their own files.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/core/validation.hpp"
#include "src/fleet/hospital_scheduler.hpp"
#include "src/fleet/patient_session.hpp"

namespace wardbench {

using namespace tono;

/// Two worker threads at most: the benchmark shares a 4-core host.
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kFramesPerBatch = 64;
/// Set-up is repeated this many times per run (three equal cohorts, three
/// recordings, three member draws); setup_s is the median.
inline constexpr int kSetupRepeats = 3;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------- tracing

/// One timed interval around a call into the program. `parent` is the span
/// that was open on the same thread when this one began (0 = root), so a
/// layer's self time is its duration minus its children's.
struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t items{0};  ///< frames, codes, records … the span processed
};

/// Process-wide span store: per-thread buffers kept in memory until the run
/// ends. Disabled (the untraced run), every call is a single branch.
class Tracer {
 public:
  static Tracer& global();
  void enable(bool on) noexcept { on_ = on; }
  [[nodiscard]] bool on() const noexcept { return on_; }
  /// Records an interval measured by the caller (batch periods between two
  /// barrier hooks), parented to the span open on this thread.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t items);
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  bool on_{false};
};

/// RAII span around one call. `items` may be set once the count is known.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t items = 1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_items(std::uint64_t items) noexcept { items_ = items; }

 private:
  const char* name_;
  std::uint64_t items_;
  std::uint64_t id_{0};
  std::uint64_t parent_{0};
  std::int64_t start_ns_{0};
};

struct LayerTotals {
  std::uint64_t spans{0};
  std::uint64_t items{0};
  double total_ns{0.0};
  double self_ns{0.0};
};
[[nodiscard]] std::map<std::string, LayerTotals> aggregate(const std::vector<Span>& spans);
/// Writes one JSON object per span; false on an I/O error.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  std::size_t samples{0};  ///< timings: the sample count behind the value
};

/// What one workload run reports. A session that is quarantined, retired or
/// fails a per-session check counts in `failed`, and so does an operation
/// that fails (a checkpoint that cannot be restored); a fleet-level check
/// that fails makes the run incorrect.
struct Result {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t sessions_failed{0};
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what);
  void session_failed(std::uint32_t id, const std::string& why);
  void operation_failed(const std::string& why);
  void put(std::string name, double value, std::string unit, std::size_t samples = 0);
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

/// Percentile `p` (0..1, linear between ranks) of `values`. Throws when fewer
/// than ten samples lie above it: a tail drawn from a handful of batches
/// would move with every run.
[[nodiscard]] double percentile(std::vector<double> values, double p, const char* what);
/// Adds percentile `p` of `values` as metric `name`. A percentile with fewer
/// than ten samples above it is refused (throws), except in the self-check
/// miniature, which skips it.
void put_percentile(Result& result, const std::string& name,
                    const std::vector<double>& values, double p, const std::string& unit,
                    bool mini);
[[nodiscard]] double median(std::vector<double> values);
/// Peak resident set of this process [MB].
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------- grading

/// Estimated beats a session published (stream time) and its monitoring
/// epoch on the pipeline clock, plus the generator's truth for the window.
struct SessionBeats {
  std::uint32_t id{0};
  double epoch_s{0.0};
  double stream_s{0.0};
  std::vector<core::EstimatedBeat> estimates;  ///< times already on the pipeline clock
  std::vector<bio::BeatTruth> truth;           ///< beats that overlap monitoring
};

/// Keeps the truth beats that end after monitoring began (the calibration
/// acquisition is not scored), the same rule validation_report uses.
[[nodiscard]] std::vector<bio::BeatTruth> monitored_truth(std::vector<bio::BeatTruth> beats,
                                                          double epoch_s);

struct FleetGrade {
  core::ErrorAccumulator sys;
  core::ErrorAccumulator dia;
  std::size_t truth_beats{0};
  std::size_t matched_beats{0};
  /// Pooled within-session systolic residual SD with the truth log as given
  /// and shifted one beat earlier / later. Estimates follow the beat they
  /// measured, so the aligned log must fit best.
  double residual_sd_aligned{0.0};
  double residual_sd_shift_minus{0.0};
  double residual_sd_shift_plus{0.0};
};

/// Grades every session with core::SessionValidator and runs the checks that
/// hold for any correct monitor: systolic above diastolic on every beat, a
/// beat count between the truth count less the monitor's warm-up beats and
/// the truth count, AAMI on the fleet, and beat alignment.
FleetGrade grade_fleet(const std::vector<SessionBeats>& sessions,
                       const core::StreamingConfig& streaming, Result& result);

/// Turns a grade into the accuracy metrics and the per-layer pairing ratio.
void put_accuracy(const FleetGrade& grade, Result& result);

/// Self-check hook: shifts a truth log by one beat (each beat takes the next
/// one's values), as a mislabelled reference would.
void shift_truth_one_beat(std::vector<SessionBeats>& sessions);

/// FNV-1a over 16-bit codes, chained.
[[nodiscard]] std::uint64_t fnv_codes(std::uint64_t h, const std::int16_t* codes,
                                      std::size_t n);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// ---------------------------------------------------------------- workloads

struct Options {
  std::uint64_t seed{1};
  int seconds{10};
  bool trace{false};
  /// Seconds-long miniature used by --self-check.
  bool mini{false};
  /// Self-check fault injection: flip one recorded payload byte / shift the
  /// beat truth by one beat. Each must make the run report a failure.
  bool flip_record_byte{false};
  bool shift_truth{false};
  std::string out_dir{".bench_out"};
};

Result run_ward_steady(const Options& options);
Result run_admission_population(const Options& options);
Result run_gateway_replay(const Options& options);

/// Traced runs only: the twin sessions (field / clock_block / monitor split
/// of PatientSession::step), the modulator, bank and decimation kernels on
/// the twin's inputs, and PopulationGenerator members.
void run_layer_probes(const Options& options, Result& result);

/// Per-layer metrics from the collected spans, added to `result`.
void put_layer_metrics(const std::map<std::string, LayerTotals>& layers, Result& result);

/// Session configs of the ward mix: index i gets the i-th `session_mix` preset.
[[nodiscard]] fleet::SessionConfig ward_config(std::size_t index);
[[nodiscard]] const char* ward_label(std::size_t index);

// ------------------------------------------- hospital helpers (ward.cpp)

/// Two serial shards (one driver thread each), 64-frame batches.
[[nodiscard]] std::unique_ptr<fleet::HospitalScheduler> make_hospital(std::uint64_t seed);

struct AdmitTimes {
  std::vector<double> ms;
  std::size_t first_try{0};  ///< admissions that succeeded without a strike
};
/// Admits sessions first..first+n-1 of `hospital` on a two-thread
/// SweepRunner, timing each PatientSession::admit. A throwing admission is
/// left to the scheduler's quarantine/readmission on its first batch.
void admit_sessions(fleet::HospitalScheduler& hospital, std::uint32_t first, std::size_t n,
                    AdmitTimes& times);

/// Frames a session streams in FleetScheduler::run(stream_s): whole batches
/// while stream time is below the target.
[[nodiscard]] std::uint64_t frames_for(double stream_s, double rate_hz);

/// Installed as (part of) every shard's batch hook: times the batch period
/// between consecutive barriers and copies each session's beat events as
/// they wait for the ward. A serial shard runs its hook on the driver
/// thread after all steps of the batch and before the ward drains, so the
/// events are popped and pushed back in order; the ward then consumes
/// them exactly as it would have.
class BarrierTap {
 public:
  BarrierTap(fleet::HospitalScheduler& hospital, std::size_t sessions);
  /// Arms the batch clocks; the first barrier of each shard after start()
  /// only sets its clock (that interval includes the driver thread start).
  void start();
  void on_barrier(std::size_t shard);
  [[nodiscard]] std::vector<double> batch_ms() const;
  [[nodiscard]] const std::vector<core::EstimatedBeat>& beats(std::uint32_t id) const {
    return beats_[id];
  }
  [[nodiscard]] bool repush_failed() const noexcept { return repush_failed_.load(); }

 private:
  fleet::HospitalScheduler& hospital_;
  std::vector<std::vector<std::uint32_t>> shard_ids_;
  std::vector<std::int64_t> last_ns_;
  std::vector<char> armed_;
  std::vector<std::vector<double>> batch_ms_;
  std::vector<std::vector<core::EstimatedBeat>> beats_;
  std::vector<std::vector<fleet::FleetEvent>> scratch_;
  std::atomic<bool> repush_failed_{false};  ///< written from both shard drivers
};

}  // namespace wardbench
