#include "src/common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/common/simd.hpp"

namespace tono::metrics {
namespace {

std::atomic<bool> g_enabled{true};

/// Lock-free add for atomic<double> (fetch_add on floating point is C++20
/// but not universally lock-free; the CAS loop is portable and equivalent).
void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

/// JSON-safe number: non-finite values become null so every exported line
/// stays parseable.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

void Counter::add(std::uint64_t n) noexcept {
  if (!enabled()) return;
  value_.fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(double v) noexcept {
  if (!enabled()) return;
  value_.store(v, std::memory_order_relaxed);
}

void Gauge::record_max(double v) noexcept {
  if (!enabled()) return;
  double cur = value_.load(std::memory_order_relaxed);
  while (v > cur &&
         !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      buckets_(upper_bounds.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument{"Histogram: bucket bounds must be ascending"};
  }
}

void Histogram::observe(double v) noexcept {
  if (!enabled()) return;
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

void Timer::record_ns(std::uint64_t ns) noexcept {
  if (!enabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t cur = min_ns_.load(std::memory_order_relaxed);
  while (ns < cur &&
         !min_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = max_ns_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

std::uint64_t Timer::min_ns() const noexcept {
  const std::uint64_t v = min_ns_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

double Timer::mean_ns() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(total_ns()) / static_cast<double>(n);
}

void Timer::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(UINT64_MAX, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

void TraceSpan::stop() noexcept {
  if (timer_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  timer_->record_ns(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
  timer_ = nullptr;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock{mutex_};
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string{name}, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock{mutex_};
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string{name}, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> upper_bounds) {
  std::lock_guard lock{mutex_};
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string{name}, std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return *it->second;
}

Timer& Registry::timer(std::string_view name) {
  std::lock_guard lock{mutex_};
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string{name}, std::make_unique<Timer>()).first;
  }
  return *it->second;
}

void Registry::reset_values() {
  std::lock_guard lock{mutex_};
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, t] : timers_) t->reset();
}

void Registry::export_jsonl(std::ostream& os) const {
  std::lock_guard lock{mutex_};
  for (const auto& [name, c] : counters_) {
    os << "{\"type\":\"counter\",\"name\":\"" << name << "\",\"value\":" << c->value()
       << "}\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "{\"type\":\"gauge\",\"name\":\"" << name
       << "\",\"value\":" << json_number(g->value()) << "}\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "{\"type\":\"histogram\",\"name\":\"" << name << "\",\"count\":" << h->count()
       << ",\"sum\":" << json_number(h->sum()) << ",\"buckets\":[";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      if (i > 0) os << ',';
      os << "{\"le\":";
      if (i < bounds.size()) {
        os << json_number(bounds[i]);
      } else {
        os << "\"inf\"";
      }
      os << ",\"count\":" << h->bucket_count(i) << '}';
    }
    os << "]}\n";
  }
  for (const auto& [name, t] : timers_) {
    os << "{\"type\":\"timer\",\"name\":\"" << name << "\",\"count\":" << t->count()
       << ",\"total_ns\":" << t->total_ns() << ",\"min_ns\":" << t->min_ns()
       << ",\"max_ns\":" << t->max_ns() << ",\"mean_ns\":" << json_number(t->mean_ns())
       << "}\n";
  }
}

void Registry::export_table(std::ostream& os) const {
  std::lock_guard lock{mutex_};
  os << std::left << std::setw(32) << "instrument" << std::setw(10) << "kind"
     << "value\n";
  os << std::string(60, '-') << '\n';
  for (const auto& [name, c] : counters_) {
    os << std::left << std::setw(32) << name << std::setw(10) << "counter"
       << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << std::left << std::setw(32) << name << std::setw(10) << "gauge"
       << std::setprecision(6) << g->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << std::left << std::setw(32) << name << std::setw(10) << "histogram"
       << "n=" << h->count() << " sum=" << std::setprecision(6) << h->sum() << '\n';
  }
  for (const auto& [name, t] : timers_) {
    os << std::left << std::setw(32) << name << std::setw(10) << "timer"
       << "n=" << t->count() << " mean=" << std::setprecision(6)
       << t->mean_ns() / 1e6 << "ms max=" << static_cast<double>(t->max_ns()) / 1e6
       << "ms\n";
  }
}

bool Registry::write_jsonl_file(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) return false;
  export_jsonl(out);
  return static_cast<bool>(out);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

void register_standard_instruments(Registry& r) {
  using namespace names;
  for (const char* name :
       {kPipelineFrames, kPipelineFramesBlock, kPipelineFramesScalar,
        kPipelineMuxFallbacks, kModulatorNoisePlanFills, kBankPackedLaneFrames,
        kBankNarrowLaneFrames, kDecimationSamples,
        kDecimationFirSaturations, kSweepRuns, kSweepTrials, kTelemetryFramesOk,
        kTelemetryCrcErrors, kTelemetryResyncs, kTelemetryLostFrames,
        kMonitorSessions, kMonitorBeats,
        kMonitorQualityRejections, kMonitorRescans, kMonitorAlarmsRaised,
        kFleetSessionsAdmitted, kFleetSessionsDischarged, kFleetSessionsQuarantined,
        kFleetBatches, kFleetFrames, kFleetRingDrops, kFleetRingBlocks,
        kFleetRecoveries, kFleetRetired, kFleetFaultsInjected,
        kWardCodesConsumed, kWardEventsConsumed, kWardEscalations,
        kHospitalEpochs, kHospitalSnapshotsWritten,
        kGatewayFramesMuxed, kGatewayFramesDemuxed,
        kGatewayBytesSent, kGatewayBytesReceived, kGatewayBackpressureBlocks,
        kGatewayEnvelopesDropped, kGatewayCodesDropped, kGatewayCrcErrors,
        kGatewayResyncs, kGatewayLostEnvelopes, kGatewayRecorderBytes,
        kValidationSessions, kValidationBeatsMatched, kValidationBeatsUnmatched,
        kValidationAamiPass, kValidationAamiFail}) {
    (void)r.counter(name);
  }
  for (const char* name :
       {kModulatorPeakState1V, kModulatorPeakState2V, kModulatorClipCount,
        kMonitorAlarmLatencyS, kFleetSessionsActive,
        kWardAlarmsActive, kHospitalShardsActive,
        kHospitalCodesConsumed, kHospitalAlarmsActive, kGatewayReplaySpeedup}) {
    (void)r.gauge(name);
  }
  r.gauge(kProcessSimdWidth)
      .set(static_cast<double>(simd::level_width(simd::active_level())));
  static constexpr double kStrandBounds[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                                             64.0, 128.0, 256.0, 1024.0};
  (void)r.histogram(kSweepTrialsPerStrand, kStrandBounds);
  for (const char* name :
       {kSweepRunWall, kMonitorSessionWall, kBankStepBlock, kFleetBatchWall,
        kHospitalSnapshotWall, kShardEpochWall}) {
    (void)r.timer(name);
  }
}

}  // namespace tono::metrics
