// Tests for the runtime observability layer (src/common/metrics.*): the
// instrument primitives, the registry contract (stable addresses, global
// enable switch, exporters) and the hot-path guarantee that instrumentation
// never perturbs the signal path (bit-exactness regression).
#include "src/common/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/simd.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/sweep_runner.hpp"

namespace tono::metrics {
namespace {

// The process-wide enable flag defaults to on; every test that flips it must
// restore it, or later tests silently record nothing.
class EnabledGuard {
 public:
  EnabledGuard() : was_(enabled()) {}
  ~EnabledGuard() { set_enabled(was_); }

 private:
  bool was_;
};

TEST(Counter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetOverwritesRecordMaxKeepsPeak) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.record_max(2.0);
  g.record_max(1.0);  // lower: must not regress the peak
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Histogram, BucketAssignmentAndOverflow) {
  const std::array<double, 3> bounds{1.0, 2.0, 4.0};
  Histogram h{bounds};
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (upper bound is inclusive)
  h.observe(3.0);   // bucket 2
  h.observe(100.0); // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

TEST(Timer, StatsAndEmptyMin) {
  Timer t;
  EXPECT_EQ(t.min_ns(), 0u) << "empty timer must not report UINT64_MAX";
  t.record_ns(100);
  t.record_ns(300);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_EQ(t.total_ns(), 400u);
  EXPECT_EQ(t.min_ns(), 100u);
  EXPECT_EQ(t.max_ns(), 300u);
  EXPECT_DOUBLE_EQ(t.mean_ns(), 200.0);
}

TEST(TraceSpan, RecordsOnceEvenWithExplicitStop) {
  Timer t;
  {
    TraceSpan span{t};
    span.stop();
    // Destructor must not record a second observation.
  }
  EXPECT_EQ(t.count(), 1u);
}

TEST(Registry, GetOrCreateReturnsStableAddresses) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("y.count");
  EXPECT_NE(&a, &c);
  const std::array<double, 2> bounds{1.0, 2.0};
  Histogram& h1 = reg.histogram("x.hist", bounds);
  const std::array<double, 3> other{9.0, 10.0, 11.0};
  Histogram& h2 = reg.histogram("x.hist", other);  // bounds fixed on first call
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Registry, DisabledSuppressesEveryUpdate) {
  EnabledGuard guard;
  Registry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  const std::array<double, 1> bounds{1.0};
  Histogram& h = reg.histogram("h", bounds);
  Timer& t = reg.timer("t");
  set_enabled(false);
  c.add(5);
  g.set(1.0);
  g.record_max(2.0);
  h.observe(0.5);
  t.record_ns(10);
  { TraceSpan span{t}; }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(t.count(), 0u);
  set_enabled(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(Registry, ResetValuesKeepsRegistrations) {
  Registry reg;
  Counter& c = reg.counter("c");
  c.add(7);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.counter("c"), &c);
}

// Minimal structural JSON check: balanced braces/brackets outside strings,
// one object per line. Full parsing is out of scope for a C++ test without a
// JSON dependency; the jq-level check lives in CI.
bool looks_like_json_object(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Registry, JsonlExportIsOneParseableObjectPerLine) {
  Registry reg;
  reg.counter("a.count").add(3);
  reg.gauge("a.gauge").set(1.25);
  const std::array<double, 2> bounds{1.0, 8.0};
  reg.histogram("a.hist", bounds).observe(2.0);
  reg.timer("a.timer").record_ns(500);
  reg.gauge("b.nonfinite").set(std::nan(""));  // must export as null, not NaN

  std::ostringstream os;
  reg.export_jsonl(os);
  std::istringstream is{os.str()};
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(looks_like_json_object(line)) << line;
    EXPECT_NE(line.find("\"name\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"type\""), std::string::npos) << line;
    EXPECT_EQ(line.find("nan"), std::string::npos) << "non-finite leaked: " << line;
  }
  EXPECT_EQ(lines, 5u);
  EXPECT_NE(os.str().find("\"le\":\"inf\""), std::string::npos)
      << "histogram overflow bucket missing";
}

TEST(Registry, TableExportListsEveryInstrument) {
  Registry reg;
  reg.counter("rows.counter").add(1);
  reg.timer("rows.timer").record_ns(42);
  std::ostringstream os;
  reg.export_table(os);
  EXPECT_NE(os.str().find("rows.counter"), std::string::npos);
  EXPECT_NE(os.str().find("rows.timer"), std::string::npos);
}

TEST(Registry, StandardInstrumentsCoverEverySubsystem) {
  Registry reg;
  register_standard_instruments(reg);
  register_standard_instruments(reg);  // idempotent
  std::ostringstream os;
  reg.export_jsonl(os);
  const std::string out = os.str();
  for (const char* prefix : {"pipeline.", "modulator.", "decimation.", "sweep.",
                             "telemetry.", "monitor."}) {
    EXPECT_NE(out.find(prefix), std::string::npos) << "subsystem missing: " << prefix;
  }
}

TEST(Metrics, ConcurrentCounterUpdatesLoseNothing) {
  Registry reg;
  Counter& c = reg.counter("contended");
  Gauge& g = reg.gauge("contended.max");
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&c, &g, tid] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        c.add(1);
        g.record_max(static_cast<double>(tid * kAddsPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kAddsPerThread - 1));
}

// --- Instrumentation-point tests (global registry; measured as deltas
// because other tests in this binary touch the same process-wide counters).

TEST(MetricsWiring, SweepRunnerCountsRunsAndTrials) {
  auto& reg = Registry::global();
  const auto runs0 = reg.counter(names::kSweepRuns).value();
  const auto trials0 = reg.counter(names::kSweepTrials).value();
  const auto wall0 = reg.timer(names::kSweepRunWall).count();
  core::SweepConfig cfg;
  cfg.threads = 2;
  core::SweepRunner runner{cfg};
  const auto out = runner.run(24, [](std::size_t i) { return static_cast<int>(i) * 2; });
  ASSERT_EQ(out.size(), 24u);
  EXPECT_EQ(reg.counter(names::kSweepRuns).value() - runs0, 1u);
  EXPECT_EQ(reg.counter(names::kSweepTrials).value() - trials0, 24u);
  EXPECT_EQ(reg.timer(names::kSweepRunWall).count() - wall0, 1u);
}

TEST(MetricsWiring, PipelineCountsFramesAtOutputRate) {
  auto& reg = Registry::global();
  const auto frames0 = reg.counter(names::kPipelineFrames).value();
  const auto dec0 = reg.counter(names::kDecimationSamples).value();
  core::AcquisitionPipeline pipeline{core::ChipConfig::paper_chip()};
  constexpr std::size_t kFrames = 16;
  const auto samples =
      pipeline.acquire_uniform([](double) { return 2000.0; }, kFrames);
  ASSERT_EQ(samples.size(), kFrames);
  EXPECT_EQ(reg.counter(names::kPipelineFrames).value() - frames0, kFrames);
  EXPECT_EQ(reg.counter(names::kDecimationSamples).value() - dec0, kFrames);
}

// The hot-path contract: enabling or disabling recording must not change a
// single output bit. Any instrumentation that feeds back into the signal
// path (reordered float math, extra state) fails this.
TEST(MetricsWiring, BitstreamIsIdenticalWithMetricsOnAndOff) {
  EnabledGuard guard;
  const auto chip = core::ChipConfig::paper_chip();
  const auto pressure = [](double t) { return 2000.0 + 500.0 * t; };
  constexpr std::size_t kFrames = 32;

  set_enabled(true);
  core::AcquisitionPipeline on{chip};
  const auto with_metrics = on.acquire_uniform(pressure, kFrames);
  const auto with_metrics_block = on.acquire_uniform_block(pressure, kFrames);

  set_enabled(false);
  core::AcquisitionPipeline off{chip};
  const auto without_metrics = off.acquire_uniform(pressure, kFrames);
  const auto without_metrics_block = off.acquire_uniform_block(pressure, kFrames);
  set_enabled(true);

  ASSERT_EQ(with_metrics.size(), without_metrics.size());
  for (std::size_t i = 0; i < with_metrics.size(); ++i) {
    EXPECT_EQ(with_metrics[i].code, without_metrics[i].code) << i;
  }
  ASSERT_EQ(with_metrics_block.size(), without_metrics_block.size());
  for (std::size_t i = 0; i < with_metrics_block.size(); ++i) {
    EXPECT_EQ(with_metrics_block[i].code, without_metrics_block[i].code) << i;
  }
}

// Same contract for the ModulatorBank / ArrayAcquisition path: its
// noise-plan fills, lane gauge and block timer must never touch the signal.
TEST(MetricsWiring, BankBitstreamIsIdenticalWithMetricsOnAndOff) {
  EnabledGuard guard;
  const auto chip = core::ChipConfig::paper_chip();
  const auto field = [](double x_m, double, double t) {
    return 4000.0 + 2.0e7 * x_m + 800.0 * t;
  };
  constexpr std::size_t kFrames = 24;

  set_enabled(true);
  core::ArrayAcquisition on{chip};
  const auto with_metrics = on.acquire_block(field, kFrames);

  set_enabled(false);
  core::ArrayAcquisition off{chip};
  const auto without_metrics = off.acquire_block(field, kFrames);
  set_enabled(true);

  ASSERT_EQ(with_metrics.size(), without_metrics.size());
  for (std::size_t k = 0; k < with_metrics.size(); ++k) {
    ASSERT_EQ(with_metrics[k].size(), without_metrics[k].size());
    for (std::size_t i = 0; i < with_metrics[k].size(); ++i) {
      EXPECT_EQ(with_metrics[k][i].code, without_metrics[k][i].code)
          << "lane=" << k << " i=" << i;
    }
  }
}

TEST(MetricsWiring, NoisePlanFillsCountFrames) {
  EnabledGuard guard;
  set_enabled(true);
  auto& counter = Registry::global().counter(names::kModulatorNoisePlanFills);
  const auto fills0 = counter.value();
  analog::DeltaSigmaModulator mod{analog::ModulatorConfig{}};
  std::vector<int> bits(128 * 5);
  mod.step_capacitive_block(104e-15, 100e-15, bits.data(), bits.size());
  EXPECT_EQ(counter.value() - fills0, 5u);
}

TEST(MetricsWiring, BankCountsPackedAndNarrowLaneFramesPerBlock) {
  EnabledGuard guard;
  set_enabled(true);
  auto& packed = Registry::global().counter(names::kBankPackedLaneFrames);
  auto& narrow = Registry::global().counter(names::kBankNarrowLaneFrames);
  const auto packed0 = packed.value();
  const auto narrow0 = narrow.value();
  constexpr std::size_t kLanes = 9;
  analog::ModulatorBank bank{analog::ModulatorConfig{}, kLanes};
  const std::vector<double> c_sense(kLanes, 104e-15);
  const std::vector<double> c_ref(kLanes, 100e-15);
  std::vector<int> bits(kLanes * 128 * 3);
  bank.step_capacitive_block(c_sense.data(), c_ref.data(), bits.data(), 128 * 3);
  // Same control structure everywhere: full packets, the rest 1-wide.
  const std::size_t wide = kLanes / bank.simd_width() * bank.simd_width();
  const std::size_t expect_packed = bank.simd_width() > 1 ? wide * 3 : 0;
  EXPECT_EQ(packed.value() - packed0, expect_packed);
  EXPECT_EQ(narrow.value() - narrow0, kLanes * 3 - expect_packed);
}

TEST(Registry, ProcessSimdWidthIsTheActiveDispatch) {
  Registry reg;
  register_standard_instruments(reg);
  EXPECT_EQ(reg.gauge(names::kProcessSimdWidth).value(),
            static_cast<double>(simd::level_width(simd::active_level())));
}

}  // namespace
}  // namespace tono::metrics
