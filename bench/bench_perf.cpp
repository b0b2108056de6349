// Microbenchmarks (google-benchmark): simulation throughput of the hot
// paths. Not a paper experiment — this guards the property that makes the
// repo usable: simulating seconds of 128 kHz operation in real time or
// faster on a laptop.
//
// Beyond the console table, the run appends one entry to a BENCH_perf.json
// trajectory file (path overridable via the TONO_BENCH_JSON environment
// variable) so throughput regressions are visible across commits. The
// `derived` block reports the headline ratios: block-mode vs scalar
// throughput and the parallel-sweep scaling factor.
//
// Items are always *modulator clocks* (or input samples) so scalar and
// block benchmarks of the same stage are directly comparable. Trajectory
// entries are schema_version 2: per-benchmark time is `ns_per_item`
// (per-iteration times were meaningless across scalar/block pairs).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <map>
#include <numbers>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analog/modulator.hpp"
#include "src/analog/modulator_bank.hpp"
#include "src/common/fixed_point.hpp"
#include "src/common/metrics.hpp"
#include "src/common/simd.hpp"
#include "src/core/beat_detection.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/quality.hpp"
#include "src/core/sweep_runner.hpp"
#include "src/dsp/decimation.hpp"
#include "src/dsp/fft.hpp"
#include "src/fleet/fleet_scheduler.hpp"
#include "src/fleet/hospital_scheduler.hpp"
#include "src/fleet/patient_session.hpp"
#include "src/gateway/gateway.hpp"
#include "src/gateway/recorder.hpp"
#include "src/gateway/transport.hpp"
#include "src/mems/transducer.hpp"

namespace {

using namespace tono;

constexpr std::size_t kOsr = 128;  // paper OSR: clocks per output sample

// Items are normals: items_per_second inverts to ns per normal.
void BM_GaussianFill(benchmark::State& state) {
  Rng rng{17};
  std::vector<double> buf(4096);
  for (auto _ : state) {
    rng.fill_gaussian(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_GaussianFill);

// 32 streams of one 128-clock frame each, the ModulatorBank's fill shape.
void BM_GaussianFillMulti(benchmark::State& state) {
  constexpr std::size_t kStreams = 32;
  std::vector<Rng> streams;
  for (std::size_t w = 0; w < kStreams; ++w) streams.emplace_back(100 + w);
  std::vector<double> buf(kStreams * kOsr);
  std::vector<Rng*> rngs;
  std::vector<double*> dests;
  const std::vector<std::size_t> ns(kStreams, kOsr);
  for (std::size_t w = 0; w < kStreams; ++w) {
    rngs.push_back(&streams[w]);
    dests.push_back(buf.data() + w * kOsr);
  }
  for (auto _ : state) {
    Rng::fill_gaussian_multi(rngs.data(), dests.data(), ns.data(), kStreams);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_GaussianFillMulti);

void BM_ModulatorStepVoltage(benchmark::State& state) {
  analog::DeltaSigmaModulator mod{analog::ModulatorConfig{}};
  double v = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod.step_voltage(v));
    v = -v;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ModulatorStepVoltage);

void BM_ModulatorStepCapacitive(benchmark::State& state) {
  analog::DeltaSigmaModulator mod{analog::ModulatorConfig{}};
  double c = 100e-15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod.step_capacitive(c, 100e-15));
    c = c == 100e-15 ? 101e-15 : 100e-15;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ModulatorStepCapacitive);

void BM_ModulatorStepCapacitiveBlock(benchmark::State& state) {
  analog::DeltaSigmaModulator mod{analog::ModulatorConfig{}};
  std::vector<int> bits(kOsr);
  double c = 100e-15;
  for (auto _ : state) {
    mod.step_capacitive_block(c, 100e-15, bits.data(), bits.size());
    benchmark::DoNotOptimize(bits.data());
    c = c == 100e-15 ? 101e-15 : 100e-15;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kOsr));
}
BENCHMARK(BM_ModulatorStepCapacitiveBlock);

void BM_ModulatorBankBlock(benchmark::State& state) {
  // Arg = lanes. The 4-lane point is the paper's 2×2 array; 8 and 64 are
  // the §4 per-element-converter direction where the SIMD kernels earn
  // their keep. Items are *lane-clocks* (lanes × modulator clocks), so
  // items_per_second is the aggregate conversion rate and the derived
  // modulator_bank_vs_scalar ratio reads as "how many scalar-stepped
  // single modulators one bank is worth". Lane seeds come from the sweep
  // engine's per-trial stream so the bench uses the same decorrelation
  // path as a real sweep; homogeneous configs keep every lane inside the
  // vector packets, which is also the production layout (identical chips).
  const auto lanes = static_cast<std::size_t>(state.range(0));
  core::SweepRunner seeder{{.threads = 1, .base_seed = 11, .stream_name = "bank-bench"}};
  std::vector<analog::ModulatorConfig> configs(lanes);
  for (std::size_t k = 0; k < lanes; ++k) configs[k].seed = seeder.trial_seed(k);
  analog::ModulatorBank bank{configs};
  std::vector<double> c_sense(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    c_sense[k] = (95.0 + static_cast<double>((k * 7) % 18)) * 1e-15;
  }
  const std::vector<double> c_ref(lanes, 100e-15);
  std::vector<int> bits(lanes * kOsr);
  for (auto _ : state) {
    bank.step_capacitive_block(c_sense.data(), c_ref.data(), bits.data(), kOsr);
    benchmark::DoNotOptimize(bits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes * kOsr));
  state.counters["simd_width"] = static_cast<double>(bank.simd_width());
}
BENCHMARK(BM_ModulatorBankBlock)->Arg(4)->Arg(8)->Arg(64);

void BM_ArrayAcquisitionFrame(benchmark::State& state) {
  // Full parallel readout: one 2×2 image (4 lanes × kOsr clocks + 4
  // decimation chains) per iteration. Items are lane-clocks, comparable to
  // BM_ModulatorBankBlock; the gap between the two is the per-lane
  // decimation + field-evaluation overhead.
  core::ArrayAcquisition array{core::ChipConfig::paper_chip()};
  std::vector<dsp::DecimatedSample> out(array.size());
  double t = 0.0;
  const core::ContactField field = [&t](double, double, double) {
    return 10000.0 + 2000.0 * std::sin(2.0 * std::numbers::pi * 1.2 * t);
  };
  for (auto _ : state) {
    array.acquire_frame(field, out.data());
    benchmark::DoNotOptimize(out.data());
    t += static_cast<double>(kOsr) / 128000.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(array.size() * kOsr));
}
BENCHMARK(BM_ArrayAcquisitionFrame);

void BM_DecimationPush(benchmark::State& state) {
  dsp::DecimationChain chain{dsp::DecimationConfig{}};
  int bit = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.push(bit));
    bit = -bit;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecimationPush);

void BM_DecimationPushFrame(benchmark::State& state) {
  dsp::DecimationChain chain{dsp::DecimationConfig{}};
  std::vector<int> bits(kOsr);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = i % 3 == 0 ? -1 : 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.push_frame(bits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kOsr));
}
BENCHMARK(BM_DecimationPushFrame);

void BM_CapacitanceExactIntegral(benchmark::State& state) {
  mems::PressureTransducer t{mems::TransducerConfig{}};
  double p = 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.capacitance(p));
    p = p < 20e3 ? p + 13.0 : 1000.0;
  }
  // One evaluation per iteration; without this the trajectory entry records
  // items_per_second: 0 and the regression guard cannot cover the exact path.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CapacitanceExactIntegral);

void BM_CapacitanceLut(benchmark::State& state) {
  core::SensorArray arr{core::ChipConfig::paper_chip()};
  double p = 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr.element(0).capacitance(p));
    p = p < 20e3 ? p + 13.0 : 1000.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CapacitanceLut);

void BM_FullPipelineClock(benchmark::State& state) {
  core::AcquisitionPipeline pipe{core::ChipConfig::paper_chip()};
  double t = 0.0;
  for (auto _ : state) {
    const double p = 10000.0 + 2000.0 * std::sin(2.0 * std::numbers::pi * 1.2 * t);
    benchmark::DoNotOptimize(pipe.clock(p));
    t += 1.0 / 128000.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["realtime_x"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 128000.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullPipelineClock);

void BM_FullPipelineClockBlock(benchmark::State& state) {
  // One iteration = one output frame = kOsr modulator clocks; items are
  // clocks so the rate is directly comparable to BM_FullPipelineClock.
  core::AcquisitionPipeline pipe{core::ChipConfig::paper_chip()};
  double t = 0.0;
  for (auto _ : state) {
    const double p = 10000.0 + 2000.0 * std::sin(2.0 * std::numbers::pi * 1.2 * t);
    benchmark::DoNotOptimize(pipe.clock_block(p));
    t += static_cast<double>(kOsr) / 128000.0;
  }
  const auto clocks =
      static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(kOsr);
  state.SetItemsProcessed(clocks);
  state.counters["realtime_x"] = benchmark::Counter(
      static_cast<double>(clocks) / 128000.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullPipelineClockBlock);

// One sweep trial: a short seeded acquisition, the unit of work the parallel
// scaling benchmarks fan out.
std::int64_t sweep_trial(Rng& rng) {
  core::ChipConfig chip = core::ChipConfig::paper_chip();
  chip.modulator.seed = rng.next_u64();
  core::AcquisitionPipeline pipe{chip};
  const auto samples =
      pipe.acquire_uniform_block([](double) { return 9000.0; }, 10);
  std::int64_t sum = 0;
  for (const auto& s : samples) sum += s.code;
  return sum;
}

void BM_SweepTrials(benchmark::State& state) {
  // Arg = worker threads. Items are trials; compare items_per_second across
  // thread counts for the scaling factor. Results are bit-identical across
  // thread counts (tested in test_sweep_runner.cpp), so this measures pure
  // scheduling overhead/speedup.
  core::SweepRunner runner{{.threads = static_cast<std::size_t>(state.range(0)),
                            .base_seed = 11,
                            .stream_name = "bench"}};
  constexpr std::size_t kTrials = 16;
  for (auto _ : state) {
    auto out = runner.run(kTrials, [](std::size_t, Rng& rng) { return sweep_trial(rng); });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_SweepTrials)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// A pre-admitted ward at steady state, reused across iterations so the
// one-time admission cost (localization-free cuff calibration per session)
// stays out of the timed region. Sessions keep streaming across iterations —
// exactly the serving loop's steady state.
struct FleetFixture {
  fleet::WardAggregator ward;
  std::unique_ptr<fleet::FleetScheduler> scheduler;

  explicit FleetFixture(std::size_t n_sessions) {
    fleet::FleetConfig config;
    config.base_seed = 11;
    scheduler = std::make_unique<fleet::FleetScheduler>(config, ward);
    for (std::size_t i = 0; i < n_sessions; ++i) {
      (void)scheduler->admit(fleet::SessionConfig{});
    }
    (void)scheduler->step_all();  // admission + calibration, untimed
  }
};

FleetFixture& fleet_fixture(std::size_t n_sessions) {
  static std::map<std::size_t, std::unique_ptr<FleetFixture>> cache;
  auto& slot = cache[n_sessions];
  if (!slot) slot = std::make_unique<FleetFixture>(n_sessions);
  return *slot;
}

void BM_FleetSteadyState(benchmark::State& state) {
  // Arg = admitted sessions. One iteration = one scheduler batch on this
  // thread (every session advances frames_per_step output frames as lanes
  // of one bank, ward drained). Items are output codes across the whole
  // ward, so items_per_second at different Args shows what wider bank
  // packets buy on one core, and items_per_second / 1 kHz is how many
  // real-time patients one core serves at that ward size.
  auto& fixture = fleet_fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.scheduler->step_all());
  }
  const auto codes = static_cast<std::int64_t>(state.iterations()) *
                     state.range(0) *
                     static_cast<std::int64_t>(fixture.scheduler->config().frames_per_step);
  state.SetItemsProcessed(codes);
  state.counters["realtime_sessions"] = benchmark::Counter(
      static_cast<double>(codes) / 1000.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetSteadyState)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->UseRealTime();

// A pre-admitted hospital at steady state: sessions split across shards,
// each shard on its own driver thread, so the scaling factor across shard
// counts isolates exactly what sharding buys. Cached like the fleet fixture —
// admission (cuff calibration per session) stays out of the timed region.
struct HospitalFixture {
  std::unique_ptr<fleet::HospitalScheduler> hospital;
  double cursor_s{0.0};

  HospitalFixture(std::size_t n_sessions, std::size_t shards) {
    fleet::HospitalConfig config;
    config.shards = shards;
    config.base_seed = 11;
    hospital = std::make_unique<fleet::HospitalScheduler>(config);
    for (std::size_t i = 0; i < n_sessions; ++i) {
      (void)hospital->admit(fleet::SessionConfig{});
    }
    hospital->run(cursor_s += 0.064);  // admission + calibration, untimed
  }
};

HospitalFixture& hospital_fixture(std::size_t n_sessions, std::size_t shards) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<HospitalFixture>> cache;
  auto& slot = cache[{n_sessions, shards}];
  if (!slot) slot = std::make_unique<HospitalFixture>(n_sessions, shards);
  return *slot;
}

void BM_HospitalSteadyState(benchmark::State& state) {
  // Args = (admitted sessions, shards). One iteration = one batch of stream
  // time hospital-wide (every session advances frames_per_step frames,
  // wards drained, shards epoch-synchronized). Items are output codes, so
  // items_per_second across shard counts is the sharding speedup and
  // items_per_second / 1 kHz is how many real-time patients this host
  // serves at that hospital size.
  auto& fixture = hospital_fixture(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)));
  const double step_s =
      static_cast<double>(fixture.hospital->config().frames_per_step) / 1000.0;
  for (auto _ : state) {
    fixture.cursor_s += step_s;
    fixture.hospital->run(fixture.cursor_s);
  }
  const auto codes = static_cast<std::int64_t>(state.iterations()) *
                     state.range(0) *
                     static_cast<std::int64_t>(
                         fixture.hospital->config().frames_per_step);
  state.SetItemsProcessed(codes);
  state.counters["realtime_sessions"] = benchmark::Counter(
      static_cast<double>(codes) / 1000.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HospitalSteadyState)
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({1024, 4})
    ->UseRealTime();

// The gateway wire at steady state: N channels multiplexed over one
// loopback transport, one batch (frames_per_step codes per channel) muxed,
// shipped and demuxed per iteration. Items are codes through the wire, so
// items_per_second across Args is the gateway scaling factor and
// items_per_second / 1 kHz is how many real-time 1 kS/s session streams
// this host can carry per gateway.
struct GatewayFixture {
  gateway::LoopbackTransport wire{1 << 22};
  std::unique_ptr<gateway::GatewayMux> mux;
  std::unique_ptr<gateway::GatewayDemux> demux;
  std::vector<std::int16_t> batch;
  std::uint64_t delivered{0};

  explicit GatewayFixture(std::size_t channels) {
    mux = std::make_unique<gateway::GatewayMux>(wire);
    demux = std::make_unique<gateway::GatewayDemux>(wire);
    for (std::uint32_t c = 0; c < channels; ++c) {
      mux->open_channel(c);
      demux->open_channel(c);
    }
    demux->on_codes([this](std::uint32_t, std::span<const std::int16_t> codes) {
      delivered += codes.size();
    });
    batch.resize(64);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i] = static_cast<std::int16_t>((i * 37) % 2048);
    }
  }
};

GatewayFixture& gateway_fixture(std::size_t channels) {
  static std::map<std::size_t, std::unique_ptr<GatewayFixture>> cache;
  auto& slot = cache[channels];
  if (!slot) slot = std::make_unique<GatewayFixture>(channels);
  return *slot;
}

void BM_GatewayThroughput(benchmark::State& state) {
  auto& fixture = gateway_fixture(static_cast<std::size_t>(state.range(0)));
  const std::uint32_t channels = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint32_t c = 0; c < channels; ++c) fixture.mux->send(c, fixture.batch);
    benchmark::DoNotOptimize(fixture.demux->pump());
  }
  const auto codes = static_cast<std::int64_t>(state.iterations()) *
                     state.range(0) * static_cast<std::int64_t>(fixture.batch.size());
  state.SetItemsProcessed(codes);
  state.counters["realtime_sessions"] = benchmark::Counter(
      static_cast<double>(codes) / 1000.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GatewayThroughput)->Arg(1)->Arg(16)->Arg(64);

// Time-compressed replay of a recorded session through the gateway: one
// iteration streams the whole record file back (original frame sequence
// numbers preserved) and pumps it through the demux. Items are codes, so
// items_per_second / 1 kS/s is the replay speedup over the paced hardware
// rate — the derived gateway_replay_speedup entry.
void BM_GatewayReplay(benchmark::State& state) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "tono_bench_replay")
                              .string();
  constexpr std::size_t kFrames = 512;
  constexpr std::size_t kBatch = 64;
  {
    std::filesystem::remove_all(dir);
    gateway::SessionRecorder rec{dir};
    rec.open_session(0);
    core::FrameEncoder enc;
    std::vector<std::int16_t> codes(kBatch);
    for (std::size_t i = 0; i < kFrames; ++i) {
      for (std::size_t k = 0; k < codes.size(); ++k) {
        codes[k] = static_cast<std::int16_t>((i * 131 + k * 17) % 2048);
      }
      rec.record(0, enc.encode(codes), static_cast<std::uint16_t>(codes.size()));
    }
  }
  gateway::LoopbackTransport wire{1 << 22};
  gateway::GatewayMux mux{wire};
  gateway::GatewayDemux demux{wire};
  mux.open_channel(0);
  demux.open_channel(0);
  std::uint64_t delivered = 0;
  demux.on_codes([&delivered](std::uint32_t, std::span<const std::int16_t> codes) {
    delivered += codes.size();
  });
  std::vector<std::uint8_t> frame;
  std::uint16_t n_codes = 0;
  for (auto _ : state) {
    gateway::SessionReplayer replay{dir, 0};
    while (replay.next(frame, n_codes)) {
      mux.send_encoded(0, frame, n_codes);
      (void)demux.pump();
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFrames * kBatch));
}
BENCHMARK(BM_GatewayReplay);

// One streaming-monitor hop: the 8 s window a rest session's monitor grades
// every 2 s, in calibrated mmHg. Analysis and grading are timed apart, so
// the trajectory shows which of the two a hop pays for. Items are window
// samples.
const std::vector<double>& hop_window() {
  static const std::vector<double> window = [] {
    std::vector<std::int16_t> codes;
    fleet::SessionConfig config;
    config.seed = 11;
    config.code_sink = [&codes](std::uint32_t, std::span<const std::int16_t> block) {
      codes.insert(codes.end(), block.begin(), block.end());
    };
    fleet::PatientSession session{0, config};
    session.step(8000);
    const int bits = config.chip.decimation.output_bits;
    std::vector<double> mmhg;
    for (const std::int16_t code : codes) {
      mmhg.push_back(session.calibration().to_mmhg(dequantize_from_bits(code, bits)));
    }
    return mmhg;
  }();
  return window;
}

void BM_BeatDetectorAnalyze(benchmark::State& state) {
  const auto& window = hop_window();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BeatDetector{}.analyze(window));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(window.size()));
}
BENCHMARK(BM_BeatDetectorAnalyze);

void BM_QualityAssess(benchmark::State& state) {
  const auto& window = hop_window();
  const auto beats = core::BeatDetector{}.analyze(window);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SignalQualityAssessor{}.assess(window, beats, 1000.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(window.size()));
}
BENCHMARK(BM_QualityAssess);

void BM_Fft8k(benchmark::State& state) {
  std::vector<dsp::Complex> x(8192);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = dsp::Complex{std::sin(0.01 * static_cast<double>(i)), 0.0};
  }
  // Scratch is allocated once; each iteration pays only the copy + the
  // transform, not a fresh 8k-complex allocation.
  std::vector<dsp::Complex> scratch(x.size());
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), scratch.begin());
    dsp::fft_inplace(scratch);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_Fft8k);

// ---------------------------------------------------------------------------
// Trajectory output: capture finished runs, then append one JSON entry.

struct CapturedRun {
  double items_per_second{0.0};
  double ns_per_item{0.0};
};

class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      CapturedRun c;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) c.items_per_second = it->second.value;
      // Schema v2: time is always normalized per *item* (one modulator
      // clock / input sample / trial), never per benchmark iteration —
      // block benchmarks process kOsr (or lanes × kOsr) items per
      // iteration, so per-iteration times were not comparable to their
      // scalar counterparts. Benchmarks that don't set items default to
      // one item per iteration.
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      if (c.items_per_second > 0.0) {
        c.ns_per_item = 1e9 / c.items_per_second;
      } else {
        c.ns_per_item = run.real_accumulated_time * 1e9 / iters;
      }
      results_[run.benchmark_name()] = c;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::map<std::string, CapturedRun>& results() const {
    return results_;
  }

 private:
  std::map<std::string, CapturedRun> results_;
};

double rate_of(const std::map<std::string, CapturedRun>& r, const std::string& name) {
  const auto it = r.find(name);
  return it == r.end() ? 0.0 : it->second.items_per_second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

std::string make_entry_json(const std::map<std::string, CapturedRun>& results) {
  std::ostringstream os;
  os.precision(6);
  os << "  {\n";
  os << "    \"schema_version\": 3,\n";
  os << "    \"timestamp\": \"" << utc_timestamp() << "\",\n";
  os << "    \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  // Schema v3: record what the ModulatorBank actually dispatched to, so a
  // trajectory regression can be told apart from a dispatch change (e.g. a
  // CI runner without AVX2, or TONO_SIMD forced off).
  const char* simd_env = std::getenv("TONO_SIMD");
  os << "    \"simd\": {\"dispatch\": \"" << simd::level_name(simd::active_level())
     << "\", \"width\": " << simd::level_width(simd::active_level())
     << ", \"compiled\": \"" << simd::level_name(simd::compiled_level())
     << "\", \"cpu_features\": \"" << simd::cpu_features()
     << "\", \"env\": \"" << (simd_env != nullptr ? simd_env : "") << "\"},\n";
  os << "    \"benchmarks\": {\n";
  bool first = true;
  for (const auto& [name, run] : results) {
    if (!first) os << ",\n";
    first = false;
    os << "      \"" << name << "\": {\"items_per_second\": " << run.items_per_second
       << ", \"ns_per_item\": " << run.ns_per_item << "}";
  }
  os << "\n    },\n";
  const double scalar_pipe = rate_of(results, "BM_FullPipelineClock");
  const double block_pipe = rate_of(results, "BM_FullPipelineClockBlock");
  const double scalar_mod = rate_of(results, "BM_ModulatorStepCapacitive");
  const double block_mod = rate_of(results, "BM_ModulatorStepCapacitiveBlock");
  const double bank_mod = rate_of(results, "BM_ModulatorBankBlock/8");
  const double bank_wide = rate_of(results, "BM_ModulatorBankBlock/64");
  const double scalar_dec = rate_of(results, "BM_DecimationPush");
  const double frame_dec = rate_of(results, "BM_DecimationPushFrame");
  const double sweep1 = rate_of(results, "BM_SweepTrials/1/real_time");
  const double sweep2 = rate_of(results, "BM_SweepTrials/2/real_time");
  const double sweep4 = rate_of(results, "BM_SweepTrials/4/real_time");
  const double fleet1 = rate_of(results, "BM_FleetSteadyState/1/real_time");
  const double fleet16 = rate_of(results, "BM_FleetSteadyState/16/real_time");
  const double fleet64 = rate_of(results, "BM_FleetSteadyState/64/real_time");
  const double hospital64_1 = rate_of(results, "BM_HospitalSteadyState/64/1/real_time");
  const double hospital64_4 = rate_of(results, "BM_HospitalSteadyState/64/4/real_time");
  const double hospital256 = rate_of(results, "BM_HospitalSteadyState/256/4/real_time");
  const double hospital1024 = rate_of(results, "BM_HospitalSteadyState/1024/4/real_time");
  const double gateway1 = rate_of(results, "BM_GatewayThroughput/1");
  const double gateway64 = rate_of(results, "BM_GatewayThroughput/64");
  const double gateway_replay = rate_of(results, "BM_GatewayReplay");
  os << "    \"derived\": {\n";
  os << "      \"pipeline_block_vs_scalar\": " << ratio(block_pipe, scalar_pipe) << ",\n";
  os << "      \"modulator_block_vs_scalar\": " << ratio(block_mod, scalar_mod) << ",\n";
  os << "      \"modulator_bank_vs_scalar\": " << ratio(bank_mod, scalar_mod) << ",\n";
  os << "      \"modulator_bank_wide_vs_scalar\": " << ratio(bank_wide, scalar_mod)
     << ",\n";
  os << "      \"decimation_frame_vs_push\": " << ratio(frame_dec, scalar_dec) << ",\n";
  os << "      \"pipeline_block_realtime_x\": " << block_pipe / 128000.0 << ",\n";
  os << "      \"sweep_speedup_2t\": " << ratio(sweep2, sweep1) << ",\n";
  os << "      \"sweep_speedup_4t\": " << ratio(sweep4, sweep1) << ",\n";
  os << "      \"fleet_scaling_16_vs_1\": " << ratio(fleet16, fleet1) << ",\n";
  os << "      \"fleet_realtime_sessions_64\": " << fleet64 / 1000.0 << ",\n";
  os << "      \"hospital_scaling_4shards_vs_1\": " << ratio(hospital64_4, hospital64_1)
     << ",\n";
  os << "      \"hospital_scaling_256_vs_64\": " << ratio(hospital256, hospital64_4)
     << ",\n";
  os << "      \"hospital_realtime_sessions_1024\": " << hospital1024 / 1000.0 << ",\n";
  os << "      \"gateway_scaling_64_vs_1\": " << ratio(gateway64, gateway1) << ",\n";
  os << "      \"gateway_realtime_sessions_64\": " << gateway64 / 1000.0 << ",\n";
  os << "      \"gateway_replay_speedup\": " << gateway_replay / 1000.0 << "\n";
  os << "    }\n";
  os << "  }";
  return os.str();
}

/// Appends `entry` to the JSON array in `path` (created if missing), keeping
/// the file a valid JSON document after every run.
void append_trajectory(const std::string& path, const std::string& entry) {
  std::string existing;
  {
    std::ifstream in{path};
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }
  std::ofstream out{path, std::ios::trunc};
  if (!out) return;
  const auto close_bracket = existing.find_last_of(']');
  if (close_bracket == std::string::npos) {
    out << "[\n" << entry << "\n]\n";
    return;
  }
  // Keep everything up to the final ']' and splice the new entry in front.
  std::string head = existing.substr(0, close_bracket);
  while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) head.pop_back();
  const bool empty_array = head.find('{') == std::string::npos;
  out << head << (empty_array ? "\n" : ",\n") << entry << "\n]\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const char* path = std::getenv("TONO_BENCH_JSON");
  append_trajectory(path != nullptr ? path : "BENCH_perf.json",
                    make_entry_json(reporter.results()));
  // Registry snapshot alongside the trajectory: the benchmarks above drove
  // the instrumented hot paths, so this doubles as an end-to-end check that
  // the counters move under load.
  metrics::register_standard_instruments();
  const char* mpath = std::getenv("TONO_BENCH_METRICS");
  metrics::Registry::global().write_jsonl_file(
      mpath != nullptr ? mpath : "BENCH_perf.metrics.jsonl");
  return 0;
}
