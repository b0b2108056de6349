// probes.cpp — layer probes of the traced run and the per-layer table.
//
// The twin: for a few ward_steady sessions, session A runs
// PatientSession::step while its twin B, built from the same config and
// seed, is driven frame by frame through the contact field, clock_block and
// calibration + StreamingMonitor::push. Both must emit the same codes, so
// the field / clock_block / monitor split measures the work step() does.
// The modulator, bank and decimation kernels then run on the twin's own
// capacitances.
#include <algorithm>

#include "bench.hpp"
#include "src/analog/modulator.hpp"
#include "src/analog/modulator_bank.hpp"
#include "src/bio/population.hpp"
#include "src/dsp/decimation.hpp"

namespace wardbench {
namespace {

constexpr std::size_t kTwins = 2;
/// Twelve seconds: the streaming monitor analyses its first window at 8 s.
constexpr std::size_t kTwinFrames = 188 * kFramesPerBatch;
/// Bank lanes: one per session of a ward_steady shard.
constexpr std::size_t kBankLanes = 30;
/// Frames of the twin's capacitance trace the kernel probes replay.
constexpr std::size_t kKernelFrames = 4096;
constexpr std::size_t kPopulationProbeMembers = 64;

struct TwinInputs {
  std::vector<double> c_sense;  ///< per frame, the selected element's capacitance
  double c_ref{0.0};
  analog::ModulatorConfig modulator;
  dsp::DecimationConfig decimation;
};

TwinInputs run_twin(std::uint64_t seed, std::uint32_t id, Result& result) {
  fleet::SessionConfig config = ward_config(id);
  config.seed = make_hospital(seed)->session_seed(id);
  fleet::PatientSession a{id, config};
  fleet::PatientSession b{id, config};
  {
    Scope span{"fleet.admit"};
    a.admit();
  }
  b.admit();

  core::AcquisitionPipeline& pipeline = b.monitor().pipeline();
  const core::ContactField field = b.monitor().contact_field();
  const core::TwoPointCalibration& calibration = b.calibration();
  core::StreamingConfig streaming = config.streaming;
  streaming.sample_rate_hz = pipeline.output_rate_hz();
  core::StreamingMonitor monitor{streaming};
  const auto& element =
      pipeline.array().element(pipeline.selected_row(), pipeline.selected_col());
  const auto pos = element.position();
  TwinInputs inputs;
  inputs.c_ref = pipeline.array().reference_capacitance();
  inputs.modulator = pipeline.config().modulator;
  inputs.decimation = pipeline.config().decimation;
  inputs.c_sense.reserve(kTwinFrames);

  // A and its twin alternate batch by batch, so both see the same machine.
  std::vector<std::int16_t> codes_a, codes_b;
  codes_a.reserve(kTwinFrames);
  codes_b.reserve(kTwinFrames);
  fleet::FleetEvent event;
  std::int16_t code = 0;
  for (std::size_t done = 0; done < kTwinFrames; done += kFramesPerBatch) {
    {
      Scope outer{"twin.step", kFramesPerBatch};
      Scope span{"fleet.session_step", kFramesPerBatch};
      a.step(kFramesPerBatch);
    }
    while (a.codes().try_pop(code)) codes_a.push_back(code);
    while (a.events().try_pop(event)) {
    }
    for (std::size_t f = 0; f < kFramesPerBatch; ++f) {
      Scope frame{"twin.frame"};
      double p = 0.0;
      {
        Scope span{"bio.field"};
        p = field(pos.x_m, pos.y_m, pipeline.time_s());
      }
      inputs.c_sense.push_back(element.capacitance(p, pipeline.temperature_k()));
      dsp::DecimatedSample sample;
      {
        Scope span{"core.clock_block"};
        sample = pipeline.clock_block(p);
      }
      codes_b.push_back(static_cast<std::int16_t>(sample.code));
      {
        Scope span{"core.monitor_push"};
        monitor.push(calibration.to_mmhg(sample.value));
      }
    }
  }
  result.check(codes_a == codes_b,
               "twin of session " + std::to_string(id) +
                   ": frame-by-frame codes differ from PatientSession::step");
  return inputs;
}

void run_kernels(const std::vector<TwinInputs>& twins) {
  const TwinInputs& base = twins.front();
  const std::size_t n = base.decimation.total_decimation;
  const std::size_t frames = std::min(kKernelFrames, base.c_sense.size());
  std::vector<int> bits(n);
  analog::DeltaSigmaModulator modulator{base.modulator};
  dsp::DecimationChain chain{base.decimation};
  for (std::size_t f = 0; f < frames; ++f) {
    const double c = base.c_sense[f];
    {
      Scope span{"analog.modulator", n};
      modulator.step_capacitive_block(c, base.c_ref, bits.data(), n);
    }
    Scope span{"dsp.decimation"};
    (void)chain.push_frame(bits);
  }

  analog::ModulatorBank bank{base.modulator, kBankLanes};
  std::vector<double> c_sense(kBankLanes), c_ref(kBankLanes, base.c_ref);
  std::vector<int> lane_bits(kBankLanes * n);
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t l = 0; l < kBankLanes; ++l) {
      c_sense[l] = twins[l % twins.size()].c_sense[f];
    }
    Scope span{"analog.bank", kBankLanes * n};
    bank.step_capacitive_block(c_sense.data(), c_ref.data(), lane_bits.data(), n);
  }
}

}  // namespace

void run_layer_probes(const Options& options, Result& result) {
  std::vector<TwinInputs> twins;
  for (std::uint32_t id = 0; id < kTwins; ++id) {
    twins.push_back(run_twin(options.seed, id, result));
  }
  run_kernels(twins);

  bio::PopulationConfig config;
  config.seed = options.seed;
  const bio::PopulationGenerator generator{config};
  for (std::size_t i = 0; i < kPopulationProbeMembers; ++i) {
    Scope span{"bio.population_member"};
    const auto member = generator.member(i);
    (void)member.make_profile();
  }
}

void put_layer_metrics(const std::map<std::string, LayerTotals>& layers, Result& result) {
  auto get = [&layers](const char* span) {
    const auto it = layers.find(span);
    return it == layers.end() ? LayerTotals{} : it->second;
  };
  auto per_item = [](double ns, std::uint64_t items) {
    return items == 0 ? 0.0 : ns / static_cast<double>(items);
  };
  struct Row {
    const char* metric;
    const char* span;
    const char* unit;
    bool self;          ///< self time (else total)
    bool per_span;      ///< divide by spans (else by items)
    double scale;       ///< ns → unit
  };
  static constexpr Row kRows[] = {
      {"bio.field_ns_per_frame", "bio.field", "ns", true, false, 1.0},
      {"bio.population_member_us", "bio.population_member", "us", false, true, 1e-3},
      {"core.clock_block_ns_per_frame", "core.clock_block", "ns", true, false, 1.0},
      {"analog.modulator_ns_per_lane_clock", "analog.modulator", "ns", true, false, 1.0},
      {"analog.bank_ns_per_lane_clock", "analog.bank", "ns", true, false, 1.0},
      {"dsp.decimation_ns_per_frame", "dsp.decimation", "ns", true, false, 1.0},
      {"core.monitor_push_ns_per_sample", "core.monitor_push", "ns", true, false, 1.0},
      {"fleet.session_step_ns_per_frame", "fleet.session_step", "ns", false, false, 1.0},
      {"fleet.admit_ms", "fleet.admit", "ms", false, true, 1e-6},
      {"fleet.batch_ms", "fleet.batch", "ms", false, true, 1e-6},
      {"fleet.ingest_ns_per_code", "fleet.ingest", "ns", true, false, 1.0},
      {"gateway.replay_next_ns_per_record", "gateway.replay_next", "ns", true, false, 1.0},
      {"gateway.mux_ns_per_code", "gateway.mux", "ns", true, false, 1.0},
      {"gateway.demux_self_ns_per_code", "gateway.demux", "ns", true, false, 1.0},
      {"gateway.record_ns_per_record", "gateway.record", "ns", false, false, 1.0},
      {"fleet.checkpoint_ms", "fleet.checkpoint", "ms", false, true, 1e-6},
  };
  for (const Row& row : kRows) {
    const LayerTotals l = get(row.span);
    const double ns = row.self ? l.self_ns : l.total_ns;
    const double v = per_item(ns, row.per_span ? l.spans : l.items) * row.scale;
    result.put(row.metric, v, row.unit, row.per_span ? l.spans : l.items);
  }
  // How much of PatientSession::step the twin's three layers account for.
  const LayerTotals step = get("twin.step");
  const double split = get("bio.field").self_ns + get("core.clock_block").self_ns +
                       get("core.monitor_push").self_ns;
  const LayerTotals frames = get("twin.frame");
  result.put("trace.step_split_ratio",
             step.total_ns == 0.0 || frames.spans == 0
                 ? 0.0
                 : per_item(split, frames.spans) / per_item(step.total_ns, step.items),
             "ratio");
}

}  // namespace wardbench
