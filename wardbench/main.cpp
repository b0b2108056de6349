// main.cpp — command line of the ward benchmark (see README.md).
//
//   wardbench --workload ward_steady|admission_population|gateway_replay
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   wardbench --self-check [--out-dir DIR]
//
// Prints one line per metric (name, value, unit, sample count), then, as
// the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics untraced, the per-layer metrics traced.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace wardbench;

const char* const kEndToEnd[] = {
    "realtime_patients_per_core",
    "batch_ms_p50",
    "batch_ms_p90",
    "admit_ms_p50",
    "admit_ms_p80",
    "sys_mae_mmhg",
    "dia_mae_mmhg",
    "checkpoint_kb_per_session",
    "peak_rss_mb",
    "setup_s",
};

const char* const kPerLayer[] = {
    "bio.field_ns_per_frame",
    "bio.population_member_us",
    "core.clock_block_ns_per_frame",
    "analog.modulator_ns_per_lane_clock",
    "analog.bank_ns_per_lane_clock",
    "dsp.decimation_ns_per_frame",
    "core.monitor_push_ns_per_sample",
    "fleet.session_step_ns_per_frame",
    "fleet.admit_ms",
    "fleet.batch_ms",
    "fleet.ingest_ns_per_code",
    "gateway.replay_next_ns_per_record",
    "gateway.mux_ns_per_code",
    "gateway.demux_self_ns_per_code",
    "gateway.record_ns_per_record",
    "fleet.checkpoint_ms",
    "fleet.checkpoint_bytes",
    "fleet.codes_consumed",
    "fleet.events_consumed",
    "fleet.code_drops",
    "gateway.lost_envelopes",
    "core.beat_pairing_ratio",
    "fleet.admission_first_try_ratio",
    "trace.step_split_ratio",
    "trace.realtime_patients_per_core",
};

std::function<Result(const Options&)> workload_fn(const std::string& name) {
  if (name == "ward_steady") return run_ward_steady;
  if (name == "admission_population") return run_admission_population;
  if (name == "gateway_replay") return run_gateway_replay;
  return {};
}

void merge_checks(Result& into, const Result& from, const std::string& where) {
  into.correct = into.correct && from.correct && from.sessions_failed == 0;
  for (const auto& p : from.problems) into.problems.push_back(where + ": " + p);
}

void print_metrics(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-36s %14.6g %-14s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
  }
  for (const auto& p : r.problems) std::fprintf(stderr, "problem: %s\n", p.c_str());
}

int run(const std::string& workload, const Options& options) {
  const auto fn = workload_fn(workload);
  if (!fn) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  Tracer::global().enable(options.trace);
  Result result = fn(options);
  result.put("peak_rss_mb", peak_rss_mb(), "MB");
  if (options.trace) {
    run_layer_probes(options, result);
    // Spans the workload and probes recorded so far take precedence over the
    // miniature replay's, which only fills in layers the workload never ran.
    const auto own = aggregate(Tracer::global().collect());
    if (workload != "gateway_replay") {
      Options mini = options;
      mini.mini = true;
      const Result gateway = run_gateway_replay(mini);
      merge_checks(result, gateway, "gateway probe");
      if (result.find("gateway.lost_envelopes") == nullptr) {
        result.metrics.push_back(*gateway.find("gateway.lost_envelopes"));
      }
    }
    const auto spans = Tracer::global().collect();
    const std::string path = options.out_dir + "/trace_" + workload + ".jsonl";
    if (!write_spans(spans, path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    auto layers = aggregate(spans);
    for (const auto& [name, totals] : own) layers[name] = totals;
    put_layer_metrics(layers, result);
    result.put("trace.realtime_patients_per_core",
               result.find("realtime_patients_per_core")->value, "patients/core");
  }

  std::printf("wardbench %s seed=%llu seconds=%d trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  print_metrics(result);
  std::printf("  sessions attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.correct ? "yes" : "no");

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name) {
    const Metric* m = result.find(name);
    if (m == nullptr || !std::isfinite(m->value)) {
      throw std::runtime_error{std::string{"metric "} + name + " was not measured"};
    }
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m->value
         << ", \"unit\": \"" << m->unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

/// Runs a seconds-long miniature of every workload through every check,
/// then shows the checks can fail: a recording with one flipped payload
/// byte, and a beat-truth log shifted by one beat, must both be reported.
int self_check(const Options& base) {
  int bad = 0;
  auto expect = [&bad](const char* what, const Result& r, bool want_pass) {
    // An operation the program fails every time (see CHANGES.md) is
    // reported but does not decide the check.
    const bool passed = r.correct && r.sessions_failed == 0;
    const bool ok = passed == want_pass;
    std::printf("self-check %-44s %s (correct=%d, failed=%llu/%llu)\n", what,
                ok ? "ok" : "WRONG", r.correct ? 1 : 0,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    if (!ok || !want_pass || r.failed != r.sessions_failed) {
      for (const auto& p : r.problems) std::printf("    %s\n", p.c_str());
    }
    if (!ok) ++bad;
  };
  Options mini = base;
  mini.mini = true;
  expect("ward_steady passes", run_ward_steady(mini), true);
  expect("admission_population passes", run_admission_population(mini), true);
  expect("gateway_replay passes", run_gateway_replay(mini), true);
  {
    Result probes;
    run_layer_probes(mini, probes);
    expect("twin codes equal PatientSession::step", probes, true);
  }
  Options flipped = mini;
  flipped.flip_record_byte = true;
  expect("gateway_replay with a flipped record byte fails", run_gateway_replay(flipped),
         false);
  Options shifted = mini;
  shifted.shift_truth = true;
  expect("ward_steady with truth shifted one beat fails", run_ward_steady(shifted), false);
  std::printf("self-check %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string workload;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument{arg + " needs a value"};
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stoi(value());
        if (options.seconds < 1) throw std::invalid_argument{"--seconds must be >= 1"};
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument{"--trace must be 0 or 1"};
        options.trace = v == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--self-check") {
        check = true;
      } else {
        throw std::invalid_argument{"unknown argument " + arg};
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wardbench: %s\n", e.what());
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  try {
    if (check) return self_check(options);
    if (workload.empty()) {
      std::fprintf(stderr, "wardbench: --workload is required\n");
      return 2;
    }
    return run(workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wardbench: %s\n", e.what());
    return 1;
  }
}
