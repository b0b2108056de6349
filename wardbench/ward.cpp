// ward.cpp — the ward_steady workload and the hospital helpers it shares
// with gateway_replay.
//
// ward_steady: the session_mix admission mix on a HospitalScheduler of two
// serial shards, streaming a fixed monitoring window. Physiology, ΔΣ and
// decimation do almost all of the work here.
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "examples/session_mix.hpp"
#include "src/core/sweep_runner.hpp"

namespace wardbench {

fleet::SessionConfig ward_config(std::size_t index) { return examples::session_mix(index); }
const char* ward_label(std::size_t index) { return examples::mix_label(index); }

std::unique_ptr<fleet::HospitalScheduler> make_hospital(std::uint64_t seed) {
  fleet::HospitalConfig config;
  config.shards = kShards;
  config.threads_per_shard = 1;
  config.base_seed = seed;
  config.frames_per_step = kFramesPerBatch;
  return std::make_unique<fleet::HospitalScheduler>(config);
}

void admit_sessions(fleet::HospitalScheduler& hospital, std::uint32_t first, std::size_t n,
                    AdmitTimes& times) {
  core::SweepConfig sweep;
  sweep.threads = kWorkers;
  core::SweepRunner runner{sweep};
  struct Outcome {
    double ms{0.0};
    bool ok{false};
  };
  const auto outcomes = runner.run(n, [&hospital, first](std::size_t i) {
    const auto id = first + static_cast<std::uint32_t>(i);
    fleet::PatientSession* session = hospital.shard(hospital.shard_of(id)).session(id);
    Outcome out;
    Scope span{"fleet.admit"};
    const std::int64_t t0 = now_ns();
    try {
      session->admit();
      out.ok = true;
    } catch (const std::exception&) {
      // The hospital's first batch retries it and quarantines on failure.
    }
    out.ms = static_cast<double>(now_ns() - t0) * 1e-6;
    return out;
  });
  for (const Outcome& o : outcomes) {
    times.ms.push_back(o.ms);
    if (o.ok) ++times.first_try;
  }
}

std::uint64_t frames_for(double stream_s, double rate_hz) {
  std::uint64_t frames = 0;
  while (static_cast<double>(frames) / rate_hz < stream_s) frames += kFramesPerBatch;
  return frames;
}

BarrierTap::BarrierTap(fleet::HospitalScheduler& hospital, std::size_t sessions)
    : hospital_(hospital),
      shard_ids_(hospital.shards()),
      last_ns_(hospital.shards(), 0),
      armed_(hospital.shards(), 0),
      batch_ms_(hospital.shards()),
      beats_(sessions),
      scratch_(hospital.shards()) {
  for (std::uint32_t id = 0; id < sessions; ++id) {
    shard_ids_[hospital.shard_of(id)].push_back(id);
  }
}

void BarrierTap::start() {
  for (auto& a : armed_) a = 0;
}

void BarrierTap::on_barrier(std::size_t shard) {
  const std::int64_t t = now_ns();
  if (armed_[shard]) {
    batch_ms_[shard].push_back(static_cast<double>(t - last_ns_[shard]) * 1e-6);
    Tracer::global().add("fleet.batch", last_ns_[shard], t, 1);
  }
  armed_[shard] = 1;
  last_ns_[shard] = t;

  auto& pending = scratch_[shard];
  for (const std::uint32_t id : shard_ids_[shard]) {
    fleet::PatientSession* session = hospital_.shard(shard).session(id);
    if (session == nullptr) continue;
    pending.clear();
    fleet::FleetEvent event;
    while (session->events().try_pop(event)) pending.push_back(event);
    for (const auto& e : pending) {
      if (e.kind == fleet::FleetEventKind::kBeat) {
        beats_[id].push_back(core::EstimatedBeat{e.time_s, e.value_a, e.value_b});
      }
      if (!session->events().try_push(e)) repush_failed_ = true;
    }
  }
}

std::vector<double> BarrierTap::batch_ms() const {
  std::vector<double> all;
  for (const auto& shard : batch_ms_) all.insert(all.end(), shard.begin(), shard.end());
  return all;
}

Result run_ward_steady(const Options& options) {
  const std::size_t cohort = options.mini ? 2 : 20;
  const std::size_t n = kSetupRepeats * cohort;
  // At least 12 s: the monitor emits its first beats once its 8 s window fills.
  const double stream_s = options.mini ? 12.0 : std::max(12.0, 2.0 * options.seconds);
  Result result;
  result.attempted = n;

  // Set-up: the ward is admitted in equal cohorts; each cohort's sessions
  // are built and admitted (an 8 s cuff-anchored calibration acquisition
  // each), and setup_s is the median cohort time.
  std::vector<double> setup_s;
  AdmitTimes admits;
  auto hospital = make_hospital(options.seed);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    const auto first = static_cast<std::uint32_t>(hospital->size());
    for (std::size_t i = first; i < first + cohort; ++i) {
      hospital->admit(ward_config(i), ward_label(i));
    }
    admit_sessions(*hospital, first, cohort, admits);
    setup_s.push_back(seconds_since(t0));
  }

  BarrierTap tap{*hospital, n};
  for (std::size_t s = 0; s < hospital->shards(); ++s) {
    hospital->shard(s).set_batch_hook([&tap, s] { tap.on_barrier(s); });
  }
  tap.start();
  const std::int64_t t0 = now_ns();
  {
    Scope span{"fleet.hospital_run"};
    hospital->run(stream_s);
  }
  const double wall_s = seconds_since(t0);

  // ---- checks on what the ward consumed
  const fleet::WardSnapshot snap = hospital->snapshot();
  fleet::PatientSession* first = hospital->shard(0).session(0);
  const double rate_hz = first->output_rate_hz();
  const std::uint64_t frames = frames_for(stream_s, rate_hz);
  result.check(!tap.repush_failed(), "an event could not be handed back to its ring");
  result.check(snap.codes_consumed == n * frames,
               "ward consumed " + std::to_string(snap.codes_consumed) +
                   " codes, expected " + std::to_string(n * frames));
  result.check(snap.drops == 0 && snap.event_drops == 0,
               "ring drops: " + std::to_string(snap.drops));
  for (const auto& s : snap.sessions) {
    if (s.lifecycle != fleet::SessionState::kRunning) {
      result.session_failed(s.id, "ended " + to_string(s.lifecycle) + " " + s.note);
    } else if (s.codes != frames) {
      result.session_failed(s.id, std::to_string(s.codes) + " codes consumed");
    } else if (s.beats != tap.beats(s.id).size()) {
      result.session_failed(s.id, "ward counted " + std::to_string(s.beats) +
                                      " beats, tap saw " +
                                      std::to_string(tap.beats(s.id).size()));
    }
  }

  // ---- checkpoint at the end, restored into a fresh hospital: one more
  // operation of every run, counted with the sessions.
  result.attempted += 1;
  std::vector<std::uint8_t> blob;
  {
    Scope span{"fleet.checkpoint"};
    blob = hospital->checkpoint();
  }
  {
    auto fresh = make_hospital(options.seed);
    for (std::size_t i = 0; i < n; ++i) fresh->admit(ward_config(i), ward_label(i));
    std::ostringstream before, after;
    hospital->export_jsonl(before);
    try {
      fresh->restore_checkpoint(blob);
      fresh->export_jsonl(after);
      if (before.str() != after.str()) {
        result.operation_failed("restored hospital snapshot differs from the original");
      }
    } catch (const std::exception& e) {
      result.operation_failed(std::string{"checkpoint restore threw: "} + e.what());
    }
  }

  // ---- accuracy against the generator's beat truth
  std::vector<SessionBeats> graded;
  for (std::uint32_t id = 0; id < n; ++id) {
    fleet::PatientSession* session = hospital->shard(hospital->shard_of(id)).session(id);
    SessionBeats b;
    b.id = id;
    b.epoch_s = session->stream_epoch_clock_s();
    b.stream_s = session->stream_time_s();
    b.truth = monitored_truth(session->drain_beat_truth(), b.epoch_s);
    for (auto e : tap.beats(id)) {
      e.time_s += b.epoch_s;
      b.estimates.push_back(e);
    }
    graded.push_back(std::move(b));
  }
  if (options.shift_truth) shift_truth_one_beat(graded);
  const FleetGrade grade = grade_fleet(graded, ward_config(0).streaming, result);

  // ---- metrics
  const auto batches = tap.batch_ms();
  result.put("realtime_patients_per_core",
             static_cast<double>(snap.codes_consumed) / rate_hz /
                 (wall_s * static_cast<double>(kWorkers)),
             "patients/core", batches.size());
  put_percentile(result, "batch_ms_p50", batches, 0.5, "ms", options.mini);
  put_percentile(result, "batch_ms_p90", batches, 0.9, "ms", options.mini);
  put_percentile(result, "admit_ms_p50", admits.ms, 0.5, "ms", options.mini);
  put_percentile(result, "admit_ms_p80", admits.ms, 0.8, "ms", options.mini);
  put_accuracy(grade, result);
  result.put("checkpoint_kb_per_session",
             static_cast<double>(blob.size()) / 1024.0 / static_cast<double>(n), "KB");
  result.put("setup_s", median(setup_s), "s", setup_s.size());
  result.put("fleet.codes_consumed", static_cast<double>(snap.codes_consumed), "count");
  result.put("fleet.events_consumed", static_cast<double>(snap.events_consumed), "count");
  result.put("fleet.code_drops", static_cast<double>(snap.drops - snap.event_drops),
             "count");
  result.put("fleet.checkpoint_bytes", static_cast<double>(blob.size()), "bytes");
  result.put("fleet.admission_first_try_ratio",
             static_cast<double>(admits.first_try) / static_cast<double>(admits.ms.size()),
             "ratio");
  return result;
}

}  // namespace wardbench
