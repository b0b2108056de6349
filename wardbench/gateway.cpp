// gateway.cpp — the gateway_replay workload.
//
// Set-up records a live two-shard session_mix run through GatewayMux →
// LoopbackTransport → GatewayDemux with a SessionRecorder. The timed part
// replays that recording at full speed into fresh external_ingest sessions
// (SessionReplayer → mux → demux → PatientSession::ingest_codes →
// StreamingMonitor → ward), again and again until the run has lasted its
// seconds. Its steady work has no physiology and no ΔΣ: it reads back what
// ward_steady produces, so gateway, ingest, monitor and ward gains show here
// and acquisition-side changes must leave it unchanged.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "src/gateway/gateway.hpp"
#include "src/gateway/recorder.hpp"
#include "src/gateway/transport.hpp"

namespace wardbench {
namespace {

/// One wire per shard: mux and demux on an in-process loopback queue.
struct ShardWire {
  gateway::LoopbackTransport loop{1 << 20};
  gateway::GatewayMux mux{loop};
  gateway::GatewayDemux demux{loop};
  std::vector<std::uint32_t> ids;
  std::vector<std::uint8_t> frame;  ///< replay scratch, used by this shard's driver only
};

std::vector<std::unique_ptr<ShardWire>> make_wires(std::size_t shards) {
  std::vector<std::unique_ptr<ShardWire>> wires;
  for (std::size_t s = 0; s < shards; ++s) wires.push_back(std::make_unique<ShardWire>());
  return wires;
}

struct Live {
  std::vector<std::uint64_t> hash;   ///< per session, the delivered code stream
  std::vector<std::uint64_t> codes;  ///< per session, codes delivered
  std::string snapshot;              ///< the live ward's JSONL snapshot
  std::vector<std::vector<bio::BeatTruth>> truth;
};

Live record_live(std::uint64_t seed, std::size_t n, double duration_s,
                 const std::string& dir, Result& result) {
  auto hospital = make_hospital(seed);
  auto wires = make_wires(hospital->shards());
  gateway::SessionRecorder recorder{dir};
  Live live;
  live.hash.assign(n, kFnvBasis);
  live.codes.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ShardWire& w = *wires[i % wires.size()];
    fleet::SessionConfig config = ward_config(i);
    gateway::GatewayMux* mux = &w.mux;
    config.code_sink = [mux](std::uint32_t id, std::span<const std::int16_t> codes) {
      mux->send(id, codes);
    };
    const std::uint32_t id = hospital->admit(std::move(config), ward_label(i));
    w.ids.push_back(id);
    w.mux.open_channel(id);
    w.demux.open_channel(id);
    recorder.open_session(id);
  }
  for (std::size_t s = 0; s < wires.size(); ++s) {
    ShardWire* w = wires[s].get();
    fleet::HospitalScheduler* h = hospital.get();
    w->demux.on_codes([&live, h, s](std::uint32_t id, std::span<const std::int16_t> codes) {
      live.hash[id] = fnv_codes(live.hash[id], codes.data(), codes.size());
      live.codes[id] += codes.size();
      h->shard(s).session(id)->ingest_codes(codes);
    });
    w->demux.on_envelope([&recorder](std::uint32_t id, std::span<const std::uint8_t> frame,
                                     std::uint16_t n_codes) {
      Scope span{"gateway.record"};
      recorder.record(id, frame, n_codes);
    });
    hospital->shard(s).set_batch_hook([w] { (void)w->demux.pump(); });
  }
  hospital->run(duration_s);

  gateway::RecordMeta meta;
  meta.base_seed = seed;
  meta.sessions = n;
  meta.frames_per_step = kFramesPerBatch;
  meta.duration_s = duration_s;
  result.check(recorder.finalize(meta), "cannot finalize the recording in " + dir);
  for (const auto& w : wires) {
    result.check(w->mux.envelopes_dropped() == 0 && w->demux.crc_errors() == 0,
                 "live wire lost envelopes");
  }
  std::ostringstream snap;
  hospital->export_jsonl(snap);
  live.snapshot = snap.str();
  for (std::uint32_t id = 0; id < n; ++id) {
    fleet::PatientSession* session = hospital->shard(hospital->shard_of(id)).session(id);
    live.truth.push_back(
        monitored_truth(session->drain_beat_truth(), session->stream_epoch_clock_s()));
  }
  return live;
}

/// Self-check fault: flips one byte in the middle of session 0's record file.
void flip_one_byte(const std::string& dir) {
  const std::string path = gateway::SessionRecorder::session_file(dir, 0);
  std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
  f.seekg(0, std::ios::end);
  const auto mid = f.tellg() / 2;
  f.seekg(mid);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(mid);
  f.write(&c, 1);
}

struct Replay {
  double admission_s{0.0};
  double steady_s{0.0};
  double rate_hz{0.0};
  std::uint64_t codes_consumed{0};
  std::uint64_t events_consumed{0};
  std::uint64_t drops{0};
  std::vector<double> batch_ms;
  std::vector<SessionBeats> beats;
  std::size_t checkpoint_bytes{0};
  std::uint64_t lost_envelopes{0};
};

Replay replay_once(std::uint64_t seed, const Live& live, std::size_t n,
                   const std::string& dir, bool first, AdmitTimes& admits,
                   Result& result) {
  // Replay exactly the whole batches every session file holds (a torn or
  // corrupt record truncates a file; the shortest one sets the length).
  std::uint64_t min_codes = UINT64_MAX;
  for (std::uint32_t id = 0; id < n; ++id) {
    min_codes = std::min(min_codes, gateway::SessionReplayer::scan(dir, id).codes);
  }
  const std::uint64_t replay_codes = (min_codes / kFramesPerBatch) * kFramesPerBatch;

  auto hospital = make_hospital(seed);
  auto wires = make_wires(hospital->shards());
  std::vector<std::uint64_t> hash(n, kFnvBasis);
  std::vector<std::unique_ptr<gateway::SessionReplayer>> replayers;
  for (std::size_t i = 0; i < n; ++i) {
    ShardWire& w = *wires[i % wires.size()];
    fleet::SessionConfig config = ward_config(i);
    config.external_ingest = true;
    const std::uint32_t id = hospital->admit(std::move(config), ward_label(i));
    w.ids.push_back(id);
    w.mux.open_channel(id);
    w.demux.open_channel(id);
    replayers.push_back(std::make_unique<gateway::SessionReplayer>(dir, id));
  }
  BarrierTap tap{*hospital, n};
  for (std::size_t s = 0; s < wires.size(); ++s) {
    ShardWire* w = wires[s].get();
    fleet::HospitalScheduler* h = hospital.get();
    w->demux.on_codes([&hash, h, s](std::uint32_t id, std::span<const std::int16_t> codes) {
      Scope span{"fleet.ingest", codes.size()};
      hash[id] = fnv_codes(hash[id], codes.data(), codes.size());
      h->shard(s).session(id)->ingest_codes(codes);
    });
    h->shard(s).set_batch_hook([w, &replayers, &tap, s] {
      std::uint16_t n_codes = 0;
      for (const std::uint32_t id : w->ids) {
        std::uint64_t quota = kFramesPerBatch;
        while (quota > 0) {
          bool got = false;
          {
            Scope span{"gateway.replay_next"};
            got = replayers[id]->next(w->frame, n_codes);
          }
          if (!got) break;
          {
            Scope span{"gateway.mux", n_codes};
            w->mux.send_encoded(id, w->frame, n_codes);
          }
          {
            Scope span{"gateway.demux"};
            span.set_items(w->demux.pump());
          }
          quota -= std::min<std::uint64_t>(quota, n_codes);
        }
      }
      tap.on_barrier(s);
    });
  }

  Replay out;
  const std::int64_t t_admit = now_ns();
  admit_sessions(*hospital, 0, n, admits);
  out.admission_s = seconds_since(t_admit);
  const double rate_hz = hospital->shard(0).session(0)->output_rate_hz();
  tap.start();
  const std::int64_t t0 = now_ns();
  {
    Scope span{"fleet.hospital_run"};
    hospital->run(static_cast<double>(replay_codes) / rate_hz);
  }
  out.steady_s = seconds_since(t0);
  out.batch_ms = tap.batch_ms();

  // ---- checks: the replay must deliver and score exactly what the live run did
  std::ostringstream snap;
  hospital->export_jsonl(snap);
  const fleet::WardSnapshot ward = hospital->snapshot();
  out.rate_hz = rate_hz;
  out.codes_consumed = ward.codes_consumed;
  out.events_consumed = ward.events_consumed;
  out.drops = ward.drops;
  for (const auto& w : wires) {
    result.check(w->demux.crc_errors() == 0 && w->demux.resync_bytes() == 0,
                 "replay demux saw CRC errors or resync bytes");
    for (const std::uint32_t id : w->ids) {
      out.lost_envelopes += w->demux.channel_stats(id).lost_envelopes;
    }
  }
  result.check(out.lost_envelopes == 0, "replay lost envelopes");
  result.check(!tap.repush_failed(), "an event could not be handed back to its ring");
  for (std::uint32_t id = 0; id < n; ++id) {
    const auto state = hospital->state(id);
    if (state != fleet::SessionState::kRunning) {
      result.session_failed(id, "replay session ended " + to_string(state));
    } else if (hash[id] != live.hash[id] || replay_codes != live.codes[id]) {
      result.session_failed(id, "replayed code stream differs from the live one (" +
                                    std::to_string(replay_codes) + " of " +
                                    std::to_string(live.codes[id]) + " codes)");
    }
  }
  result.check(snap.str() == live.snapshot,
               "replayed ward snapshot differs from the live one");

  if (first) {
    {
      Scope span{"fleet.checkpoint"};
      out.checkpoint_bytes = hospital->checkpoint().size();
    }
    for (std::uint32_t id = 0; id < n; ++id) {
      fleet::PatientSession* session = hospital->shard(hospital->shard_of(id)).session(id);
      SessionBeats b;
      b.id = id;
      b.epoch_s = session->stream_epoch_clock_s();
      b.stream_s = session->stream_time_s();
      b.truth = live.truth[id];
      for (auto e : tap.beats(id)) {
        e.time_s += b.epoch_s;
        b.estimates.push_back(e);
      }
      out.beats.push_back(std::move(b));
    }
  }
  return out;
}

}  // namespace

Result run_gateway_replay(const Options& options) {
  const std::size_t n = options.mini ? 3 : 12;
  const double duration_s = options.mini ? 12.0 : 16.0;
  const int min_repeats = options.mini ? kSetupRepeats : 2 * kSetupRepeats;
  Result result;

  // Set-up: live recordings, each of its own sessions (its own hospital
  // seed). The replays cycle through them, and the first replay of each is
  // graded, so accuracy covers every recorded session.
  struct Recording {
    std::uint64_t seed{0};
    std::string dir;
    Live live;
  };
  std::vector<Recording> recordings(kSetupRepeats);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Recording& rec = recordings[static_cast<std::size_t>(rep)];
    rec.seed = options.seed * kSetupRepeats + static_cast<std::uint64_t>(rep);
    rec.dir = options.out_dir + "/recording-" + std::to_string(rec.seed);
    std::filesystem::remove_all(rec.dir);
    const std::int64_t t0 = now_ns();
    rec.live = record_live(rec.seed, n, duration_s, rec.dir, result);
    setup_s.push_back(seconds_since(t0));
  }
  if (options.flip_record_byte) flip_one_byte(recordings.front().dir);

  AdmitTimes admits;
  std::vector<double> batch_ms;
  std::vector<SessionBeats> graded;
  double steady_s = 0.0, timed_s = 0.0, rate_hz = 0.0;
  std::uint64_t codes = 0, events = 0, drops = 0, lost = 0;
  std::size_t checkpoint_bytes = 0;
  int repeats = 0;
  while (repeats < min_repeats || timed_s < options.seconds) {
    const auto which = static_cast<std::size_t>(repeats) % recordings.size();
    const Recording& rec = recordings[which];
    const bool first = repeats < static_cast<int>(recordings.size());
    Replay r = replay_once(rec.seed, rec.live, n, rec.dir, first, admits, result);
    if (first) {
      for (auto& b : r.beats) graded.push_back(std::move(b));
    }
    if (repeats == 0) checkpoint_bytes = r.checkpoint_bytes;
    ++repeats;
    steady_s += r.steady_s;
    timed_s += r.admission_s + r.steady_s;
    rate_hz = r.rate_hz;
    codes += r.codes_consumed;
    events += r.events_consumed;
    drops += r.drops;
    lost += r.lost_envelopes;
    batch_ms.insert(batch_ms.end(), r.batch_ms.begin(), r.batch_ms.end());
    if (options.mini && repeats == min_repeats) break;
  }
  for (const Recording& rec : recordings) std::filesystem::remove_all(rec.dir);
  result.attempted = n * static_cast<std::uint64_t>(repeats);

  if (options.shift_truth) shift_truth_one_beat(graded);
  const FleetGrade grade = grade_fleet(graded, ward_config(0).streaming, result);
  result.check(drops == 0, "replay ward rings dropped " + std::to_string(drops) + " items");
  const double patient_s = static_cast<double>(codes) / rate_hz;
  result.put("realtime_patients_per_core",
             patient_s / (steady_s * static_cast<double>(kWorkers)), "patients/core",
             batch_ms.size());
  put_percentile(result, "batch_ms_p50", batch_ms, 0.5, "ms", options.mini);
  put_percentile(result, "batch_ms_p90", batch_ms, 0.9, "ms", options.mini);
  put_percentile(result, "admit_ms_p50", admits.ms, 0.5, "ms", options.mini);
  put_percentile(result, "admit_ms_p80", admits.ms, 0.8, "ms", options.mini);
  put_accuracy(grade, result);
  result.put("checkpoint_kb_per_session",
             static_cast<double>(checkpoint_bytes) / 1024.0 / static_cast<double>(n), "KB");
  result.put("setup_s", median(setup_s), "s", setup_s.size());
  result.put("fleet.codes_consumed", static_cast<double>(codes), "count");
  result.put("fleet.events_consumed", static_cast<double>(events), "count");
  result.put("fleet.code_drops", static_cast<double>(drops), "count");
  result.put("fleet.checkpoint_bytes", static_cast<double>(checkpoint_bytes), "bytes");
  result.put("gateway.lost_envelopes", static_cast<double>(lost), "count");
  result.put("fleet.admission_first_try_ratio",
             static_cast<double>(admits.first_try) / static_cast<double>(admits.ms.size()),
             "ratio");
  return result;
}

}  // namespace wardbench
