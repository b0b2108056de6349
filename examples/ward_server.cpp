// ward_server — the hospital serving loop: N concurrent patient sessions
// across independent ward shards, bounded telemetry rings, hospital-level
// alarm aggregation, crash-safe JSONL snapshots.
//
//   ward_server --sessions 256 --shards 4 --duration 10 --seed 11
//               [--frames-per-step 64] [--epoch-batches 16]
//               [--code-policy drop|block] [--fault-plan contact=1,link=1,element=1]
//               [--max-readmits 3] [--snapshot ward.jsonl] [--snapshot-every 0]
//               [--checkpoint ward.ckpt] [--checkpoint-every 0] [--resume]
//               [--metrics metrics.jsonl] [--verbose]
//               [--transport none|loopback|tcp] [--listen 127.0.0.1:0]
//               [--record DIR | --replay DIR [--replay-speed 0]] [--dump-codes DIR]
//
// Each session is a full vertical slice (scenario → transducer → ΔΣ →
// decimation → streaming monitor). Sessions are assigned to shards purely by
// id (id % shards); each shard steps its sessions in deterministic lockstep
// batches on its own scheduler and thread (--shards defaults to the core
// count), so results — including the snapshot bytes — are bit-identical
// across shard counts (see docs/FLEET.md). The session mix cycles through
// the patient presets and scenarios so a default run exercises alarms,
// quality gating and escalation.
//
// Checkpoint & resume: --checkpoint writes a crash-safe checkpoint (atomic
// tmp+fsync+rename) every --checkpoint-every epochs and at the end of the
// run. A killed server restarted with the same flags plus --resume finishes
// with byte-identical snapshot output — resume, not replay.
//
// Transport (docs/GATEWAY.md): `none` publishes codes in-process; `loopback`
// and `tcp` carry them over the Fig. 3 USB link made a real wire, through
// src/gateway/hospital_wire.hpp, to a byte-identical snapshot. --record DIR
// captures the frames the ward consumed; --replay DIR feeds them back, with
// run parameters from the recording's index (contradicting flags exit 2) or,
// for a killed recording, from the flags. --replay-speed N paces replay at
// N× the 1 kS/s hardware rate (0 = as fast as possible). --dump-codes DIR
// writes each session's delivered codes as LE int16. These taps need a wire,
// so under `none` they use `loopback`; wire state is not checkpointed, so a
// wire with --checkpoint exits 2.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "examples/session_mix.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/cli.hpp"
#include "src/common/metrics.hpp"
#include "src/fleet/hospital_scheduler.hpp"
#include "src/gateway/hospital_wire.hpp"

using namespace tono;
using tono::examples::mix_label;
using tono::examples::parse_fault_plan;
using tono::examples::session_mix;

namespace {

/// Replay takes the seed, batch size and session count from the recording.
/// Returns 0, or the exit code: 2 for flags that contradict the recording's
/// index (a replay against the wrong seed would calibrate a different
/// hospital), 1 for a recording that cannot be replayed.
int resolve_replay(const ArgParser& args, const std::string& dir,
                   fleet::HospitalConfig* config, std::size_t* sessions,
                   gateway::ReplayHorizon* horizon) {
  try {
    *horizon = gateway::replay_horizon(dir, config->frames_per_step);
  } catch (const std::runtime_error& e) {  // CheckpointError, RecorderError
    std::cerr << "corrupt recording in " << dir << ": " << e.what() << "\n";
    return 1;
  }
  const auto& index = horizon->index;
  if (index.has_value()) {
    const auto& meta = index->meta;
    const std::pair<const char*, std::uint64_t> recorded[] = {
        {"seed", meta.base_seed},
        {"frames-per-step", meta.frames_per_step},
        {"sessions", meta.sessions}};
    for (const auto& [flag, value] : recorded) {
      if (args.has(flag) && static_cast<std::uint64_t>(args.int_value(flag)) != value) {
        std::cerr << "--" << flag << " " << args.int_value(flag)
                  << " mismatches the recording (" << value << ")\n";
        return 2;
      }
    }
    config->base_seed = meta.base_seed;
    config->frames_per_step = static_cast<std::size_t>(meta.frames_per_step);
  }
  if (horizon->sessions.empty()) {
    std::cerr << "no session records found in " << dir << "\n";
    return 1;
  }
  *sessions = index ? static_cast<std::size_t>(index->meta.sessions)
                    : horizon->sessions.size();
  if (horizon->sessions.size() != *sessions) {
    std::cerr << "recording has " << horizon->sessions.size()
              << " session file(s), expected " << *sessions << "\n";
    return 1;
  }
  if (horizon->codes_per_session == 0) {
    std::cerr << "recording in " << dir << " has no complete batch to replay\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args{"ward_server", "serve N concurrent patient monitoring sessions"};
  args.add_int("sessions", "number of patient sessions to admit", 16, {.min = 0});
  args.add_double("duration", "monitoring stream per session [s]", 10.0, {.above = 0.0});
  args.add_int("seed", "fleet base seed (per-session seeds derive from it)", 11,
               {.min = 0});
  args.add_int("shards", "independent ward shards, one thread each (default: cores)",
               std::max(1u, std::thread::hardware_concurrency()), {.min = 1});
  // A session's code ring must hold one whole batch (FleetScheduler::admit);
  // every session_mix config keeps the default ring.
  args.add_int("frames-per-step", "output frames per session per batch", 64,
               {.min = 1,
                .max = static_cast<double>(session_mix(0).code_ring_capacity)});
  args.add_int("epoch-batches", "batches per shard between hospital epochs", 16,
               {.min = 1});
  args.add_string("code-policy", "codes-ring backpressure", "drop", {"drop", "block"});
  args.add_string("fault-plan",
                  "per-session fault schedule, e.g. contact=1,link=1,element=1", "");
  args.add_int("max-readmits", "readmissions before a quarantined session retires", 3,
               {.min = 0});
  args.add_string("snapshot", "write the ward JSONL snapshot to this file", "");
  args.add_int("snapshot-every",
               "snapshot period in epochs (0 = final snapshot only)", 0, {.min = 0});
  args.add_string("checkpoint",
                  "write a resumable crash-safe checkpoint to this file", "");
  args.add_int("checkpoint-every",
               "checkpoint period in epochs (0 = end-of-run checkpoint only)", 0,
               {.min = 0});
  args.add_flag("resume",
                "restore from --checkpoint before running (fresh start if absent)");
  args.add_string("metrics", "write a JSONL runtime-metrics snapshot to this file", "");
  args.add_flag("verbose", "print per-session rows (always printed for quarantines)");
  args.add_string("transport", "how codes reach the ward (none = in-process)", "none",
                  {"none", "loopback", "tcp"});
  args.add_string("listen", "TCP bind address (tcp transport; port 0 = ephemeral)",
                  "127.0.0.1:0");
  args.add_string("record", "record every consumed session stream into this directory",
                  "");
  args.add_string("replay", "replay a recorded directory instead of producing live",
                  "");
  args.add_double("replay-speed",
                  "replay pacing multiple of the 1 kS/s hardware rate (0 = max speed)",
                  0.0, {.min = 0.0});
  args.add_string("dump-codes",
                  "write per-session delivered-code dumps (LE int16) into this dir", "");
  if (!args.parse(argc, argv)) {
    std::cerr << (args.help_requested() ? args.help_text() : args.error() + "\n");
    return args.help_requested() ? 0 : 2;
  }
  // The parser enforced every single-flag bound; what is left are the rules
  // that tie flags together.
  const std::string checkpoint_path = args.string_value("checkpoint");
  const std::string dump_dir = args.string_value("dump-codes");
  gateway::HospitalWireConfig wire_config{
      .record_dir = args.string_value("record"),
      .replay_dir = args.string_value("replay"),
      .replay_speed = args.double_value("replay-speed")};
  const bool replay_mode = !wire_config.replay_dir.empty();
  std::string transport = args.string_value("transport");
  if (transport == "none" &&
      !(wire_config.record_dir.empty() && !replay_mode && dump_dir.empty())) {
    transport = "loopback";  // a wire tap needs a wire
  }
  const bool wired = transport != "none";
  if (checkpoint_path.empty() &&
      (args.int_value("checkpoint-every") > 0 || args.flag("resume"))) {
    std::cerr << "--checkpoint-every and --resume require --checkpoint\n";
    return 2;
  }
  if (!wire_config.record_dir.empty() && replay_mode) {
    std::cerr << "--record and --replay are mutually exclusive\n";
    return 2;
  }
  if (wired && !checkpoint_path.empty()) {
    std::cerr << "--checkpoint/--resume cannot run over a wire (--transport "
                 "loopback|tcp, --record, --replay, --dump-codes): wire state is not "
                 "in the hospital checkpoint\n";
    return 2;
  }
  std::string error;
  if (!gateway::parse_endpoint(args.string_value("listen"), &wire_config.listen_host,
                               &wire_config.listen_port, &error)) {
    std::cerr << "--listen: " << error << "\n";
    return 2;
  }
  fleet::FaultPlanConfig fault_plan;
  if (!parse_fault_plan(args.string_value("fault-plan"), &fault_plan, &error)) {
    std::cerr << error << "\n";
    return 2;
  }

  // Every integer flag is bounded >= 0 by the parser, so the casts are exact.
  const auto unsigned_flag = [&args](const char* flag) {
    return static_cast<std::size_t>(args.int_value(flag));
  };
  fleet::HospitalConfig hospital_config;
  hospital_config.shards = unsigned_flag("shards");
  hospital_config.base_seed = unsigned_flag("seed");
  hospital_config.frames_per_step = unsigned_flag("frames-per-step");
  hospital_config.epoch_batches = unsigned_flag("epoch-batches");
  hospital_config.max_readmits = unsigned_flag("max-readmits");
  hospital_config.snapshot_path = args.string_value("snapshot");
  hospital_config.snapshot_every_epochs = unsigned_flag("snapshot-every");
  hospital_config.checkpoint_path = checkpoint_path;
  hospital_config.checkpoint_every_epochs = unsigned_flag("checkpoint-every");
  std::size_t n_sessions = unsigned_flag("sessions");
  double duration_s = args.double_value("duration");
  gateway::ReplayHorizon horizon;
  if (replay_mode) {
    if (const int code = resolve_replay(args, wire_config.replay_dir, &hospital_config,
                                        &n_sessions, &horizon);
        code != 0) {
      return code;
    }
    duration_s = horizon.duration_s();
  }
  // Fault onsets land inside the run (the config default horizon assumes a
  // longer session than a smoke run's --duration 2).
  fault_plan.horizon_s = std::max(fault_plan.min_onset_s + 0.1, 0.75 * duration_s);
  fleet::HospitalScheduler hospital{hospital_config};

  std::unique_ptr<gateway::HospitalWire> wire;
  std::map<std::uint32_t, std::ofstream> dumps;
  try {
    if (wired) {
      wire_config.kind =
          transport == "tcp" ? gateway::WireKind::kTcp : gateway::WireKind::kLoopback;
      wire_config.replay_codes_per_session = horizon.codes_per_session;
      wire = std::make_unique<gateway::HospitalWire>(hospital, n_sessions, wire_config);
    }
    if (!dump_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(dump_dir, ec);
      wire->on_delivery([&dumps](std::uint32_t id, std::span<const std::int16_t> codes) {
        std::ofstream& out = dumps.at(id);
        for (const std::int16_t code : codes) {
          const auto u = static_cast<std::uint16_t>(code);
          out.put(static_cast<char>(u & 0xFF)).put(static_cast<char>(u >> 8));
        }
      });
    }
    const BackpressurePolicy code_policy = args.string_value("code-policy") == "block"
                                               ? BackpressurePolicy::kBlock
                                               : BackpressurePolicy::kDropOldest;
    for (std::size_t i = 0; i < n_sessions; ++i) {
      fleet::SessionConfig config = session_mix(i);
      config.code_policy = code_policy;
      config.fault_plan = fault_plan;
      const std::uint32_t id = wire ? wire->admit(std::move(config), mix_label(i))
                                    : hospital.admit(std::move(config), mix_label(i));
      if (!dump_dir.empty()) {
        const std::string path = dump_dir + "/session_" + std::to_string(id) + ".i16";
        std::ofstream& out = dumps[id];
        out.open(path, std::ios::binary | std::ios::trunc);
        if (!out.is_open()) {
          std::cerr << "cannot open code dump " << path << "\n";
          return 1;
        }
      }
    }
  } catch (const gateway::TransportError& e) {
    std::cerr << "cannot set up " << transport << " transport: " << e.what() << "\n";
    return 1;
  } catch (const gateway::RecorderError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  std::cout << "ward_server: " << n_sessions << " sessions "
            << (replay_mode ? "replayed" : "admitted") << ", " << hospital.shards()
            << " shard(s), one thread each, "
            << (wired ? transport + " wire, " : "") << duration_s
            << " s per session\n";
  if (transport == "tcp") {
    std::cout << "tcp: listening on " << wire_config.listen_host << ":"
              << wire->tcp_port() << ", " << hospital.shards() << " connection(s)\n";
  }
  if (horizon.torn) {
    std::cout << "replay: torn record tail detected, truncated to "
              << horizon.codes_per_session << " codes per session\n";
  }

  if (args.flag("resume")) {
    // Resume means resume: a checkpoint that exists but fails validation is
    // a hard error (exit 1), never a silent restart from zero.
    try {
      if (hospital.try_restore_checkpoint()) {
        std::cout << "resumed from checkpoint " << checkpoint_path << " ("
                  << hospital.epochs() << " epoch(s) already run)\n";
      } else {
        std::cout << "no checkpoint at " << checkpoint_path
                  << ", starting fresh\n";
      }
    } catch (const CheckpointError& e) {
      std::cerr << "cannot resume from " << checkpoint_path << ": " << e.what()
                << "\n";
      return 1;
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  hospital.run(duration_s);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  // The merged snapshot is exact after run() and shard-count-invariant:
  // sessions in global-id order, totals summed across shards.
  const fleet::WardSnapshot ward = hospital.snapshot();
  std::size_t quarantined = 0;
  for (const auto& s : ward.sessions) {
    const bool parked = s.lifecycle == fleet::SessionState::kQuarantined ||
                        s.lifecycle == fleet::SessionState::kRetired;
    if (parked) ++quarantined;
    if (args.flag("verbose") || parked) {
      std::cout << "  [" << s.id << "] " << s.label << " (" << to_string(s.lifecycle)
                << "): " << s.codes << " codes, " << s.beats << " beats, BP "
                << s.last_systolic_mmhg << "/" << s.last_diastolic_mmhg << " mmHg, SQI "
                << s.last_sqi << ", alarms " << s.alarms_active << ", drops "
                << s.code_drops + s.event_drops
                << (s.note.empty() ? "" : " — " + s.note) << "\n";
    }
  }
  std::cout << "ward: " << ward.codes_consumed << " codes, "
            << ward.events_consumed << " events consumed; alarms active "
            << ward.alarms_active << " (queue " << ward.alarms_total
            << ", escalations " << ward.escalations << "); drops "
            << ward.drops << " (events " << ward.event_drops
            << "); quarantined " << quarantined << "\n";
  if (ward.recoveries > 0 || ward.retired > 0) {
    // Only printed once the recovery machinery engaged, so clean runs keep
    // their pre-fault-plan output bytes.
    std::cout << "recovery: readmitted " << ward.recoveries
              << " session(s), retired " << ward.retired << "\n";
  }

  if (wire) {
    const gateway::WireStats w = wire->stats();
    std::cout << "wire: " << w.frames_muxed << " frames (" << w.codes_sent << " codes, "
              << w.bytes_sent << " B) muxed; dropped " << w.envelopes_dropped
              << " envelope(s) / " << w.codes_dropped << " code(s), "
              << w.backpressure_blocks << " block stall(s); demux " << w.crc_errors
              << " CRC error(s), " << w.resync_bytes << " resync byte(s), "
              << w.lost_envelopes << " lost envelope(s), " << w.delivery_drops
              << " delivery drop(s)\n";
    if (replay_mode) {
      const double speedup = wall_s > 0.0 ? duration_s / wall_s : 0.0;
      metrics::Registry::global()
          .gauge(metrics::names::kGatewayReplaySpeedup)
          .set(speedup);
      std::cout << "replay: " << duration_s << " s of stream in " << wall_s
                << " s wall (" << speedup << "x)\n";
    }
    if (!wire->finalize_recording(duration_s)) {
      std::cerr << "cannot finalize recording in " << wire_config.record_dir << "\n";
      return 1;
    }
    if (const gateway::SessionRecorder* recorder = wire->recorder()) {
      std::cout << "recorded " << recorder->frames_recorded() << " frame(s), "
                << recorder->bytes_written() << " B to " << wire_config.record_dir << "\n";
    }
  }
  for (auto& [id, out] : dumps) {
    if (!out.flush()) {
      std::cerr << "cannot write code dumps to " << dump_dir << "\n";
      return 1;
    }
  }

  const std::string snapshot = args.string_value("snapshot");
  if (!snapshot.empty()) {
    // run() wrote the final exact snapshot last, over any periodic ones.
    if (hospital.snapshots_written() == 0) {
      std::cerr << "cannot write snapshot to " << snapshot << "\n";
      return 1;
    }
    std::cout << "wrote ward snapshot to " << snapshot;
    if (args.int_value("snapshot-every") > 0) {
      std::cout << " (" << hospital.snapshots_written() << " written)";
    }
    std::cout << "\n";
  }
  if (!checkpoint_path.empty()) {
    if (hospital.checkpoints_saved() == 0) {
      std::cerr << "cannot write checkpoint to " << checkpoint_path << "\n";
      return 1;
    }
    std::cout << "wrote checkpoint to " << checkpoint_path << "\n";
  }
  const std::string metrics_path = args.string_value("metrics");
  if (!metrics_path.empty()) {
    metrics::register_standard_instruments();
    if (!metrics::Registry::global().write_jsonl_file(metrics_path)) {
      std::cerr << "cannot write metrics to " << metrics_path << "\n";
      return 1;
    }
    std::cout << "wrote metrics snapshot to " << metrics_path << "\n";
  }
  // The blocking events ring is the clinical contract: nothing may be lost.
  if (ward.event_drops != 0) {
    std::cerr << "ERROR: " << ward.event_drops << " beat/alarm events dropped\n";
    return 1;
  }
  return 0;
}
