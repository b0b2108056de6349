#include "src/gateway/hospital_wire.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "src/gateway/gateway.hpp"

namespace tono::gateway {

/// One shard's wire stack. The loopback queue is both ends; TCP has a
/// connected sender (mux side) and an accepted receiver (demux side).
struct HospitalWire::Shard {
  Shard(std::unique_ptr<Transport> tx, std::unique_ptr<Transport> rx)
      : sender(std::move(tx)),
        receiver(std::move(rx)),
        mux(*sender),
        demux(receiver ? *receiver : *sender) {}

  std::unique_ptr<Transport> sender;
  std::unique_ptr<Transport> receiver;
  GatewayMux mux;
  GatewayDemux demux;
  std::vector<std::uint32_t> ids;
  std::uint64_t delivery_drops{0};
  std::vector<std::unique_ptr<SessionReplayer>> replayers;
  std::vector<std::uint8_t> frame;  ///< replay scratch
  std::uint64_t batches{0};
  std::chrono::steady_clock::time_point start;
};

HospitalWire::HospitalWire(fleet::HospitalScheduler& hospital, std::size_t sessions,
                           HospitalWireConfig config)
    : hospital_(hospital), config_(std::move(config)) {
  const std::size_t n_shards = hospital_.shards();
  const std::size_t fps = hospital_.config().frames_per_step;
  const std::size_t envelopes_per_session =
      (fps + core::kMaxSamplesPerFrame - 1) / core::kMaxSamplesPerFrame;
  const std::size_t batch_bytes =
      (sessions + n_shards - 1) / n_shards * envelopes_per_session *
      envelope_wire_bytes(core::frame_wire_bytes(std::min(fps, core::kMaxSamplesPerFrame)));
  const std::size_t loopback_capacity = std::max<std::size_t>(1 << 20, batch_bytes);

  if (config_.kind == WireKind::kTcp) {
    listener_ = std::make_unique<TcpListener>(config_.listen_host, config_.listen_port);
  }
  if (!config_.record_dir.empty()) {
    recorder_ = std::make_unique<SessionRecorder>(config_.record_dir);
  }
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (listener_) {
      // Connect then accept: pairs match in order because the listener
      // backlog queues the pending connection.
      auto tx = TcpTransport::connect(config_.listen_host, listener_->port());
      shards_.push_back(std::make_unique<Shard>(std::move(tx), listener_->accept()));
    } else {
      shards_.push_back(std::make_unique<Shard>(
          std::make_unique<LoopbackTransport>(loopback_capacity), nullptr));
    }
    Shard& shard = *shards_.back();
    shard.demux.on_codes([this, s, &shard](std::uint32_t id,
                                           std::span<const std::int16_t> codes) {
      if (tap_) tap_(id, codes);
      try {
        if (fleet::PatientSession* session = hospital_.shard(s).session(id)) {
          session->ingest_codes(codes);
          return;
        }
      } catch (const std::exception&) {
        // e.g. codes in flight for a just-quarantined session
      }
      ++shard.delivery_drops;
    });
    if (recorder_) {
      shard.demux.on_envelope([this](std::uint32_t id, std::span<const std::uint8_t> frame,
                                     std::uint16_t n_codes) {
        recorder_->record(id, frame, n_codes);
      });
    }
    hospital_.shard(s).set_batch_hook([this, &shard] {
      if (config_.replay_dir.empty()) {
        pump_(shard);
      } else {
        feed_replay_(shard);
      }
    });
  }
}

HospitalWire::~HospitalWire() = default;

std::uint32_t HospitalWire::admit(fleet::SessionConfig config, std::string label) {
  const bool replaying = !config_.replay_dir.empty();
  if (replaying) {
    config.external_ingest = true;  // codes arrive only through the wire
  } else {
    config.code_sink = [this](std::uint32_t id, std::span<const std::int16_t> codes) {
      shards_[hospital_.shard_of(id)]->mux.send(id, codes);
    };
  }
  const std::uint32_t id = hospital_.admit(std::move(config), std::move(label));
  ++admitted_;
  Shard& shard = *shards_[hospital_.shard_of(id)];
  shard.ids.push_back(id);
  shard.mux.open_channel(id);
  shard.demux.open_channel(id);
  if (recorder_) recorder_->open_session(id);
  if (replaying) {
    shard.replayers.push_back(std::make_unique<SessionReplayer>(config_.replay_dir, id));
  }
  return id;
}

void HospitalWire::pump_(Shard& shard) {
  if (config_.kind == WireKind::kTcp) {
    (void)shard.demux.pump_until_bytes(shard.mux.bytes_sent());
  } else {
    (void)shard.demux.pump();
  }
}

void HospitalWire::feed_replay_(Shard& shard) {
  const std::uint64_t fps = hospital_.config().frames_per_step;
  const std::uint64_t cap = config_.replay_codes_per_session;
  const bool tcp = config_.kind == WireKind::kTcp;
  std::uint16_t n_codes = 0;
  for (auto& replayer : shard.replayers) {
    const std::uint64_t fed = replayer->codes_read();  // every code read is sent
    std::uint64_t quota = std::min(fps, cap > fed ? cap - fed : 0);
    while (quota > 0 && replayer->next(shard.frame, n_codes)) {
      shard.mux.send_encoded(replayer->session_id(), shard.frame, n_codes);
      quota -= std::min<std::uint64_t>(quota, n_codes);
      // Pump behind every envelope: the loopback queue never holds more
      // than one, so a blocking wire cannot wedge the hook.
      if (!tcp) (void)shard.demux.pump();
    }
  }
  if (tcp) pump_(shard);
  if (config_.replay_speed <= 0.0) return;
  const auto now = std::chrono::steady_clock::now();
  if (shard.batches++ == 0) shard.start = now;
  // Batch k ends at stream time (k+1)·fps ms; sleep until that point scaled
  // by the speed multiple.
  const double target_s =
      static_cast<double>(shard.batches * fps) / 1000.0 / config_.replay_speed;
  const double elapsed_s = std::chrono::duration<double>(now - shard.start).count();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::max(0.0, target_s - elapsed_s)));
}

bool HospitalWire::finalize_recording(double duration_s) {
  if (!recorder_) return true;
  RecordMeta meta;
  meta.base_seed = hospital_.config().base_seed;
  meta.sessions = admitted_;
  meta.frames_per_step = hospital_.config().frames_per_step;
  meta.duration_s = duration_s;
  return recorder_->finalize(meta);
}

WireStats HospitalWire::stats() const {
  WireStats t;
  for (const auto& shard : shards_) {
    t.frames_muxed += shard->mux.frames_muxed();
    t.codes_sent += shard->mux.codes_sent();
    t.bytes_sent += shard->mux.bytes_sent();
    t.envelopes_dropped += shard->mux.envelopes_dropped();
    t.codes_dropped += shard->mux.codes_dropped();
    t.backpressure_blocks += shard->mux.backpressure_blocks();
    t.crc_errors += shard->demux.crc_errors();
    t.resync_bytes += shard->demux.resync_bytes();
    for (const std::uint32_t id : shard->ids) {
      t.lost_envelopes += shard->demux.channel_stats(id).lost_envelopes;
    }
    t.delivery_drops += shard->delivery_drops;
  }
  return t;
}

ReplayHorizon replay_horizon(const std::string& dir, std::size_t frames_per_step) {
  ReplayHorizon horizon;
  horizon.index = read_record_index(dir);
  if (horizon.index) frames_per_step = horizon.index->meta.frames_per_step;
  horizon.sessions = SessionReplayer::list_sessions(dir);
  if (horizon.sessions.empty()) return horizon;
  std::uint64_t min_codes = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint32_t id : horizon.sessions) {
    const auto totals = SessionReplayer::scan(dir, id);
    min_codes = std::min(min_codes, totals.codes);
    horizon.torn = horizon.torn || totals.torn;
  }
  // An index that claims a zero batch size has no batch to replay.
  if (frames_per_step > 0) {
    horizon.codes_per_session = min_codes / frames_per_step * frames_per_step;
  }
  return horizon;
}

}  // namespace tono::gateway
