// hospital_wire.hpp — a sharded hospital served through the gateway wire.
//
// The one home of the hospital↔wire wiring (docs/GATEWAY.md): ward_server's
// loopback, tcp, --record and --replay modes and the hospital-level gateway
// tests all build on HospitalWire. Per shard it owns one transport (a
// loopback queue, or a TCP pair connected to and accepted off one listener),
// one GatewayMux and one GatewayDemux. Live sessions hand their codes to the
// mux (code_sink); the shard's batch hook pumps the demux at each barrier,
// which delivers into PatientSession::ingest_codes and, when recording,
// into a SessionRecorder. In replay the batch hook is the producer: it feeds
// each session one batch of recorded frames, original sequence numbers
// preserved, paced by replay_speed. Shards share nothing, so each driver
// thread touches only its own stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/fleet/hospital_scheduler.hpp"
#include "src/gateway/recorder.hpp"
#include "src/gateway/tcp_transport.hpp"

namespace tono::gateway {

enum class WireKind { kLoopback, kTcp };

struct HospitalWireConfig {
  WireKind kind{WireKind::kLoopback};
  std::string listen_host{"127.0.0.1"};  ///< TCP bind address
  std::uint16_t listen_port{0};          ///< 0 = ephemeral
  std::string record_dir{};  ///< non-empty: record every consumed envelope here
  std::string replay_dir{};  ///< non-empty: feed the sessions from this recording
  /// Replay: codes fed per session before the feed stops (ReplayHorizon).
  std::uint64_t replay_codes_per_session{0};
  /// Replay pacing as a multiple of the 1 kS/s hardware rate; 0 = max speed.
  double replay_speed{0.0};
};

/// Wire totals summed over the shards.
struct WireStats {
  std::uint64_t frames_muxed{0};
  std::uint64_t codes_sent{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t envelopes_dropped{0};
  std::uint64_t codes_dropped{0};
  std::uint64_t backpressure_blocks{0};
  std::uint64_t crc_errors{0};
  std::uint64_t resync_bytes{0};
  std::uint64_t lost_envelopes{0};
  /// Delivered codes no session could ingest (gone, or just quarantined).
  std::uint64_t delivery_drops{0};
};

class HospitalWire {
 public:
  /// Builds the per-shard stacks and batch hooks. `sessions`, the number to
  /// be admitted, sizes each loopback queue to hold a whole shard batch (at
  /// least 1 MiB): the demux drains only at barriers, so a smaller blocking
  /// queue would wedge the producers. Throws TransportError (TCP set-up) or
  /// RecorderError (record directory).
  HospitalWire(fleet::HospitalScheduler& hospital, std::size_t sessions,
               HospitalWireConfig config);
  ~HospitalWire();

  HospitalWire(const HospitalWire&) = delete;
  HospitalWire& operator=(const HospitalWire&) = delete;

  /// Admits a session whose codes cross the wire (external_ingest in
  /// replay) and opens its channel, record file and replayer. Throws
  /// RecorderError when the recording has no file for it.
  std::uint32_t admit(fleet::SessionConfig config, std::string label = "");

  /// Sees every delivered code run before its session ingests it, on the
  /// shard's driver thread. Set before run().
  void on_delivery(std::function<void(std::uint32_t, std::span<const std::int16_t>)> tap) {
    tap_ = std::move(tap);
  }

  /// Writes the recording's index from the hospital's run parameters; false
  /// on a write failure, true when not recording.
  [[nodiscard]] bool finalize_recording(double duration_s);

  [[nodiscard]] WireStats stats() const;
  [[nodiscard]] const SessionRecorder* recorder() const noexcept { return recorder_.get(); }
  /// The bound listener port (TCP); 0 on loopback.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept {
    return listener_ ? listener_->port() : 0;
  }

 private:
  struct Shard;

  void pump_(Shard& shard);
  void feed_replay_(Shard& shard);

  fleet::HospitalScheduler& hospital_;
  HospitalWireConfig config_;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<SessionRecorder> recorder_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void(std::uint32_t, std::span<const std::int16_t>)> tap_;
  std::uint64_t admitted_{0};
};

/// What a recording can replay: the shortest session stream (a killed
/// recording leaves unequal tails), floored to whole batches so every session
/// crosses the finish line on the same batch.
struct ReplayHorizon {
  std::optional<RecordIndex> index;     ///< absent for a killed recording
  std::vector<std::uint32_t> sessions;  ///< ids with a record file, ascending
  std::uint64_t codes_per_session{0};
  bool torn{false};  ///< some record file ends in a torn or corrupt record
  /// The horizon as stream time at the 1 kS/s output rate.
  [[nodiscard]] double duration_s() const noexcept {
    return static_cast<double>(codes_per_session) / 1000.0;
  }
};

/// Reads a recording's index and scans its session files. A batch is the
/// index's frames_per_step, or `frames_per_step` when there is no index.
/// Throws CheckpointError on a corrupt index, RecorderError on a bad file.
[[nodiscard]] ReplayHorizon replay_horizon(const std::string& dir,
                                           std::size_t frames_per_step);

}  // namespace tono::gateway
