// gateway.hpp — per-session channel multiplexing over one Transport.
//
// Promotes the Fig. 3 USB link from an in-process encoder/decoder pair to a
// real wire shared by many patients (docs/GATEWAY.md). Each session gets a
// tagged *channel*; its 12-bit code stream travels as ordinary telemetry
// frames (FrameEncoder wire format, one per envelope) wrapped in a channel
// envelope:
//
//   2 B  envelope sync  0xC3 0x3C   (distinct from the frame sync A5 5A)
//   1 B  envelope version
//   4 B  channel id  (== session id, LE)
//   4 B  channel sequence (per-channel, wraps, LE)
//   2 B  n_codes — samples inside the payload (LE; exact drop accounting)
//   2 B  payload length (LE)
//   …    payload: one complete FrameEncoder frame
//   2 B  CRC-16/CCITT-FALSE over everything after the envelope sync
//
// The demux is a resynchronizing parser in the FrameDecoder mold: garbage
// between envelopes is skipped and counted, a corrupt envelope is a counted
// loss (never a wrong sample — the nested frame CRC would catch anything
// the envelope CRC somehow missed), and per-channel sequence gaps count
// lost envelopes. Every channel owns a private FrameDecoder, so frame-level
// LinkStats (sequence wraparound included) never cross-contaminate between
// interleaved sessions — property-tested in tests/test_gateway.cpp.
//
// Backpressure: the mux maps transport saturation onto the established ring
// policies. kDropOldest sheds the oldest queued envelope and counts exactly
// the codes its header declares; kBlock spins (counted stalls) until the
// transport accepts — and a lossless transport (TCP) always takes the
// kBlock path regardless of policy, because the wire itself cannot shed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/common/ring_buffer.hpp"
#include "src/core/telemetry.hpp"
#include "src/gateway/transport.hpp"

namespace tono::gateway {

inline constexpr std::uint8_t kEnvelopeSync0 = 0xC3;
inline constexpr std::uint8_t kEnvelopeSync1 = 0x3C;
inline constexpr std::uint8_t kEnvelopeVersion = 1;
/// sync(2) + version(1) + channel(4) + seq(4) + n_codes(2) + length(2)
inline constexpr std::size_t kEnvelopeHeaderBytes = 15;
inline constexpr std::size_t kEnvelopeCrcBytes = 2;
[[nodiscard]] constexpr std::size_t envelope_wire_bytes(
    std::size_t payload_bytes) noexcept {
  return kEnvelopeHeaderBytes + payload_bytes + kEnvelopeCrcBytes;
}
/// Largest payload an envelope can carry (length field is u16); a whole
/// max-size frame (80 samples → 128 B) fits with room to spare.
inline constexpr std::size_t kMaxEnvelopePayload = 0xFFFF;

struct GatewayConfig {
  /// How transport saturation maps onto the wire (see header comment).
  BackpressurePolicy wire_policy{BackpressurePolicy::kBlock};
};

/// Sensor-side end: frames codes per channel and ships envelopes.
///
/// Threading: single-threaded. A mux belongs to one shard and is called
/// only from that shard's thread, so envelopes leave in one well-defined
/// order; the transport behind it is the thread boundary.
class GatewayMux {
 public:
  explicit GatewayMux(Transport& transport, GatewayConfig config = {});

  void open_channel(std::uint32_t channel_id);

  /// Chunks `codes` into ≤ kMaxSamplesPerFrame frames on the channel's own
  /// FrameEncoder and sends one envelope per frame. Throws std::out_of_range
  /// for an unopened channel.
  void send(std::uint32_t channel_id, std::span<const std::int16_t> codes);

  /// Replay path: ships an already-encoded frame (recorded wire bytes)
  /// unmodified, preserving its original frame sequence number.
  void send_encoded(std::uint32_t channel_id, std::span<const std::uint8_t> frame,
                    std::uint16_t n_codes);

  [[nodiscard]] std::uint64_t frames_muxed() const noexcept { return frames_muxed_; }
  [[nodiscard]] std::uint64_t codes_sent() const noexcept { return codes_sent_; }
  /// Bytes accepted by the transport (dropped envelopes were accepted first,
  /// then shed — see codes_dropped for the loss accounting).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t envelopes_dropped() const noexcept {
    return envelopes_dropped_;
  }
  /// Exactly the codes inside shed envelopes (from their n_codes headers).
  [[nodiscard]] std::uint64_t codes_dropped() const noexcept { return codes_dropped_; }
  [[nodiscard]] std::uint64_t backpressure_blocks() const noexcept {
    return backpressure_blocks_;
  }

 private:
  struct Channel {
    core::FrameEncoder encoder;
    std::uint32_t next_sequence{0};
  };

  void ship_(Channel& channel, std::uint32_t channel_id,
             std::span<const std::uint8_t> frame, std::uint16_t n_codes);

  Transport& transport_;
  GatewayConfig config_;
  std::map<std::uint32_t, Channel> channels_;
  std::uint64_t frames_muxed_{0};
  std::uint64_t codes_sent_{0};
  std::uint64_t bytes_sent_{0};
  std::uint64_t envelopes_dropped_{0};
  std::uint64_t codes_dropped_{0};
  std::uint64_t backpressure_blocks_{0};
  metrics::Counter* frames_metric_;
  metrics::Counter* bytes_metric_;
  metrics::Counter* blocks_metric_;
  metrics::Counter* envelopes_dropped_metric_;
  metrics::Counter* codes_dropped_metric_;
};

/// Per-channel receive-side accounting (envelope level; the nested frame
/// level lives in the channel FrameDecoder's LinkStats).
struct ChannelStats {
  std::uint64_t envelopes_ok{0};
  std::uint64_t lost_envelopes{0};  ///< inferred from channel sequence gaps
  std::uint64_t frames_decoded{0};
  std::uint64_t codes_delivered{0};
};

/// Ward-side end: parses envelopes off the transport, routes each payload
/// through its channel's FrameDecoder and delivers decoded codes in order.
///
/// Threading: pump()/pump_until_bytes() from one thread at a time (the
/// batch-barrier pump in the fleet integration runs on the shard driver).
class GatewayDemux {
 public:
  explicit GatewayDemux(Transport& transport);

  void open_channel(std::uint32_t channel_id);

  /// Delivery callback: decoded codes for one channel, called in wire order
  /// from inside pump(). Codes for an unopened channel are counted
  /// (unknown_channel_envelopes) and discarded, never misrouted.
  void on_codes(
      std::function<void(std::uint32_t, std::span<const std::int16_t>)> callback) {
    on_codes_ = std::move(callback);
  }

  /// Recorder tap: every CRC-validated envelope's payload (the raw frame
  /// bytes as they crossed the wire), before decoding. SessionRecorder
  /// hangs off this, so a recording captures exactly the consumed stream.
  void on_envelope(std::function<void(std::uint32_t, std::span<const std::uint8_t>,
                                      std::uint16_t)>
                       callback) {
    on_envelope_ = std::move(callback);
  }

  /// Drains everything the transport currently has; returns codes delivered.
  std::size_t pump();

  /// Pumps until `target` total bytes have been received (lossless wire:
  /// the sender's bytes_sent()), the transport closes, or ~timeout_ms
  /// passes. Returns true when the byte target was met.
  bool pump_until_bytes(std::uint64_t target, int timeout_ms = 10000);

  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }
  [[nodiscard]] std::uint64_t crc_errors() const noexcept { return crc_errors_; }
  [[nodiscard]] std::uint64_t resync_bytes() const noexcept { return resync_bytes_; }
  [[nodiscard]] std::uint64_t unknown_channel_envelopes() const noexcept {
    return unknown_channel_envelopes_;
  }
  [[nodiscard]] const ChannelStats& channel_stats(std::uint32_t channel_id) const;
  /// The channel's frame-level link accounting (sequence wraparound safe,
  /// isolated per session).
  [[nodiscard]] const core::LinkStats& link_stats(std::uint32_t channel_id) const;

 private:
  struct Channel {
    core::FrameDecoder decoder;
    ChannelStats stats;
    bool seen_sequence{false};
    std::uint32_t last_sequence{0};
  };

  /// Envelope analogue of FrameDecoder::try_parse_at: returns bytes
  /// consumed at `offset` (0 = need more data, 1 = resync step).
  std::size_t try_parse_at_(std::size_t offset);

  Transport& transport_;
  std::vector<std::uint8_t> buffer_;
  std::map<std::uint32_t, Channel> channels_;
  std::function<void(std::uint32_t, std::span<const std::int16_t>)> on_codes_;
  std::function<void(std::uint32_t, std::span<const std::uint8_t>, std::uint16_t)>
      on_envelope_;
  std::uint64_t bytes_received_{0};
  std::uint64_t crc_errors_{0};
  std::uint64_t resync_bytes_{0};
  std::uint64_t unknown_channel_envelopes_{0};
  std::size_t codes_delivered_this_pump_{0};
  metrics::Counter* frames_metric_;
  metrics::Counter* bytes_metric_;
  metrics::Counter* crc_errors_metric_;
  metrics::Counter* resyncs_metric_;
  metrics::Counter* lost_envelopes_metric_;
};

}  // namespace tono::gateway
