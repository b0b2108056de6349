// telemetry.hpp — the FPGA→computer data link of Fig. 3.
//
// "The output of the modulator is connected to an external digital
// decimation filter. Currently this filter is implemented in an FPGA, which
// also provides an interface (USB) to a computer system."
//
// Frame format (little-endian within fields):
//   2 B  sync  0xA5 0x5A
//   1 B  flags/version
//   2 B  sequence number (wraps)
//   1 B  payload sample count n (≤ 80)
//   ceil(n·12/8) B  packed 12-bit two's-complement samples
//   2 B  CRC-16/CCITT-FALSE over everything after the sync word
//
// The decoder is a resynchronizing byte-stream parser: it survives garbage
// between frames, detects CRC corruption, and reports sequence gaps (lost
// frames) — what a host-side driver for the demonstrator needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/common/rng.hpp"

namespace tono::core {

inline constexpr std::uint8_t kFrameSync0 = 0xA5;
inline constexpr std::uint8_t kFrameSync1 = 0x5A;
inline constexpr std::size_t kMaxSamplesPerFrame = 80;
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Exact wire sizing of one frame. The gateway envelope layer
/// (src/gateway/) wraps whole frames in per-session channel envelopes and
/// needs these to size, validate and account envelopes byte-exactly.
inline constexpr std::size_t kFrameHeaderBytes = 6;  // sync(2)+version(1)+seq(2)+count(1)
inline constexpr std::size_t kFrameCrcBytes = 2;
[[nodiscard]] constexpr std::size_t frame_payload_bytes(std::size_t n_samples) noexcept {
  return (n_samples * 12 + 7) / 8;
}
[[nodiscard]] constexpr std::size_t frame_wire_bytes(std::size_t n_samples) noexcept {
  return kFrameHeaderBytes + frame_payload_bytes(n_samples) + kFrameCrcBytes;
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection), one byte
/// per step: a compile-time 256-entry table holds the polynomial division of
/// every byte value, so each byte costs one lookup and one shift instead of
/// eight conditional bit steps. Its values equal the bit-by-bit definition
/// on every input (tests/test_telemetry.cpp keeps that loop as the
/// reference). Every frame and gateway envelope check goes through here.
[[nodiscard]] std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) noexcept;

/// Packs signed 12-bit codes (range checked) into the wire format.
class FrameEncoder {
 public:
  /// Encodes one frame from up to kMaxSamplesPerFrame 12-bit codes.
  /// Throws std::invalid_argument on range violations or empty/oversize input.
  [[nodiscard]] std::vector<std::uint8_t> encode(std::span<const std::int16_t> samples);

  [[nodiscard]] std::uint16_t next_sequence() const noexcept { return sequence_; }

  /// Checkpointing: the wire sequence counter.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  std::uint16_t sequence_{0};
};

/// One decoded frame.
struct DecodedFrame {
  std::uint16_t sequence{0};
  std::vector<std::int16_t> samples;
};

struct LinkStats {
  std::size_t frames_ok{0};
  std::size_t crc_errors{0};
  std::size_t resyncs{0};        ///< bytes skipped hunting for sync
  std::size_t lost_frames{0};    ///< inferred from sequence gaps
};

/// Streaming decoder; feed arbitrary byte chunks, collect frames. The
/// per-decoder LinkStats are mirrored into the process-wide metrics registry
/// (telemetry.* counters aggregate across decoder instances); reset() clears
/// only the per-decoder view.
class FrameDecoder {
 public:
  FrameDecoder();

  /// Consumes a chunk; returns frames completed within it.
  [[nodiscard]] std::vector<DecodedFrame> push(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  void reset();

  /// Checkpointing: parse buffer, per-decoder stats and sequence tracking.
  /// The registry mirrors are process-lifetime counters and are untouched —
  /// restore() repositions this decoder without re-counting its history, and
  /// throws CheckpointError for a parse buffer no push() leaves behind.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  /// Tries to parse one frame at buffer_[offset..]; returns consumed bytes
  /// (0 = need more data; 1 = resync step).
  [[nodiscard]] std::size_t try_parse_at(std::size_t offset,
                                         std::optional<DecodedFrame>& out);

  std::vector<std::uint8_t> buffer_;
  LinkStats stats_;
  std::optional<std::uint16_t> last_sequence_;
  // Registry mirrors of LinkStats (resolved once at construction).
  metrics::Counter* frames_ok_metric_;
  metrics::Counter* crc_errors_metric_;
  metrics::Counter* resyncs_metric_;
  metrics::Counter* lost_frames_metric_;
};

/// Per-frame corruption probabilities for LinkFaultInjector. The four modes
/// are mutually exclusive per frame (first match on one uniform draw); their
/// probabilities must sum to ≤ 1, any remainder passes the frame clean.
struct LinkFaultConfig {
  double drop_prob{0.20};      ///< frame vanishes on the wire entirely
  double bit_flip_prob{0.50};  ///< 1–3 random bit flips (usually a CRC error)
  double truncate_prob{0.15};  ///< tail cut off mid-frame
  double garbage_prob{0.15};   ///< line noise prepended before the sync word
  std::size_t max_garbage_bytes{12};
};

/// Deterministic wire-level fault model for the Fig. 3 USB link: corrupts
/// encoded frames the same way the telemetry fuzz tests do, but as a library
/// component driven by an explicitly seeded Rng — so a fleet fault plan can
/// schedule "link corruption bursts" that are bit-identical across runs and
/// thread counts. FrameDecoder's CRC/resync/sequence accounting turns every
/// corruption into a counted loss, never a wrong sample.
class LinkFaultInjector {
 public:
  LinkFaultInjector(const LinkFaultConfig& config, std::uint64_t seed);

  /// Mutates one encoded frame in place (possibly clearing it = dropped).
  /// Returns true if the frame was touched.
  bool corrupt(std::vector<std::uint8_t>& wire);

  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept {
    return frames_corrupted_;
  }

  /// Checkpointing: the fault Rng stream position and corruption count.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  LinkFaultConfig config_;
  Rng rng_;
  std::uint64_t frames_corrupted_{0};
};

}  // namespace tono::core
