#include "src/core/telemetry.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "src/common/checkpoint.hpp"

namespace tono::core {
namespace {

// The public sizing helpers (telemetry.hpp) under the names this file has
// always used.
constexpr std::size_t kHeaderBytes = kFrameHeaderBytes;
constexpr std::size_t kCrcBytes = kFrameCrcBytes;

constexpr std::size_t payload_bytes(std::size_t n_samples) {
  return frame_payload_bytes(n_samples);
}

/// kCrc16Table[i] is the CRC register after shifting the byte i through
/// it from zero: the eight polynomial steps of one byte, done once.
constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::size_t i = 0; i < table.size(); ++i) {
    auto crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc & 0x8000) ? (crc << 1) ^ 0x1021 : crc << 1);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> kCrc16Table = make_crc16_table();

}  // namespace

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) noexcept {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ kCrc16Table[(crc >> 8) ^ byte]);
  }
  return crc;
}

std::vector<std::uint8_t> FrameEncoder::encode(std::span<const std::int16_t> samples) {
  if (samples.empty() || samples.size() > kMaxSamplesPerFrame) {
    throw std::invalid_argument{"FrameEncoder: 1..80 samples per frame"};
  }
  for (std::int16_t s : samples) {
    if (s < -2048 || s > 2047) {
      throw std::invalid_argument{"FrameEncoder: sample outside 12-bit range"};
    }
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + payload_bytes(samples.size()) + kCrcBytes);
  frame.push_back(kFrameSync0);
  frame.push_back(kFrameSync1);
  frame.push_back(kProtocolVersion);
  frame.push_back(static_cast<std::uint8_t>(sequence_ & 0xFF));
  frame.push_back(static_cast<std::uint8_t>(sequence_ >> 8));
  frame.push_back(static_cast<std::uint8_t>(samples.size()));

  // Pack 12-bit two's-complement values MSB-first into a bit stream.
  std::uint32_t bitbuf = 0;
  int bits = 0;
  for (std::int16_t s : samples) {
    const auto u = static_cast<std::uint16_t>(s & 0x0FFF);
    bitbuf = (bitbuf << 12) | u;
    bits += 12;
    while (bits >= 8) {
      bits -= 8;
      frame.push_back(static_cast<std::uint8_t>((bitbuf >> bits) & 0xFF));
    }
  }
  if (bits > 0) {
    frame.push_back(static_cast<std::uint8_t>((bitbuf << (8 - bits)) & 0xFF));
  }

  const std::uint16_t crc =
      crc16_ccitt(std::span<const std::uint8_t>{frame.data() + 2, frame.size() - 2});
  frame.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  frame.push_back(static_cast<std::uint8_t>(crc >> 8));
  ++sequence_;
  return frame;
}

FrameDecoder::FrameDecoder() {
  auto& reg = metrics::Registry::global();
  frames_ok_metric_ = &reg.counter(metrics::names::kTelemetryFramesOk);
  crc_errors_metric_ = &reg.counter(metrics::names::kTelemetryCrcErrors);
  resyncs_metric_ = &reg.counter(metrics::names::kTelemetryResyncs);
  lost_frames_metric_ = &reg.counter(metrics::names::kTelemetryLostFrames);
}

std::size_t FrameDecoder::try_parse_at(std::size_t offset,
                                       std::optional<DecodedFrame>& out) {
  out.reset();
  const std::size_t avail = buffer_.size() - offset;
  const std::uint8_t* p = buffer_.data() + offset;
  if (avail < 2) return 0;
  if (p[0] != kFrameSync0 || p[1] != kFrameSync1) {
    ++stats_.resyncs;
    resyncs_metric_->add(1);
    return 1;  // skip one byte, hunt for sync
  }
  if (avail < kHeaderBytes) return 0;
  const std::size_t n = p[5];
  if (n == 0 || n > kMaxSamplesPerFrame || p[2] != kProtocolVersion) {
    ++stats_.resyncs;
    resyncs_metric_->add(1);
    return 1;  // implausible header: treat as noise
  }
  const std::size_t total = kHeaderBytes + payload_bytes(n) + kCrcBytes;
  if (avail < total) return 0;

  const std::uint16_t wire_crc = static_cast<std::uint16_t>(
      p[total - 2] | (static_cast<std::uint16_t>(p[total - 1]) << 8));
  const std::uint16_t calc_crc =
      crc16_ccitt(std::span<const std::uint8_t>{p + 2, total - 2 - kCrcBytes});
  if (wire_crc != calc_crc) {
    ++stats_.crc_errors;
    crc_errors_metric_->add(1);
    return 1;  // corrupt: resync from the next byte
  }

  DecodedFrame frame;
  frame.sequence =
      static_cast<std::uint16_t>(p[3] | (static_cast<std::uint16_t>(p[4]) << 8));
  frame.samples.reserve(n);
  std::uint32_t bitbuf = 0;
  int bits = 0;
  std::size_t pos = kHeaderBytes;
  for (std::size_t i = 0; i < n; ++i) {
    while (bits < 12) {
      bitbuf = (bitbuf << 8) | p[pos++];
      bits += 8;
    }
    bits -= 12;
    auto u = static_cast<std::uint16_t>((bitbuf >> bits) & 0x0FFF);
    // Sign-extend 12 → 16 bits.
    if (u & 0x0800) u = static_cast<std::uint16_t>(u | 0xF000);
    frame.samples.push_back(static_cast<std::int16_t>(u));
  }

  if (last_sequence_) {
    const std::uint16_t expected = static_cast<std::uint16_t>(*last_sequence_ + 1);
    if (frame.sequence != expected) {
      const auto gap = static_cast<std::uint16_t>(frame.sequence - expected);
      stats_.lost_frames += gap;
      lost_frames_metric_->add(gap);
    }
  }
  last_sequence_ = frame.sequence;
  ++stats_.frames_ok;
  frames_ok_metric_->add(1);
  out = std::move(frame);
  return total;
}

std::vector<DecodedFrame> FrameDecoder::push(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  std::vector<DecodedFrame> frames;
  std::size_t start = 0;
  for (;;) {
    std::optional<DecodedFrame> frame;
    const std::size_t consumed = try_parse_at(start, frame);
    if (frame) frames.push_back(std::move(*frame));
    if (consumed == 0) break;
    start += consumed;
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(start));
  return frames;
}

void FrameDecoder::reset() {
  buffer_.clear();
  stats_ = LinkStats{};
  last_sequence_.reset();
}

void FrameEncoder::serialize(CheckpointWriter& out) const {
  out.section("frame_encoder");
  out.u16(sequence_);
}

void FrameEncoder::restore(CheckpointReader& in) {
  in.section("frame_encoder");
  sequence_ = in.u16();
}

void FrameDecoder::serialize(CheckpointWriter& out) const {
  out.section("frame_decoder");
  out.size(buffer_.size());
  for (std::uint8_t b : buffer_) out.u8(b);
  out.size(stats_.frames_ok);
  out.size(stats_.crc_errors);
  out.size(stats_.resyncs);
  out.size(stats_.lost_frames);
  out.boolean(last_sequence_.has_value());
  out.u16(last_sequence_.value_or(0));
}

void FrameDecoder::restore(CheckpointReader& in) {
  in.section("frame_decoder");
  // push() parses every whole frame it holds, so it never leaves a full
  // maximum-size frame behind. A longer buffer is no state of this decoder;
  // a shorter one that the blob does not hold fails on its byte reads.
  const std::size_t buffered = in.size();
  if (buffered >= frame_wire_bytes(kMaxSamplesPerFrame)) {
    throw CheckpointError{"frame_decoder: buffered " + std::to_string(buffered) +
                          " bytes, a push leaves fewer than one maximum-size frame"};
  }
  buffer_.resize(buffered);
  for (auto& b : buffer_) b = in.u8();
  stats_.frames_ok = in.size();
  stats_.crc_errors = in.size();
  stats_.resyncs = in.size();
  stats_.lost_frames = in.size();
  const bool has_seq = in.boolean();
  const std::uint16_t seq = in.u16();
  last_sequence_ = has_seq ? std::optional<std::uint16_t>{seq} : std::nullopt;
}

LinkFaultInjector::LinkFaultInjector(const LinkFaultConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  const double total = config_.drop_prob + config_.bit_flip_prob +
                       config_.truncate_prob + config_.garbage_prob;
  if (config_.drop_prob < 0.0 || config_.bit_flip_prob < 0.0 ||
      config_.truncate_prob < 0.0 || config_.garbage_prob < 0.0 || total > 1.0) {
    throw std::invalid_argument{"LinkFaultInjector: probabilities must be >= 0 and sum <= 1"};
  }
}

void LinkFaultInjector::serialize(CheckpointWriter& out) const {
  out.section("link_fault_injector");
  rng_.serialize(out);
  out.u64(frames_corrupted_);
}

void LinkFaultInjector::restore(CheckpointReader& in) {
  in.section("link_fault_injector");
  rng_.restore(in);
  frames_corrupted_ = in.u64();
}

bool LinkFaultInjector::corrupt(std::vector<std::uint8_t>& wire) {
  const double u = rng_.uniform();
  double edge = config_.drop_prob;
  if (u < edge) {
    wire.clear();
    ++frames_corrupted_;
    return true;
  }
  edge += config_.bit_flip_prob;
  if (u < edge) {
    if (!wire.empty()) {
      const std::size_t flips = 1 + static_cast<std::size_t>(rng_.uniform_below(3));
      for (std::size_t i = 0; i < flips; ++i) {
        const std::uint64_t bit = rng_.uniform_below(wire.size() * 8);
        wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
    ++frames_corrupted_;
    return true;
  }
  edge += config_.truncate_prob;
  if (u < edge) {
    if (wire.size() > 2) {
      const std::size_t keep = 2 + static_cast<std::size_t>(rng_.uniform_below(wire.size() - 2));
      wire.resize(keep);
    }
    ++frames_corrupted_;
    return true;
  }
  edge += config_.garbage_prob;
  if (u < edge) {
    const std::size_t n = config_.max_garbage_bytes == 0
                              ? 0
                              : 1 + static_cast<std::size_t>(
                                        rng_.uniform_below(config_.max_garbage_bytes));
    std::vector<std::uint8_t> junk(n);
    for (auto& b : junk) {
      // Any value but the sync lead-in: a fake 0xA5 could swallow the real
      // frame's header into a hunt that outlives this chunk.
      do {
        b = static_cast<std::uint8_t>(rng_.uniform_below(256));
      } while (b == kFrameSync0);
    }
    wire.insert(wire.begin(), junk.begin(), junk.end());
    ++frames_corrupted_;
    return true;
  }
  return false;
}

}  // namespace tono::core
