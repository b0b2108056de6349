#include "src/gateway/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace tono::gateway {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Builds one envelope around `frame` (see gateway.hpp for the layout).
std::vector<std::uint8_t> make_envelope(std::uint32_t channel_id,
                                        std::uint32_t sequence,
                                        std::span<const std::uint8_t> frame,
                                        std::uint16_t n_codes) {
  if (frame.size() > kMaxEnvelopePayload) {
    throw std::invalid_argument{"gateway: envelope payload too large"};
  }
  std::vector<std::uint8_t> wire;
  wire.reserve(envelope_wire_bytes(frame.size()));
  wire.push_back(kEnvelopeSync0);
  wire.push_back(kEnvelopeSync1);
  wire.push_back(kEnvelopeVersion);
  put_u32(wire, channel_id);
  put_u32(wire, sequence);
  put_u16(wire, n_codes);
  put_u16(wire, static_cast<std::uint16_t>(frame.size()));
  wire.insert(wire.end(), frame.begin(), frame.end());
  const std::uint16_t crc = core::crc16_ccitt(
      std::span<const std::uint8_t>{wire.data() + 2, wire.size() - 2});
  put_u16(wire, crc);
  return wire;
}

}  // namespace

GatewayMux::GatewayMux(Transport& transport, GatewayConfig config)
    : transport_(transport), config_(config) {
  auto& reg = metrics::Registry::global();
  frames_metric_ = &reg.counter(metrics::names::kGatewayFramesMuxed);
  bytes_metric_ = &reg.counter(metrics::names::kGatewayBytesSent);
  blocks_metric_ = &reg.counter(metrics::names::kGatewayBackpressureBlocks);
  envelopes_dropped_metric_ = &reg.counter(metrics::names::kGatewayEnvelopesDropped);
  codes_dropped_metric_ = &reg.counter(metrics::names::kGatewayCodesDropped);
}

void GatewayMux::open_channel(std::uint32_t channel_id) {
  channels_.try_emplace(channel_id);
}

void GatewayMux::ship_(Channel& channel, std::uint32_t channel_id,
                       std::span<const std::uint8_t> frame, std::uint16_t n_codes) {
  const auto wire = make_envelope(channel_id, channel.next_sequence++, frame, n_codes);
  while (!transport_.try_send(wire)) {
    if (config_.wire_policy == BackpressurePolicy::kDropOldest &&
        !transport_.lossless()) {
      const auto shed = transport_.drop_oldest();
      if (!shed.empty()) {
        // The shed chunk is a whole envelope we built earlier; its header
        // says exactly how many codes just died on the wire.
        ++envelopes_dropped_;
        envelopes_dropped_metric_->add(1);
        const std::uint64_t lost =
            shed.size() >= kEnvelopeHeaderBytes ? get_u16(shed.data() + 11) : 0;
        codes_dropped_ += lost;
        codes_dropped_metric_->add(lost);
        continue;
      }
    }
    // kBlock (or a transport with nothing left to shed): counted stall,
    // then wait for the consumer.
    ++backpressure_blocks_;
    blocks_metric_->add(1);
    std::this_thread::yield();
  }
  ++frames_muxed_;
  frames_metric_->add(1);
  codes_sent_ += n_codes;
  bytes_sent_ += wire.size();
  bytes_metric_->add(static_cast<std::uint64_t>(wire.size()));
}

void GatewayMux::send(std::uint32_t channel_id, std::span<const std::int16_t> codes) {
  const auto it = channels_.find(channel_id);
  if (it == channels_.end()) {
    throw std::out_of_range{"GatewayMux: channel not opened"};
  }
  std::size_t i = 0;
  while (i < codes.size()) {
    const std::size_t n = std::min(codes.size() - i, core::kMaxSamplesPerFrame);
    const auto frame = it->second.encoder.encode(codes.subspan(i, n));
    ship_(it->second, channel_id, frame, static_cast<std::uint16_t>(n));
    i += n;
  }
}

void GatewayMux::send_encoded(std::uint32_t channel_id,
                              std::span<const std::uint8_t> frame,
                              std::uint16_t n_codes) {
  const auto it = channels_.find(channel_id);
  if (it == channels_.end()) {
    throw std::out_of_range{"GatewayMux: channel not opened"};
  }
  ship_(it->second, channel_id, frame, n_codes);
}

GatewayDemux::GatewayDemux(Transport& transport) : transport_(transport) {
  auto& reg = metrics::Registry::global();
  frames_metric_ = &reg.counter(metrics::names::kGatewayFramesDemuxed);
  bytes_metric_ = &reg.counter(metrics::names::kGatewayBytesReceived);
  crc_errors_metric_ = &reg.counter(metrics::names::kGatewayCrcErrors);
  resyncs_metric_ = &reg.counter(metrics::names::kGatewayResyncs);
  lost_envelopes_metric_ = &reg.counter(metrics::names::kGatewayLostEnvelopes);
}

void GatewayDemux::open_channel(std::uint32_t channel_id) {
  channels_.try_emplace(channel_id);
}

const ChannelStats& GatewayDemux::channel_stats(std::uint32_t channel_id) const {
  const auto it = channels_.find(channel_id);
  if (it == channels_.end()) {
    throw std::out_of_range{"GatewayDemux: channel not opened"};
  }
  return it->second.stats;
}

const core::LinkStats& GatewayDemux::link_stats(std::uint32_t channel_id) const {
  const auto it = channels_.find(channel_id);
  if (it == channels_.end()) {
    throw std::out_of_range{"GatewayDemux: channel not opened"};
  }
  return it->second.decoder.stats();
}

std::size_t GatewayDemux::try_parse_at_(std::size_t offset) {
  const std::size_t avail = buffer_.size() - offset;
  const std::uint8_t* p = buffer_.data() + offset;
  if (avail < 2) return 0;
  if (p[0] != kEnvelopeSync0 || p[1] != kEnvelopeSync1) {
    ++resync_bytes_;
    resyncs_metric_->add(1);
    return 1;
  }
  if (avail < kEnvelopeHeaderBytes) return 0;
  const std::uint16_t length = get_u16(p + 13);
  if (p[2] != kEnvelopeVersion || length == 0) {
    ++resync_bytes_;
    resyncs_metric_->add(1);
    return 1;
  }
  const std::size_t total = envelope_wire_bytes(length);
  if (avail < total) return 0;

  const std::uint16_t wire_crc = get_u16(p + total - 2);
  const std::uint16_t calc_crc = core::crc16_ccitt(
      std::span<const std::uint8_t>{p + 2, total - 2 - kEnvelopeCrcBytes});
  if (wire_crc != calc_crc) {
    ++crc_errors_;
    crc_errors_metric_->add(1);
    return 1;  // corrupt: resync from the next byte
  }

  const std::uint32_t channel_id = get_u32(p + 3);
  const std::uint32_t sequence = get_u32(p + 7);
  const std::uint16_t n_codes = get_u16(p + 11);
  const auto it = channels_.find(channel_id);
  if (it == channels_.end()) {
    ++unknown_channel_envelopes_;
    return total;  // valid envelope, nobody to give it to — drop, not misroute
  }
  Channel& channel = it->second;
  if (channel.seen_sequence) {
    const std::uint32_t expected = channel.last_sequence + 1;
    const std::uint32_t gap = sequence - expected;  // u32 wraparound arithmetic
    if (gap != 0) {
      channel.stats.lost_envelopes += gap;
      lost_envelopes_metric_->add(gap);
    }
  }
  channel.seen_sequence = true;
  channel.last_sequence = sequence;
  ++channel.stats.envelopes_ok;

  const std::span<const std::uint8_t> payload{p + kEnvelopeHeaderBytes, length};
  if (on_envelope_) on_envelope_(channel_id, payload, n_codes);
  for (const auto& frame : channel.decoder.push(payload)) {
    ++channel.stats.frames_decoded;
    frames_metric_->add(1);
    channel.stats.codes_delivered += frame.samples.size();
    codes_delivered_this_pump_ += frame.samples.size();
    if (on_codes_) on_codes_(channel_id, frame.samples);
  }
  return total;
}

std::size_t GatewayDemux::pump() {
  codes_delivered_this_pump_ = 0;
  std::vector<std::uint8_t> incoming;
  const std::size_t n = transport_.recv(incoming);
  if (n > 0) {
    bytes_received_ += n;
    bytes_metric_->add(static_cast<std::uint64_t>(n));
    buffer_.insert(buffer_.end(), incoming.begin(), incoming.end());
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t consumed = try_parse_at_(start);
    if (consumed == 0) break;
    start += consumed;
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(start));
  return codes_delivered_this_pump_;
}

bool GatewayDemux::pump_until_bytes(std::uint64_t target, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    (void)pump();
    if (bytes_received_ >= target) return true;
    if (transport_.closed()) return bytes_received_ >= target;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
}

}  // namespace tono::gateway
