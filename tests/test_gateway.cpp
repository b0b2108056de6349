// Gateway mux/demux tests: channel isolation, corruption tolerance, the
// ≥3-session sequence-wraparound interleaving property, backpressure
// accounting, metrics on/off bit-exactness, and the headline determinism
// contract — a hospital fed through the shipped loopback or TCP wiring
// (HospitalWire) is bit-identical to direct in-process ingest
// (docs/GATEWAY.md).
#include "src/gateway/gateway.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/telemetry.hpp"
#include "src/fleet/hospital_scheduler.hpp"
#include "src/gateway/hospital_wire.hpp"
#include "src/gateway/tcp_transport.hpp"
#include "src/gateway/transport.hpp"

namespace tono::gateway {
namespace {

std::vector<std::int16_t> random_codes(Rng& rng, std::size_t n) {
  std::vector<std::int16_t> v(n);
  for (auto& s : v) {
    s = static_cast<std::int16_t>(
        static_cast<std::int64_t>(rng.uniform_below(4096)) - 2048);
  }
  return v;
}

/// Collects every delivery per channel, in order.
struct Sink {
  std::map<std::uint32_t, std::vector<std::int16_t>> codes;
  std::map<std::uint32_t, std::vector<std::vector<std::int16_t>>> frames;

  void attach(GatewayDemux& demux) {
    demux.on_codes([this](std::uint32_t id, std::span<const std::int16_t> c) {
      codes[id].insert(codes[id].end(), c.begin(), c.end());
      frames[id].emplace_back(c.begin(), c.end());
    });
  }
};

TEST(GatewayRoundtrip, SingleChannelDeliversCodesInOrder) {
  LoopbackTransport wire;
  GatewayMux mux{wire};
  GatewayDemux demux{wire};
  mux.open_channel(7);
  demux.open_channel(7);
  Sink sink;
  sink.attach(demux);

  Rng rng{0x6A7E};
  std::vector<std::int16_t> sent;
  for (int round = 0; round < 20; ++round) {
    const auto batch = random_codes(rng, 1 + rng.uniform_below(64));
    sent.insert(sent.end(), batch.begin(), batch.end());
    mux.send(7, batch);
  }
  EXPECT_EQ(demux.pump(), sent.size());
  EXPECT_EQ(sink.codes[7], sent);
  EXPECT_EQ(mux.codes_sent(), sent.size());
  EXPECT_EQ(mux.bytes_sent(), demux.bytes_received());
  EXPECT_EQ(demux.crc_errors(), 0u);
  EXPECT_EQ(demux.resync_bytes(), 0u);
  const auto& stats = demux.channel_stats(7);
  EXPECT_EQ(stats.codes_delivered, sent.size());
  EXPECT_EQ(stats.lost_envelopes, 0u);
  EXPECT_EQ(demux.link_stats(7).frames_ok, stats.frames_decoded);
  EXPECT_EQ(demux.link_stats(7).lost_frames, 0u);
}

TEST(GatewayRoundtrip, ChunksLargeBatchesIntoMaxSizeFrames) {
  LoopbackTransport wire;
  GatewayMux mux{wire};
  GatewayDemux demux{wire};
  mux.open_channel(1);
  demux.open_channel(1);
  Sink sink;
  sink.attach(demux);

  Rng rng{0xC4A};
  const auto batch = random_codes(rng, 200);  // → 80 + 80 + 40
  mux.send(1, batch);
  EXPECT_EQ(mux.frames_muxed(), 3u);
  (void)demux.pump();
  EXPECT_EQ(sink.codes[1], batch);
  ASSERT_EQ(sink.frames[1].size(), 3u);
  EXPECT_EQ(sink.frames[1][0].size(), core::kMaxSamplesPerFrame);
  EXPECT_EQ(sink.frames[1][2].size(), 40u);
}

TEST(GatewayRoundtrip, UnknownChannelIsCountedNeverMisrouted) {
  LoopbackTransport wire;
  GatewayMux mux{wire};
  GatewayDemux demux{wire};
  mux.open_channel(1);
  mux.open_channel(2);
  demux.open_channel(1);  // channel 2 unknown to the receiver
  Sink sink;
  sink.attach(demux);

  Rng rng{0xBEEF};
  const auto a = random_codes(rng, 32);
  const auto b = random_codes(rng, 32);
  mux.send(1, a);
  mux.send(2, b);
  (void)demux.pump();
  EXPECT_EQ(sink.codes[1], a);
  EXPECT_EQ(sink.codes.count(2), 0u);
  EXPECT_EQ(demux.unknown_channel_envelopes(), 1u);
  EXPECT_THROW((void)mux.send(3, a), std::out_of_range);
}

// The satellite property test: ≥3 interleaved sessions driven through the
// 16-bit frame-sequence wrap on one shared wire. Channel isolation must be
// total — per-channel codes byte-exact, per-channel LinkStats clean (the
// wrap never misread as a 65535-frame gap, no cross-contamination between
// the interleaved streams).
TEST(GatewayWraparound, InterleavedChannelsSurviveSequenceWrap) {
  LoopbackTransport wire{1 << 22};
  GatewayMux mux{wire};
  GatewayDemux demux{wire};
  constexpr std::uint32_t kChannels = 3;
  constexpr std::size_t kFrames = 65536 + 96;  // per channel, through the wrap
  for (std::uint32_t c = 0; c < kChannels; ++c) {
    mux.open_channel(c);
    demux.open_channel(c);
  }
  // Checks run streaming (not accumulate-then-compare) to keep memory flat:
  // every delivered code must equal the deterministic per-channel pattern at
  // that channel's own cursor.
  std::vector<std::uint64_t> cursor(kChannels, 0);
  std::uint64_t mismatches = 0;
  demux.on_codes([&](std::uint32_t id, std::span<const std::int16_t> codes) {
    for (const std::int16_t code : codes) {
      const auto expect = static_cast<std::int16_t>(
          (static_cast<std::int64_t>(id) * 701 + cursor[id]) % 2048);
      if (code != expect) ++mismatches;
      ++cursor[id];
    }
  });

  Rng rng{0x57A9};
  std::vector<std::uint64_t> produced(kChannels, 0);
  std::vector<std::int16_t> batch;
  bool pending = false;
  while (produced[0] < kFrames || produced[1] < kFrames || produced[2] < kFrames) {
    // Interleave: a random channel ships a random number of 1-sample frames,
    // so wire order mixes the three sequence spaces thoroughly.
    const std::uint32_t c = static_cast<std::uint32_t>(rng.uniform_below(kChannels));
    if (produced[c] >= kFrames) continue;
    const std::size_t burst =
        std::min<std::size_t>(1 + rng.uniform_below(256), kFrames - produced[c]);
    for (std::size_t i = 0; i < burst; ++i) {
      batch.assign(1, static_cast<std::int16_t>(
                          (static_cast<std::int64_t>(c) * 701 + produced[c]) % 2048));
      mux.send(c, batch);
      ++produced[c];
    }
    pending = true;
    if (rng.uniform_below(4) == 0) {
      (void)demux.pump();
      pending = false;
    }
  }
  if (pending) (void)demux.pump();

  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(demux.crc_errors(), 0u);
  EXPECT_EQ(demux.resync_bytes(), 0u);
  for (std::uint32_t c = 0; c < kChannels; ++c) {
    EXPECT_EQ(cursor[c], kFrames) << "channel " << c;
    const auto& stats = demux.channel_stats(c);
    EXPECT_EQ(stats.frames_decoded, kFrames) << "channel " << c;
    EXPECT_EQ(stats.lost_envelopes, 0u) << "channel " << c;
    const auto& link = demux.link_stats(c);
    EXPECT_EQ(link.frames_ok, kFrames) << "channel " << c;
    EXPECT_EQ(link.lost_frames, 0u)
        << "channel " << c << ": wrap misread as a sequence gap";
    EXPECT_EQ(link.crc_errors, 0u) << "channel " << c;
    EXPECT_EQ(link.resyncs, 0u) << "channel " << c;
  }
}

// Wire corruption (every LinkFaultInjector class: drop, bit flips,
// truncation, prepended garbage) may lose envelopes but must never deliver
// a wrong sample: every delivered frame is byte-exact one of the sent
// frames, in order.
TEST(GatewayCorruption, CorruptEnvelopesNeverDeliverAWrongSample) {
  LoopbackTransport sender_side;  // staging queue the harness corrupts
  LoopbackTransport receiver_side;
  GatewayMux mux{sender_side};
  GatewayDemux demux{receiver_side};
  constexpr std::uint32_t kChannels = 3;
  Sink sink;
  sink.attach(demux);
  std::map<std::uint32_t, std::vector<std::vector<std::int16_t>>> ground_truth;
  for (std::uint32_t c = 0; c < kChannels; ++c) {
    mux.open_channel(c);
    demux.open_channel(c);
  }

  Rng rng{0xFA7A1};
  core::LinkFaultInjector injector{core::LinkFaultConfig{}, 0xD06};
  constexpr std::size_t kRounds = 400;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::uint32_t c = static_cast<std::uint32_t>(rng.uniform_below(kChannels));
    const auto batch = random_codes(rng, 1 + rng.uniform_below(80));
    ground_truth[c].push_back(batch);
    mux.send(c, batch);
    // Pull the envelope back off the staging queue and corrupt it on the way
    // to the receiver. drop_oldest returns whole envelopes, so the harness
    // corrupts exactly what the wire carried.
    auto envelope = sender_side.drop_oldest();
    ASSERT_FALSE(envelope.empty());
    (void)injector.corrupt(envelope);
    if (!envelope.empty()) ASSERT_TRUE(receiver_side.try_send(envelope));
    (void)demux.pump();
  }

  EXPECT_GT(injector.frames_corrupted(), 0u);
  std::uint64_t losses = 0;
  for (std::uint32_t c = 0; c < kChannels; ++c) {
    // Every delivered frame must match the next not-yet-matched sent frame:
    // an ordered subsequence, never an altered or reordered one.
    std::size_t cursor = 0;
    for (const auto& got : sink.frames[c]) {
      bool matched = false;
      while (cursor < ground_truth[c].size()) {
        if (ground_truth[c][cursor++] == got) {
          matched = true;
          break;
        }
        ++losses;
      }
      ASSERT_TRUE(matched) << "channel " << c
                           << " delivered a frame that was never sent";
    }
    losses += ground_truth[c].size() - cursor;
  }
  EXPECT_GT(losses, 0u) << "injector corrupted frames yet nothing was lost";
  // Losses are *accounted*: corrupt envelopes surfaced as CRC errors or
  // resync bytes, vanished ones as per-channel sequence gaps.
  std::uint64_t lost_envelopes = 0;
  for (std::uint32_t c = 0; c < kChannels; ++c) {
    lost_envelopes += demux.channel_stats(c).lost_envelopes;
  }
  EXPECT_GT(demux.crc_errors() + demux.resync_bytes() + lost_envelopes, 0u);
}

TEST(GatewayBackpressure, DropOldestAccountsShedCodesExactly) {
  // Capacity of ~4 one-frame envelopes; the 5th send must shed the oldest.
  LoopbackTransport wire{4 * envelope_wire_bytes(core::frame_wire_bytes(16))};
  GatewayConfig config;
  config.wire_policy = BackpressurePolicy::kDropOldest;
  GatewayMux mux{wire, config};
  GatewayDemux demux{wire};
  mux.open_channel(1);
  demux.open_channel(1);
  Sink sink;
  sink.attach(demux);

  Rng rng{0xD20};
  constexpr std::size_t kBatches = 64;
  constexpr std::size_t kBatch = 16;
  // Prime the channel (deliver envelope 0) so every later shed lands as a
  // counted sequence gap, then saturate the wire without pumping.
  mux.send(1, random_codes(rng, kBatch));
  (void)demux.pump();
  for (std::size_t i = 0; i < kBatches; ++i) {
    mux.send(1, random_codes(rng, kBatch));  // no pump: the wire saturates
  }
  (void)demux.pump();

  EXPECT_GT(mux.envelopes_dropped(), 0u);
  EXPECT_EQ(mux.codes_sent(), (kBatches + 1) * kBatch);
  // The exact-accounting contract: sent == delivered + dropped, with the
  // dropped count taken from the shed envelopes' own headers.
  EXPECT_EQ(sink.codes[1].size() + mux.codes_dropped(), (kBatches + 1) * kBatch);
  // Sheds drop whole envelopes oldest-first; with the channel primed, every
  // shed envelope shows up as exactly one counted sequence gap.
  EXPECT_EQ(demux.channel_stats(1).lost_envelopes, mux.envelopes_dropped());
  EXPECT_EQ(mux.backpressure_blocks(), 0u);
}

TEST(GatewayBackpressure, BlockPolicyLosesNothingWithAConcurrentConsumer) {
  // One envelope of capacity: every second send must wait for the consumer.
  LoopbackTransport wire{envelope_wire_bytes(core::frame_wire_bytes(16))};
  GatewayMux mux{wire};  // default kBlock
  GatewayDemux demux{wire};
  mux.open_channel(1);
  demux.open_channel(1);
  std::vector<std::int16_t> delivered;
  demux.on_codes([&](std::uint32_t, std::span<const std::int16_t> codes) {
    delivered.insert(delivered.end(), codes.begin(), codes.end());
  });

  Rng rng{0xB10C};
  std::vector<std::int16_t> sent;
  constexpr std::size_t kBatches = 200;
  std::atomic<bool> done{false};
  std::thread consumer{[&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)demux.pump();
      std::this_thread::yield();
    }
    (void)demux.pump();
  }};
  for (std::size_t i = 0; i < kBatches; ++i) {
    const auto batch = random_codes(rng, 16);
    sent.insert(sent.end(), batch.begin(), batch.end());
    mux.send(1, batch);
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(mux.codes_dropped(), 0u);
  EXPECT_EQ(mux.envelopes_dropped(), 0u);
}

// The observability satellite's regression: disabling the metrics registry
// must not change a single delivered byte or accounting value.
TEST(GatewayMetrics, MetricsOnOffIsBitExact) {
  auto run = [](bool metrics_on) {
    metrics::set_enabled(metrics_on);
    LoopbackTransport wire;
    GatewayMux mux{wire};
    GatewayDemux demux{wire};
    mux.open_channel(5);
    demux.open_channel(5);
    std::vector<std::int16_t> delivered;
    demux.on_codes([&](std::uint32_t, std::span<const std::int16_t> codes) {
      delivered.insert(delivered.end(), codes.begin(), codes.end());
    });
    Rng rng{0x3E7};
    for (int i = 0; i < 50; ++i) mux.send(5, random_codes(rng, 1 + rng.uniform_below(96)));
    (void)demux.pump();
    metrics::set_enabled(true);
    return std::make_tuple(delivered, mux.codes_sent(), mux.bytes_sent(),
                           demux.bytes_received(),
                           demux.channel_stats(5).frames_decoded);
  };
  EXPECT_EQ(run(true), run(false));
}

/// Runs a hospital whose sessions publish in-process (no wire) or through
/// the shipped per-shard gateway wiring, and returns the merged JSONL
/// snapshot bytes.
std::string run_hospital(std::size_t sessions, std::size_t shards, double duration_s,
                         std::optional<WireKind> wire_kind) {
  fleet::HospitalConfig config;
  config.shards = shards;
  config.base_seed = 77;
  fleet::HospitalScheduler hospital{config};
  std::unique_ptr<HospitalWire> wire;
  if (wire_kind) {
    wire = std::make_unique<HospitalWire>(hospital, sessions,
                                          HospitalWireConfig{.kind = *wire_kind});
  }
  for (std::size_t i = 0; i < sessions; ++i) {
    fleet::SessionConfig sc;
    if (i % 2 == 1) sc.scenario = "exercise";
    (void)(wire ? wire->admit(std::move(sc)) : hospital.admit(std::move(sc)));
  }
  hospital.run(duration_s);
  if (wire) {
    const WireStats stats = wire->stats();
    EXPECT_GT(stats.codes_sent, 0u);
    EXPECT_EQ(stats.delivery_drops, 0u);
  }
  std::ostringstream os;
  hospital.export_jsonl(os);
  return os.str();
}

// The tentpole determinism contract: a loopback-gateway hospital produces
// snapshot bytes identical to direct in-process ingest — the wire adds
// latency, never different bytes.
TEST(GatewayFleet, LoopbackIngestIsBitIdenticalToDirect) {
  const std::string direct = run_hospital(4, 2, 1.0, std::nullopt);
  const std::string gateway = run_hospital(4, 2, 1.0, WireKind::kLoopback);
  EXPECT_FALSE(direct.empty());
  EXPECT_EQ(direct, gateway);
}

// The same contract over real localhost sockets: TCP preserves order and
// loses nothing, so the hospital consumes the same bytes.
TEST(GatewayFleet, TcpIngestIsBitIdenticalToDirect) {
  std::string gateway;
  try {
    gateway = run_hospital(4, 2, 1.0, WireKind::kTcp);
  } catch (const TransportError& e) {
    GTEST_SKIP() << "localhost sockets unavailable: " << e.what();
  }
  EXPECT_EQ(run_hospital(4, 2, 1.0, std::nullopt), gateway);
}

TEST(GatewayTcp, LocalhostRoundtripDeliversEveryCode) {
  std::unique_ptr<TcpListener> listener;
  std::unique_ptr<TcpTransport> tx;
  std::unique_ptr<TcpTransport> rx;
  try {
    listener = std::make_unique<TcpListener>();
    tx = TcpTransport::connect("127.0.0.1", listener->port());
    rx = listener->accept();
  } catch (const TransportError& e) {
    GTEST_SKIP() << "localhost sockets unavailable: " << e.what();
  }
  GatewayMux mux{*tx};
  GatewayDemux demux{*rx};
  mux.open_channel(3);
  mux.open_channel(4);
  demux.open_channel(3);
  demux.open_channel(4);
  Sink sink;
  sink.attach(demux);

  Rng rng{0x7C9};
  std::map<std::uint32_t, std::vector<std::int16_t>> sent;
  for (int round = 0; round < 50; ++round) {
    const std::uint32_t c = 3 + static_cast<std::uint32_t>(rng.uniform_below(2));
    const auto batch = random_codes(rng, 1 + rng.uniform_below(80));
    sent[c].insert(sent[c].end(), batch.begin(), batch.end());
    mux.send(c, batch);
  }
  ASSERT_TRUE(demux.pump_until_bytes(mux.bytes_sent()));
  EXPECT_EQ(sink.codes[3], sent[3]);
  EXPECT_EQ(sink.codes[4], sent[4]);
  EXPECT_EQ(demux.crc_errors(), 0u);
  EXPECT_EQ(demux.channel_stats(3).lost_envelopes, 0u);
  EXPECT_EQ(demux.channel_stats(4).lost_envelopes, 0u);
  tx->close();
  rx->close();
}

}  // namespace
}  // namespace tono::gateway
