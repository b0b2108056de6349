// Seeded mutation fuzz of the two gateway-side readers of untrusted bytes:
// GatewayDemux over mutated envelope streams, and SessionReplayer over
// mutated record files. The invariants: neither crashes, neither hands on a
// sample that was not sent, and every loss is counted exactly — lost
// envelopes and frames per channel, CRC errors and resync bytes for the
// demux; an exact prefix of the recording, and a torn-stream flag whenever
// the file is not one, for the replayer.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/common/rng.hpp"
#include "src/core/telemetry.hpp"
#include "src/gateway/gateway.hpp"
#include "src/gateway/recorder.hpp"
#include "src/gateway/transport.hpp"
#include "tests/fuzz_mutate.hpp"

namespace tono::gateway {
namespace {

using Bytes = std::vector<std::uint8_t>;
using Codes = std::vector<std::int16_t>;

// No id holds the envelope sync pair C3 3C, so a clean stream has sync
// pairs only where envelopes start.
constexpr std::uint32_t kChannelIds[] = {3, 70000, 0x01020304};

/// Idle line after a stream: long enough that a header fabricated by a
/// mutation, which may claim the largest payload, resolves as a CRC error
/// instead of waiting for bytes that never come. Every idle byte but the
/// last (too short to hold a sync pair) is a counted resync.
constexpr std::size_t kIdleTail = envelope_wire_bytes(kMaxEnvelopePayload) + 1;

Codes random_codes(Rng& rng, std::size_t n) {
  Codes v(n);
  for (auto& s : v) {
    s = static_cast<std::int16_t>(static_cast<std::int64_t>(rng.uniform_below(4096)) - 2048);
  }
  return v;
}

struct SentEnvelope {
  std::uint32_t channel{0};
  Codes codes;
  Bytes wire;
};

/// `n` envelopes of 4–80 random codes (long enough that two frames of a
/// channel never coincide), each on a random channel, as the mux sent them.
std::vector<SentEnvelope> send_stream(Rng& rng, std::size_t n) {
  LoopbackTransport staging;
  GatewayMux mux{staging};
  for (const std::uint32_t id : kChannelIds) mux.open_channel(id);
  std::vector<SentEnvelope> sent(n);
  for (auto& e : sent) {
    e.channel = kChannelIds[rng.uniform_below(std::size(kChannelIds))];
    e.codes = random_codes(rng, 4 + rng.uniform_below(core::kMaxSamplesPerFrame - 3));
    mux.send(e.channel, e.codes);
    e.wire = staging.drop_oldest();
  }
  return sent;
}

/// A demux with every channel open, recording what it delivers.
struct Receiver {
  LoopbackTransport link;
  GatewayDemux demux{link};
  std::map<std::uint32_t, std::vector<Codes>> frames;
  std::uint64_t envelope_bytes{0};

  Receiver() {
    for (const std::uint32_t id : kChannelIds) demux.open_channel(id);
    demux.on_codes([this](std::uint32_t id, std::span<const std::int16_t> codes) {
      frames[id].emplace_back(codes.begin(), codes.end());
    });
    demux.on_envelope(
        [this](std::uint32_t, std::span<const std::uint8_t> payload, std::uint16_t) {
          envelope_bytes += envelope_wire_bytes(payload.size());
        });
  }

  /// Feeds `wire` and then the idle tail in random chunks, pumping each.
  void feed(Bytes wire, Rng& rng) {
    wire.insert(wire.end(), kIdleTail, 0x00);
    for (std::size_t pos = 0; pos < wire.size();) {
      const std::size_t n = std::min<std::size_t>(wire.size() - pos,
                                                  1 + rng.uniform_below(700));
      ASSERT_TRUE(link.try_send({wire.data() + pos, n}));
      (void)demux.pump();
      pos += n;
    }
  }
};

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

// Arbitrary edits anywhere in a multi-channel stream: bit flips, overwrites,
// a cut tail, inserted, deleted and duplicated ranges.
TEST(GatewayFuzz, MutatedStreamsDeliverOnlySentFramesAndCountEveryByte) {
  Rng rng{0x6A7EF022};
  std::size_t lossy_rounds = 0;
  for (int round = 0; round < 150; ++round) {
    const auto sent = send_stream(rng, 24);
    Bytes wire;
    for (const auto& e : sent) wire.insert(wire.end(), e.wire.begin(), e.wire.end());
    const std::size_t passes = 1 + rng.uniform_below(4);
    for (std::size_t i = 0; i < passes; ++i) wire = mutate(std::move(wire), rng);

    Receiver rx;
    rx.feed(wire, rng);
    const GatewayDemux& demux = rx.demux;
    ASSERT_EQ(demux.unknown_channel_envelopes(), 0u) << "round " << round;
    // Every byte is an accepted envelope's, a counted resync or CRC-error
    // step, or the one idle byte still buffered.
    ASSERT_EQ(demux.bytes_received(),
              rx.envelope_bytes + demux.resync_bytes() + demux.crc_errors() + 1)
        << "round " << round;

    std::size_t delivered = 0;
    for (const std::uint32_t id : kChannelIds) {
      std::vector<const Codes*> channel;
      for (const auto& e : sent) {
        if (e.channel == id) channel.push_back(&e.codes);
      }
      // Delivered frames are sent frames, in order, none twice; a frame's
      // index on its channel is its envelope sequence number.
      std::vector<std::size_t> matched;
      std::size_t cursor = 0;
      for (const Codes& got : rx.frames[id]) {
        while (cursor < channel.size() && *channel[cursor] != got) ++cursor;
        ASSERT_LT(cursor, channel.size())
            << "round " << round << " channel " << id << ": a frame that was never sent";
        matched.push_back(cursor++);
      }
      const std::uint64_t lost =
          matched.empty() ? 0 : matched.back() - matched.front() + 1 - matched.size();
      const ChannelStats& stats = demux.channel_stats(id);
      EXPECT_EQ(stats.envelopes_ok, matched.size()) << "round " << round;
      EXPECT_EQ(stats.frames_decoded, matched.size()) << "round " << round;
      EXPECT_EQ(stats.lost_envelopes, lost) << "round " << round << " channel " << id;
      const core::LinkStats& link = demux.link_stats(id);
      EXPECT_EQ(link.frames_ok, matched.size()) << "round " << round;
      EXPECT_EQ(link.lost_frames, lost) << "round " << round << " channel " << id;
      EXPECT_EQ(link.crc_errors, 0u) << "round " << round;
      EXPECT_EQ(link.resyncs, 0u) << "round " << round;
      delivered += matched.size();
    }
    if (delivered < sent.size()) ++lossy_rounds;
  }
  EXPECT_GT(lossy_rounds, 50u) << "the mutations must actually cost envelopes";
}

// One fault per envelope, each class with a known cost, so the harness can
// predict every counter: a dropped envelope is one lost envelope and frame
// on its channel; garbage before an envelope is one resync per byte; a bit
// flipped after the sync pair is one CRC error, or a resync when it spoils
// the version or zeroes the length, and then one resync per remaining byte.
TEST(GatewayFuzz, EachFaultClassIsCountedExactly) {
  enum class Fault { kClean, kDrop, kGarbage, kFlip };
  Rng rng{0xFA017C1A};
  int checked = 0;
  int skipped = 0;
  for (int scenario = 0; scenario < 120; ++scenario) {
    const auto sent = send_stream(rng, 30);
    std::map<std::uint32_t, std::size_t> first;
    std::map<std::uint32_t, std::size_t> last;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      first.try_emplace(sent[i].channel, i);
      last[sent[i].channel] = i;
    }

    Bytes wire;
    std::set<std::size_t> sync_at;  // where the harness put envelope starts
    std::uint64_t resyncs = kIdleTail - 1;
    std::uint64_t crc_errors = 0;
    std::map<std::uint32_t, std::uint64_t> lost;
    std::map<std::uint32_t, std::vector<Codes>> expected;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const SentEnvelope& e = sent[i];
      // A channel's first and last envelopes stay clean: a loss is only
      // observable between two delivered sequence numbers.
      const bool endpoint = i == first[e.channel] || i == last[e.channel];
      const auto fault = endpoint ? Fault::kClean : static_cast<Fault>(rng.uniform_below(4));
      if (fault == Fault::kDrop) {
        ++lost[e.channel];
        continue;
      }
      if (fault == Fault::kGarbage) {
        const std::size_t g = 1 + rng.uniform_below(12);
        for (std::size_t k = 0; k < g; ++k) {
          std::uint8_t b = 0;
          do {
            b = static_cast<std::uint8_t>(rng.uniform_below(256));
          } while (b == kEnvelopeSync0);
          wire.push_back(b);
        }
        resyncs += g;
      }
      sync_at.insert(wire.size());
      Bytes env = e.wire;
      if (fault == Fault::kFlip) {
        const std::size_t bit = 16 + rng.uniform_below(env.size() * 8 - 16);
        env[bit / 8] = static_cast<std::uint8_t>(env[bit / 8] ^ (1u << (bit % 8)));
        const bool resync = env[2] != kEnvelopeVersion || get_u16(env.data() + 13) == 0;
        (resync ? resyncs : crc_errors) += 1;
        resyncs += env.size() - 1;
        ++lost[e.channel];
      } else {
        expected[e.channel].push_back(e.codes);
      }
      wire.insert(wire.end(), env.begin(), env.end());
    }
    // A sync pair that a flip or the garbage made elsewhere would start a
    // parse whose cost depends on the bytes after it: not this test's case.
    bool stray_sync = false;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
      if (wire[i] == kEnvelopeSync0 && wire[i + 1] == kEnvelopeSync1 && !sync_at.count(i)) {
        stray_sync = true;
      }
    }
    if (stray_sync) {
      ++skipped;
      continue;
    }

    Receiver rx;
    rx.feed(wire, rng);
    ++checked;
    EXPECT_EQ(rx.demux.crc_errors(), crc_errors) << "scenario " << scenario;
    EXPECT_EQ(rx.demux.resync_bytes(), resyncs) << "scenario " << scenario;
    EXPECT_EQ(rx.demux.unknown_channel_envelopes(), 0u) << "scenario " << scenario;
    for (const std::uint32_t id : kChannelIds) {
      EXPECT_EQ(rx.frames[id], expected[id]) << "scenario " << scenario << " channel " << id;
      EXPECT_EQ(rx.demux.channel_stats(id).lost_envelopes, lost[id])
          << "scenario " << scenario << " channel " << id;
      EXPECT_EQ(rx.demux.link_stats(id).lost_frames, lost[id])
          << "scenario " << scenario << " channel " << id;
    }
  }
  EXPECT_GT(checked, 100) << skipped << " scenarios skipped for a stray sync pair";
}

// A session file with arbitrary edits, header included. The replayer either
// rejects the header or hands out an exact prefix of the recorded records,
// and it reports a torn stream unless the file is exactly such a prefix.
// What it hands out, shipped through the gateway, decodes to the recorded
// codes with no loss.
TEST(ReplayFuzz, MutatedRecordFilesReplayAnExactPrefix) {
  const std::string dir = testing::TempDir() + "tono_replay_fuzz";
  std::filesystem::remove_all(dir);
  constexpr std::uint32_t kSession = 5;
  Rng rng{0x4EF1A7};
  std::vector<Bytes> frames;
  std::vector<Codes> codes;
  {
    core::FrameEncoder enc;
    SessionRecorder rec{dir};
    rec.open_session(kSession);
    for (int i = 0; i < 20; ++i) {
      codes.push_back(random_codes(rng, 1 + rng.uniform_below(core::kMaxSamplesPerFrame)));
      frames.push_back(enc.encode(codes.back()));
      rec.record(kSession, frames.back(), static_cast<std::uint16_t>(codes.back().size()));
    }
  }
  const std::string path = SessionRecorder::session_file(dir, kSession);
  const Bytes original = read_file_bytes(path);
  std::vector<std::size_t> boundary{12};  // file size after k whole records
  for (const auto& f : frames) boundary.push_back(boundary.back() + 16 + f.size());
  ASSERT_EQ(boundary.back(), original.size());

  int rejected = 0;
  int torn = 0;
  int clean = 0;
  for (int round = 0; round < 600; ++round) {
    // The first rounds cut the file between records, as a kill between two
    // appends does: each cut is clean and replays its whole records.
    const auto r = static_cast<std::size_t>(round);
    const Bytes mutated =
        r < boundary.size()
            ? Bytes(original.begin(), original.begin() + static_cast<std::ptrdiff_t>(boundary[r]))
            : mutate(original, rng);
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out.write(reinterpret_cast<const char*>(mutated.data()),
                static_cast<std::streamsize>(mutated.size()));
    }
    std::vector<Bytes> got;
    std::vector<std::uint16_t> got_codes;
    bool truncated = false;
    try {
      SessionReplayer replayer{dir, kSession};
      Bytes frame;
      std::uint16_t n_codes = 0;
      while (replayer.next(frame, n_codes)) {
        got.push_back(frame);
        got_codes.push_back(n_codes);
      }
      truncated = replayer.truncated();
      EXPECT_EQ(replayer.frames_read(), got.size());
    } catch (const RecorderError&) {
      ++rejected;
      continue;
    }
    const std::size_t k = got.size();
    ASSERT_LE(k, frames.size()) << "round " << round;
    std::uint64_t sent_codes = 0;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(got[i], frames[i]) << "round " << round << " record " << i;
      ASSERT_EQ(got_codes[i], codes[i].size()) << "round " << round << " record " << i;
      sent_codes += got_codes[i];
    }
    if (truncated) {
      ++torn;
    } else {
      ++clean;
      ASSERT_EQ(mutated, Bytes(original.begin(),
                               original.begin() + static_cast<std::ptrdiff_t>(boundary[k])))
          << "round " << round << ": an altered file replayed as clean";
    }
    const auto totals = SessionReplayer::scan(dir, kSession);
    EXPECT_EQ(totals.frames, k) << "round " << round;
    EXPECT_EQ(totals.codes, sent_codes) << "round " << round;
    EXPECT_EQ(totals.torn, truncated) << "round " << round;

    LoopbackTransport link;
    GatewayMux mux{link};
    GatewayDemux demux{link};
    mux.open_channel(kSession);
    demux.open_channel(kSession);
    Codes delivered;
    demux.on_codes([&](std::uint32_t, std::span<const std::int16_t> c) {
      delivered.insert(delivered.end(), c.begin(), c.end());
    });
    Codes recorded;
    for (std::size_t i = 0; i < k; ++i) {
      mux.send_encoded(kSession, got[i], got_codes[i]);
      recorded.insert(recorded.end(), codes[i].begin(), codes[i].end());
    }
    (void)demux.pump();
    EXPECT_EQ(delivered, recorded) << "round " << round;
    EXPECT_EQ(mux.codes_sent(), sent_codes) << "round " << round;
    EXPECT_EQ(demux.link_stats(kSession).lost_frames, 0u) << "round " << round;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(torn, 300);
  EXPECT_GE(clean, static_cast<int>(boundary.size()));
}

}  // namespace
}  // namespace tono::gateway
