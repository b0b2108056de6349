// Recorder/Replay tests: record→replay byte identity, torn-tail and
// corrupt-record truncation, index round trip and the killed-recording
// fallback, and the end-to-end contract — a replayed hospital consumes the
// byte-identical code stream the recorded one did (docs/GATEWAY.md).
#include "src/gateway/recorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/common/rng.hpp"
#include "src/core/telemetry.hpp"
#include "src/fleet/hospital_scheduler.hpp"
#include "src/gateway/hospital_wire.hpp"

namespace tono::gateway {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "tono_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::int16_t> random_codes(Rng& rng, std::size_t n) {
  std::vector<std::int16_t> v(n);
  for (auto& s : v) {
    s = static_cast<std::int16_t>(
        static_cast<std::int64_t>(rng.uniform_below(4096)) - 2048);
  }
  return v;
}

TEST(Recorder, RecordReplayByteIdentity) {
  const std::string dir = fresh_dir("rec_roundtrip");
  Rng rng{0x4EC0};
  core::FrameEncoder enc;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint16_t> counts;
  {
    SessionRecorder rec{dir};
    rec.open_session(9);
    for (int i = 0; i < 40; ++i) {
      const auto codes = random_codes(rng, 1 + rng.uniform_below(80));
      frames.push_back(enc.encode(codes));
      counts.push_back(static_cast<std::uint16_t>(codes.size()));
      rec.record(9, frames.back(), counts.back());
    }
    RecordMeta meta;
    meta.base_seed = 42;
    meta.sessions = 1;
    meta.frames_per_step = 64;
    meta.duration_s = 1.5;
    ASSERT_TRUE(rec.finalize(meta));
    EXPECT_EQ(rec.frames_recorded(), frames.size());
  }

  SessionReplayer replay{dir, 9};
  std::vector<std::uint8_t> frame;
  std::uint16_t n_codes = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(replay.next(frame, n_codes)) << "record " << i;
    EXPECT_EQ(frame, frames[i]) << "record " << i;
    EXPECT_EQ(n_codes, counts[i]) << "record " << i;
  }
  EXPECT_FALSE(replay.next(frame, n_codes));
  EXPECT_FALSE(replay.truncated());
  EXPECT_EQ(replay.frames_read(), frames.size());

  const auto totals = SessionReplayer::scan(dir, 9);
  EXPECT_EQ(totals.frames, frames.size());
  EXPECT_EQ(totals.codes, replay.codes_read());
  EXPECT_FALSE(totals.torn);

  const auto index = read_record_index(dir);
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(index->meta.base_seed, 42u);
  EXPECT_EQ(index->meta.sessions, 1u);
  EXPECT_EQ(index->meta.frames_per_step, 64u);
  EXPECT_EQ(index->meta.duration_s, 1.5);
  ASSERT_EQ(index->sessions.size(), 1u);
  EXPECT_EQ(index->sessions[0].id, 9u);
  EXPECT_EQ(index->sessions[0].frames, frames.size());
}

TEST(Recorder, TornTailIsTruncatedCleanly) {
  const std::string dir = fresh_dir("rec_torn");
  Rng rng{0x7042};
  core::FrameEncoder enc;
  constexpr std::size_t kFrames = 12;
  {
    SessionRecorder rec{dir};
    rec.open_session(0);
    for (std::size_t i = 0; i < kFrames; ++i) {
      rec.record(0, enc.encode(random_codes(rng, 16)), 16);
    }
    // No finalize: this recording dies here, like a SIGKILLed server.
  }
  // Simulate the kill landing mid-append: a partial record header at the
  // tail.
  {
    std::ofstream out{SessionRecorder::session_file(dir, 0),
                      std::ios::binary | std::ios::app};
    const char torn[7] = {0x20, 0, 0, 0, 0x10, 0, 0};
    out.write(torn, sizeof torn);
  }
  EXPECT_FALSE(read_record_index(dir).has_value());  // killed → no index
  SessionReplayer replay{dir, 0};
  std::vector<std::uint8_t> frame;
  std::uint16_t n_codes = 0;
  std::size_t replayed = 0;
  while (replay.next(frame, n_codes)) ++replayed;
  EXPECT_EQ(replayed, kFrames) << "complete records before the tear must survive";
  EXPECT_TRUE(replay.truncated());
  EXPECT_TRUE(SessionReplayer::scan(dir, 0).torn);
}

TEST(Recorder, CorruptMidFileRecordEndsTheStreamThere) {
  const std::string dir = fresh_dir("rec_corrupt");
  Rng rng{0xC0DE};
  core::FrameEncoder enc;
  constexpr std::size_t kFrames = 10;
  {
    SessionRecorder rec{dir};
    rec.open_session(3);
    for (std::size_t i = 0; i < kFrames; ++i) {
      rec.record(3, enc.encode(random_codes(rng, 8)), 8);
    }
  }
  // Flip one payload byte in the 6th record; its FNV checksum must catch it.
  const std::string path = SessionRecorder::session_file(dir, 3);
  auto bytes = read_file_bytes(path);
  const std::size_t record_bytes = 16 + core::frame_wire_bytes(8);
  const std::size_t offset = 12 + 5 * record_bytes + 16 + 3;  // 6th payload
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x40;
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  SessionReplayer replay{dir, 3};
  std::vector<std::uint8_t> frame;
  std::uint16_t n_codes = 0;
  std::size_t replayed = 0;
  while (replay.next(frame, n_codes)) ++replayed;
  EXPECT_EQ(replayed, 5u) << "records before the corruption replay intact";
  EXPECT_TRUE(replay.truncated());
}

TEST(Recorder, ListSessionsFindsEveryRecordFile) {
  const std::string dir = fresh_dir("rec_list");
  core::FrameEncoder enc;
  Rng rng{0x115 + 0};
  SessionRecorder rec{dir};
  for (const std::uint32_t id : {0u, 2u, 5u}) {
    rec.open_session(id);
    rec.record(id, enc.encode(random_codes(rng, 4)), 4);
  }
  EXPECT_EQ(SessionReplayer::list_sessions(dir),
            (std::vector<std::uint32_t>{0u, 2u, 5u}));
  EXPECT_TRUE(SessionReplayer::list_sessions(dir + "_nope").empty());
}

/// Gateway-fed hospital through the shipped wiring (HospitalWire): live
/// mode produces through the wire and records into `record_dir`; replay
/// mode feeds the recording back up to `horizon`. Returns the delivered code
/// stream per session.
std::map<std::uint32_t, std::vector<std::int16_t>> run_hospital(
    const std::string& record_dir, const ReplayHorizon* horizon, double duration_s,
    std::uint64_t* consumed = nullptr) {
  constexpr std::size_t kSessions = 2;
  fleet::HospitalConfig config;
  config.shards = 1;
  config.base_seed = 909;
  fleet::HospitalScheduler hospital{config};
  HospitalWireConfig wire_config;
  if (horizon != nullptr) {
    wire_config.replay_dir = record_dir;
    wire_config.replay_codes_per_session = horizon->codes_per_session;
  } else {
    wire_config.record_dir = record_dir;
  }
  HospitalWire wire{hospital, kSessions, wire_config};
  std::map<std::uint32_t, std::vector<std::int16_t>> delivered;
  wire.on_delivery([&](std::uint32_t id, std::span<const std::int16_t> codes) {
    delivered[id].insert(delivered[id].end(), codes.begin(), codes.end());
  });
  for (std::size_t i = 0; i < kSessions; ++i) {
    fleet::SessionConfig sc;
    if (i % 2 == 1) sc.scenario = "exercise";
    (void)wire.admit(std::move(sc));
  }
  hospital.run(duration_s);
  EXPECT_TRUE(wire.finalize_recording(duration_s));
  if (consumed != nullptr) *consumed = hospital.snapshot().codes_consumed;
  return delivered;
}

// The record→replay determinism contract, end to end: a hospital replaying
// a recording ingests the byte-identical per-session code stream the
// recorded run consumed, and the ward consumes the same code count.
TEST(Replay, HospitalReplayReproducesTheConsumedStream) {
  const std::string dir = fresh_dir("rec_hospital");
  std::uint64_t live_consumed = 0;
  const auto live = run_hospital(dir, nullptr, 0.5, &live_consumed);
  ASSERT_EQ(live.size(), 2u);
  for (const auto& [id, codes] : live) {
    EXPECT_GE(codes.size(), 500u) << "session " << id;
  }

  const ReplayHorizon horizon = replay_horizon(dir, 1);
  ASSERT_TRUE(horizon.index.has_value());
  std::uint64_t replay_consumed = 0;
  const auto replayed =
      run_hospital(dir, &horizon, horizon.duration_s(), &replay_consumed);
  ASSERT_EQ(replayed.size(), live.size());
  for (const auto& [id, codes] : live) {
    EXPECT_EQ(replayed.at(id), codes) << "session " << id;
  }
  EXPECT_EQ(replay_consumed, live_consumed);
}

}  // namespace
}  // namespace tono::gateway
