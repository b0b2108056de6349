// Tests for the FPGA→host frame protocol.
#include "src/core/telemetry.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/common/rng.hpp"

namespace tono::core {
namespace {

std::vector<std::int16_t> ramp(std::size_t n, std::int16_t start = -100) {
  std::vector<std::int16_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::int16_t>(start + 3 * i);
  return v;
}

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(msg), 0x29B1);
}

TEST(Crc16, EmptyIsInit) { EXPECT_EQ(crc16_ccitt({}), 0xFFFF); }

/// CRC-16/CCITT-FALSE straight from its definition: each byte enters the top
/// of the register and is divided out one bit at a time. The table-driven
/// crc16_ccitt must agree with it on every input.
std::uint16_t crc16_bitwise_reference(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>(crc ^ (static_cast<std::uint16_t>(byte) << 8));
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 0x8000) {
        crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
      } else {
        crc = static_cast<std::uint16_t>(crc << 1);
      }
    }
  }
  return crc;
}

TEST(Crc16, TableEqualsBitwiseReferenceOnEverySingleByte) {
  for (int b = 0; b < 256; ++b) {
    const auto byte = static_cast<std::uint8_t>(b);
    EXPECT_EQ(crc16_ccitt({&byte, 1}), crc16_bitwise_reference({&byte, 1})) << b;
  }
}

TEST(Crc16, TableEqualsBitwiseReferenceOnEveryLengthTo600) {
  tono::Rng rng{0xC2C16};
  for (std::size_t n = 0; n <= 600; ++n) {
    std::vector<std::uint8_t> random(n);
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.uniform_below(256));
    const std::vector<std::uint8_t> zeros(n, 0x00);
    const std::vector<std::uint8_t> ones(n, 0xFF);
    EXPECT_EQ(crc16_ccitt(random), crc16_bitwise_reference(random)) << n;
    EXPECT_EQ(crc16_ccitt(zeros), crc16_bitwise_reference(zeros)) << n;
    EXPECT_EQ(crc16_ccitt(ones), crc16_bitwise_reference(ones)) << n;
  }
}

TEST(Telemetry, RoundTripSingleFrame) {
  FrameEncoder enc;
  FrameDecoder dec;
  const auto samples = ramp(40);
  const auto wire = enc.encode(samples);
  const auto frames = dec.push(wire);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].samples, samples);
  EXPECT_EQ(frames[0].sequence, 0);
  EXPECT_EQ(dec.stats().frames_ok, 1u);
  EXPECT_EQ(dec.stats().crc_errors, 0u);
}

TEST(Telemetry, RoundTripNegativeAndExtremes) {
  FrameEncoder enc;
  FrameDecoder dec;
  const std::vector<std::int16_t> samples{-2048, 2047, 0, -1, 1, -1000, 1000};
  const auto frames = dec.push(enc.encode(samples));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].samples, samples);
}

TEST(Telemetry, OddSampleCountPadding) {
  FrameEncoder enc;
  FrameDecoder dec;
  for (std::size_t n : {1u, 3u, 5u, 7u, 79u}) {
    const auto samples = ramp(n);
    const auto frames = dec.push(enc.encode(samples));
    ASSERT_EQ(frames.size(), 1u) << n;
    EXPECT_EQ(frames[0].samples, samples) << n;
  }
}

TEST(Telemetry, SequenceIncrements) {
  FrameEncoder enc;
  FrameDecoder dec;
  for (int i = 0; i < 5; ++i) {
    const auto frames = dec.push(enc.encode(ramp(8)));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].sequence, i);
  }
  EXPECT_EQ(dec.stats().lost_frames, 0u);
}

TEST(Telemetry, ByteAtATimeDelivery) {
  FrameEncoder enc;
  FrameDecoder dec;
  const auto samples = ramp(17);
  const auto wire = enc.encode(samples);
  std::vector<DecodedFrame> got;
  for (std::uint8_t b : wire) {
    auto f = dec.push(std::span<const std::uint8_t>{&b, 1});
    for (auto& frame : f) got.push_back(std::move(frame));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].samples, samples);
}

TEST(Telemetry, MultipleFramesOneChunk) {
  FrameEncoder enc;
  FrameDecoder dec;
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 4; ++i) {
    const auto f = enc.encode(ramp(10, static_cast<std::int16_t>(i * 10)));
    wire.insert(wire.end(), f.begin(), f.end());
  }
  const auto frames = dec.push(wire);
  EXPECT_EQ(frames.size(), 4u);
}

TEST(Telemetry, ResyncAfterGarbage) {
  FrameEncoder enc;
  FrameDecoder dec;
  std::vector<std::uint8_t> wire{0x00, 0xFF, 0xA5, 0x13, 0x42};  // noise w/ fake sync
  const auto good = enc.encode(ramp(12));
  wire.insert(wire.end(), good.begin(), good.end());
  const auto frames = dec.push(wire);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_GT(dec.stats().resyncs, 0u);
}

TEST(Telemetry, CrcErrorDetected) {
  FrameEncoder enc;
  FrameDecoder dec;
  auto wire = enc.encode(ramp(20));
  wire[10] ^= 0x04;  // flip a payload bit
  const auto frames = dec.push(wire);
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(dec.stats().crc_errors, 1u);
}

TEST(Telemetry, CorruptFrameThenCleanFrame) {
  FrameEncoder enc;
  FrameDecoder dec;
  auto bad = enc.encode(ramp(20));
  bad[8] ^= 0xFF;
  auto good = enc.encode(ramp(20));
  std::vector<std::uint8_t> wire(bad);
  wire.insert(wire.end(), good.begin(), good.end());
  const auto frames = dec.push(wire);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].sequence, 1);
}

TEST(Telemetry, LostFrameCounted) {
  FrameEncoder enc;
  FrameDecoder dec;
  const auto f0 = enc.encode(ramp(8));
  const auto f1 = enc.encode(ramp(8));  // dropped
  const auto f2 = enc.encode(ramp(8));
  (void)f1;
  (void)dec.push(f0);
  (void)dec.push(f2);
  EXPECT_EQ(dec.stats().lost_frames, 1u);
  EXPECT_EQ(dec.stats().frames_ok, 2u);
}

TEST(Telemetry, EncoderRejectsBadInput) {
  FrameEncoder enc;
  EXPECT_THROW((void)enc.encode({}), std::invalid_argument);
  const std::vector<std::int16_t> too_many(81, 0);
  EXPECT_THROW((void)enc.encode(too_many), std::invalid_argument);
  const std::vector<std::int16_t> out_of_range{3000};
  EXPECT_THROW((void)enc.encode(out_of_range), std::invalid_argument);
}

TEST(Telemetry, DecoderResetClearsState) {
  FrameEncoder enc;
  FrameDecoder dec;
  (void)dec.push(enc.encode(ramp(8)));
  dec.reset();
  EXPECT_EQ(dec.stats().frames_ok, 0u);
  // After reset the next frame (sequence 1) is not counted as a loss.
  (void)dec.push(enc.encode(ramp(8)));
  EXPECT_EQ(dec.stats().lost_frames, 0u);
}

TEST(Telemetry, FuzzRandomNoiseNeverCrashes) {
  FrameDecoder dec;
  tono::Rng rng{404};
  for (int chunk = 0; chunk < 200; ++chunk) {
    std::vector<std::uint8_t> noise(rng.uniform_below(64) + 1);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_below(256));
    EXPECT_NO_THROW((void)dec.push(noise));
  }
  // Random noise must essentially never produce a valid CRC frame.
  EXPECT_LE(dec.stats().frames_ok, 1u);
}

TEST(Telemetry, InterleavedGarbageStream) {
  FrameEncoder enc;
  FrameDecoder dec;
  tono::Rng rng{77};
  std::size_t sent = 0;
  for (int i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> junk(rng.uniform_below(10));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_below(256));
    (void)dec.push(junk);
    const auto frames = dec.push(enc.encode(ramp(16)));
    sent += 1;
    (void)frames;
  }
  // Junk between frames can corrupt at most the framing recovery, never the
  // accepted payloads; nearly all frames must come through.
  EXPECT_GE(dec.stats().frames_ok, sent - 2);
}

}  // namespace
}  // namespace tono::core
