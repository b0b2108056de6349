// Seeded mutation fuzz of checkpoint restores: the noise path (Rng,
// DeltaSigmaModulator, ModulatorBank) and the link's FrameDecoder. Each
// round takes a valid payload, mutates it (bit flips, random bytes,
// truncation, insertion, duplicated or deleted ranges), re-frames it with a
// valid checksum so the mutation reaches the field readers, and restores it
// into a freshly built object.
// The invariant: every mutated payload either throws CheckpointError or
// round-trips exactly (serializing the restored object gives the mutated
// bytes back). Nothing else may escape, and a restored object must still
// step.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/analog/modulator.hpp"
#include "src/analog/modulator_bank.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/rng.hpp"
#include "src/core/telemetry.hpp"
#include "tests/fuzz_mutate.hpp"

namespace tono {
namespace {

constexpr std::uint32_t kVersion = 1;

using Bytes = std::vector<std::uint8_t>;

/// The payload of a framed blob (everything after the frame header).
Bytes payload_of(const CheckpointWriter& out) {
  const Bytes blob = out.finish(kVersion);
  return Bytes(blob.end() - static_cast<std::ptrdiff_t>(out.bytes_written()),
               blob.end());
}

Bytes frame(const Bytes& payload) {
  CheckpointWriter out;
  for (const std::uint8_t b : payload) out.u8(b);
  return out.finish(kVersion);
}

/// Runs `rounds` mutations of `clean`. `restore_roundtrip` builds a fresh
/// object, restores the blob (consuming all of it), steps the object and
/// returns the payload it serializes back.
void fuzz(const Bytes& clean, std::uint64_t seed, int rounds,
          const std::function<Bytes(CheckpointReader&)>& restore_roundtrip) {
  Rng rng{seed};
  int restored = 0;
  int rejected = 0;
  for (int round = 0; round < rounds; ++round) {
    const Bytes mutated = mutate(clean, rng);
    const Bytes blob = frame(mutated);
    Bytes again;
    try {
      CheckpointReader in{blob};
      in.require_version(kVersion);
      again = restore_roundtrip(in);
    } catch (const CheckpointError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "round " << round << ": non-checkpoint exception: " << e.what();
    }
    ++restored;
    ASSERT_EQ(again, mutated) << "round " << round << " restored but did not round-trip";
  }
  // Both outcomes must actually occur, or the fuzz exercises nothing.
  EXPECT_GT(restored, 0);
  EXPECT_GT(rejected, 0);
}

TEST(CheckpointFuzz, RngRestoreThrowsOrRoundTrips) {
  Rng original{77};
  for (int i = 0; i < 9; ++i) (void)original.gaussian();
  CheckpointWriter out;
  original.serialize(out);
  fuzz(payload_of(out), 0xF122u, 3000, [](CheckpointReader& in) {
    Rng rng{1};
    rng.restore(in);
    in.expect_end();
    CheckpointWriter back;
    rng.serialize(back);
    for (int i = 0; i < 64; ++i) (void)rng.gaussian();
    return payload_of(back);
  });
}

TEST(CheckpointFuzz, ModulatorRestoreThrowsOrRoundTrips) {
  analog::ModulatorConfig config;
  config.opamp1.flicker_corner_hz = 1000.0;  // both pink-noise sections live
  analog::DeltaSigmaModulator original{config};
  std::vector<int> bits(300);
  original.step_capacitive_block(104e-15, 100e-15, bits.data(), bits.size());
  CheckpointWriter out;
  original.serialize(out);
  fuzz(payload_of(out), 0xF123u, 3000, [&](CheckpointReader& in) {
    analog::DeltaSigmaModulator mod{config};
    mod.restore(in);
    in.expect_end();
    CheckpointWriter back;
    mod.serialize(back);
    std::vector<int> step(128);
    mod.step_capacitive_block(104e-15, 100e-15, step.data(), step.size());
    return payload_of(back);
  });
}

TEST(CheckpointFuzz, ModulatorBankRestoreThrowsOrRoundTrips) {
  analog::ModulatorConfig base;
  analog::ModulatorBank original{base, 5};
  const std::vector<double> c_sense(5, 103e-15);
  const std::vector<double> c_ref(5, 100e-15);
  std::vector<int> bits(5 * 200);
  original.set_lane_enabled(3, false);
  original.step_capacitive_block(c_sense.data(), c_ref.data(), bits.data(), 200);
  CheckpointWriter out;
  original.serialize(out);
  fuzz(payload_of(out), 0xF124u, 1500, [&](CheckpointReader& in) {
    analog::ModulatorBank bank{base, 5};
    bank.restore(in);
    in.expect_end();
    CheckpointWriter back;
    bank.serialize(back);
    bank.step_capacitive_block(c_sense.data(), c_ref.data(), bits.data(), 200);
    return payload_of(back);
  });
}

/// A decoder holding the first 127 bytes of a maximum-size frame: the
/// longest buffer a push can leave behind.
CheckpointWriter longest_partial_frame_decoder() {
  core::FrameEncoder enc;
  core::FrameDecoder dec;
  const std::vector<std::int16_t> codes(core::kMaxSamplesPerFrame, -7);
  (void)dec.push(enc.encode(codes));
  auto partial = enc.encode(codes);
  partial.pop_back();
  EXPECT_TRUE(dec.push(partial).empty());
  CheckpointWriter out;
  dec.serialize(out);
  return out;
}

TEST(CheckpointFuzz, FrameDecoderRestoreThrowsOrRoundTrips) {
  const CheckpointWriter out = longest_partial_frame_decoder();
  core::FrameEncoder enc;
  const auto next = enc.encode(std::vector<std::int16_t>(12, 5));
  fuzz(payload_of(out), 0xF125u, 3000, [&](CheckpointReader& in) {
    core::FrameDecoder dec;
    dec.restore(in);
    in.expect_end();
    CheckpointWriter back;
    dec.serialize(back);
    (void)dec.push(next);
    return payload_of(back);
  });
}

// The buffered length is read from the blob: a length no push leaves behind
// is rejected even when the blob holds that many bytes, and a length the
// blob does not hold fails on the reads.
TEST(CheckpointFuzz, FrameDecoderRestoreRejectsMoreThanAPushLeaves) {
  const auto decoder_blob = [](std::size_t claimed, std::size_t held) {
    CheckpointWriter out;
    out.section("frame_decoder");
    out.size(claimed);
    for (std::size_t i = 0; i < held; ++i) out.u8(0x5A);
    for (int i = 0; i < 4; ++i) out.size(0);
    out.boolean(false);
    out.u16(0);
    return out.finish(kVersion);
  };
  const std::size_t max_frame = core::frame_wire_bytes(core::kMaxSamplesPerFrame);
  for (const std::size_t n : {max_frame, std::size_t{4096}}) {
    const Bytes blob = decoder_blob(n, n);
    CheckpointReader in{blob};
    core::FrameDecoder dec;
    EXPECT_THROW(dec.restore(in), CheckpointError) << n;
  }
  {
    const Bytes blob = decoder_blob(100, 10);
    CheckpointReader in{blob};
    core::FrameDecoder dec;
    EXPECT_THROW(dec.restore(in), CheckpointError);
  }
  const Bytes blob = decoder_blob(max_frame - 1, max_frame - 1);
  CheckpointReader in{blob};
  core::FrameDecoder dec;
  dec.restore(in);
  in.expect_end();
}

}  // namespace
}  // namespace tono
