// Seeded mutation fuzz of the noise-path checkpoint restores: Rng,
// DeltaSigmaModulator and ModulatorBank. Each round takes a valid payload,
// mutates it (bit flips, random bytes, truncation, insertion, duplicated or
// deleted ranges), re-frames it with a valid checksum so the mutation
// reaches the field readers, and restores it into a freshly built object.
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

Bytes mutate(Bytes p, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_below(n == 0 ? 1 : n));
  };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (pick(6)) {
      case 0:  // flip one bit
        if (!p.empty()) p[pick(p.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
        break;
      case 1:  // overwrite one byte
        if (!p.empty()) p[pick(p.size())] = static_cast<std::uint8_t>(pick(256));
        break;
      case 2:  // truncate
        p.resize(pick(p.size() + 1));
        break;
      case 3:  // insert random bytes
        p.insert(p.begin() + static_cast<std::ptrdiff_t>(pick(p.size() + 1)),
                 1 + pick(8), static_cast<std::uint8_t>(pick(256)));
        break;
      case 4: {  // delete a range
        if (p.empty()) break;
        const std::size_t at = pick(p.size());
        const std::size_t n = 1 + pick(std::min<std::size_t>(16, p.size() - at));
        p.erase(p.begin() + static_cast<std::ptrdiff_t>(at),
                p.begin() + static_cast<std::ptrdiff_t>(at + n));
        break;
      }
      default: {  // duplicate a range in place
        if (p.empty()) break;
        const std::size_t at = pick(p.size());
        const std::size_t n = 1 + pick(std::min<std::size_t>(16, p.size() - at));
        const Bytes range(p.begin() + static_cast<std::ptrdiff_t>(at),
                          p.begin() + static_cast<std::ptrdiff_t>(at + n));
        p.insert(p.begin() + static_cast<std::ptrdiff_t>(at), range.begin(),
                 range.end());
        break;
      }
    }
  }
  return p;
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

}  // namespace
}  // namespace tono
