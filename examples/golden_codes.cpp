// golden_codes — prints a deterministic transcript of converter output so CI
// can assert cross-compiler bit-identity (gcc and clang must produce
// byte-identical output; see the golden-compare job in ci.yml).
//
// Everything here is seeded and double-precision deterministic: with
// -ffp-contract=off pinned in the root CMakeLists, any diff between two
// builds means a real reordering/contraction of floating-point math crept
// into the hot path, not "benign" noise. The transcript covers the three
// determinism-critical paths: the scalar pipeline, block mode (noise-plan
// path), and the lockstep ModulatorBank — including a heterogeneous bank
// whose lanes run the step kernel at mixed widths, and a serial fleet shard
// that steps its sessions' modulators as lanes of one bank.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <vector>

#include "examples/session_mix.hpp"
#include "src/analog/modulator_bank.hpp"
#include "src/core/pipeline.hpp"
#include "src/fleet/fleet_scheduler.hpp"

namespace {

// FNV-1a over the raw ±1 bit sequence: compresses kilobits of modulator
// output into one line without losing sensitivity to any single bit.
std::uint64_t fnv1a_bits(const std::vector<int>& bits) {
  std::uint64_t h = 1469598103934665603ull;
  for (const int b : bits) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b > 0 ? 1 : 0));
    h *= 1099511628211ull;
  }
  return h;
}

// FNV-1a over 12-bit converter codes, two bytes each.
std::uint64_t fnv1a_codes(const std::vector<std::int16_t>& codes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::int16_t c : codes) {
    const auto u = static_cast<unsigned>(static_cast<std::uint16_t>(c));
    for (const unsigned byte : {u & 0xFFu, u >> 8u}) {
      h ^= byte;
      h *= 1099511628211ull;
    }
  }
  return h;
}

double pressure_at(double t_s) {
  return 9000.0 + 2500.0 * std::sin(2.0 * std::numbers::pi * 1.2 * t_s);
}

}  // namespace

int main() {
  using namespace tono;
  const core::ChipConfig chip = core::ChipConfig::paper_chip();

  // 1) Scalar pipeline: 16 output samples, field sampled every clock.
  {
    core::AcquisitionPipeline pipe{chip};
    const auto samples = pipe.acquire_uniform(pressure_at, 16);
    std::printf("pipeline_scalar\n");
    for (const auto& s : samples) std::printf("%lld\n", static_cast<long long>(s.code));
  }

  // 2) Block-mode pipeline (noise-plan path): 64 output samples.
  {
    core::AcquisitionPipeline pipe{chip};
    const auto samples = pipe.acquire_uniform_block(pressure_at, 64);
    std::printf("pipeline_block\n");
    for (const auto& s : samples) std::printf("%lld\n", static_cast<long long>(s.code));
  }

  // 3) ModulatorBank: 4 decorrelated lanes, 1024 lockstep clocks; one hash
  //    line per lane over the raw bitstream.
  {
    analog::ModulatorBank bank{chip.modulator, 4};
    const std::vector<double> c_sense{95e-15, 104e-15, 112e-15, 99e-15};
    const std::vector<double> c_ref(4, 100e-15);
    constexpr std::size_t kClocks = 1024;
    std::vector<int> bits(4 * kClocks);
    bank.step_capacitive_block(c_sense.data(), c_ref.data(), bits.data(), kClocks);
    std::printf("modulator_bank\n");
    for (std::size_t k = 0; k < 4; ++k) {
      const std::vector<int> lane(bits.begin() + static_cast<std::ptrdiff_t>(k * kClocks),
                                  bits.begin() + static_cast<std::ptrdiff_t>((k + 1) * kClocks));
      std::printf("lane%zu %016llx\n", k,
                  static_cast<unsigned long long>(fnv1a_bits(lane)));
    }
  }

  // 4) Parallel array readout: 4 elements × 8 frames under a gradient field.
  {
    core::ArrayAcquisition array{chip};
    const auto out = array.acquire_block(
        [](double x_m, double, double t_s) { return pressure_at(t_s) + 4.0e7 * x_m; }, 8);
    std::printf("array_acquisition\n");
    for (std::size_t k = 0; k < out.size(); ++k) {
      for (const auto& s : out[k]) {
        std::printf("%zu %lld\n", k, static_cast<long long>(s.code));
      }
    }
  }

  // 5) Heterogeneous ModulatorBank, 7 lanes: under AVX2, lanes 0–3 form one
  //    4-wide packet and lanes 4–6 run 1-wide; under NEON, 2-wide packets
  //    plus the flicker lane; under scalar dispatch every lane is 1-wide.
  //    Lane 4 has a wide metastable band (constant comparator plan resyncs),
  //    lane 6 has op-amp flicker (its own control structure). Two blocks,
  //    neither a multiple of the 128-clock plan frame.
  {
    std::vector<analog::ModulatorConfig> configs(7, chip.modulator);
    for (std::size_t k = 0; k < configs.size(); ++k) configs[k].seed += 101 * k;
    configs[4].comparator.metastable_band_v = 0.3;
    configs[6].opamp1.flicker_corner_hz = 1000.0;
    configs[6].opamp2.flicker_corner_hz = 500.0;
    analog::ModulatorBank bank{configs};
    // Inside the chip's ±5 fF full scale (C_fb1 = 5 fF).
    const std::vector<double> c_sense{98e-15, 101e-15, 102.5e-15, 99e-15,
                                      100.5e-15, 97.5e-15, 101.5e-15};
    const std::vector<double> c_ref(configs.size(), 100e-15);
    std::vector<std::vector<int>> lanes(configs.size());
    for (const std::size_t clocks : {std::size_t{333}, std::size_t{700}}) {
      std::vector<int> bits(configs.size() * clocks);
      bank.step_capacitive_block(c_sense.data(), c_ref.data(), bits.data(), clocks);
      for (std::size_t k = 0; k < configs.size(); ++k) {
        const auto begin = bits.begin() + static_cast<std::ptrdiff_t>(k * clocks);
        lanes[k].insert(lanes[k].end(), begin,
                        begin + static_cast<std::ptrdiff_t>(clocks));
      }
    }
    std::printf("mixed_width_bank\n");
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      std::printf("lane%zu %016llx clips %zu\n", k,
                  static_cast<unsigned long long>(fnv1a_bits(lanes[k])),
                  bank.lane(k).clip_count());
    }
  }

  // 6) Serial fleet shard: nine session_mix sessions on one FleetScheduler
  //    (one cohort, so every frame steps their modulators as lanes of one
  //    bank: two 4-wide packets plus a 1-wide lane under AVX2), admitted
  //    and run for 256 frames. One hash line per session's codes.
  {
    fleet::WardConfig ward_config;
    ward_config.record_codes = true;
    fleet::WardAggregator ward{ward_config};
    fleet::FleetScheduler shard{fleet::FleetConfig{}, ward};
    constexpr std::uint32_t kSessions = 9;
    for (std::uint32_t i = 0; i < kSessions; ++i) {
      (void)shard.admit(examples::session_mix(i));
    }
    for (int batch = 0; batch < 4; ++batch) (void)shard.step_all();
    std::printf("serial_shard\n");
    for (std::uint32_t id = 0; id < kSessions; ++id) {
      const auto& codes = ward.recorded_codes(id);
      std::printf("session%u %zu %016llx\n", id, codes.size(),
                  static_cast<unsigned long long>(fnv1a_codes(codes)));
    }
  }
  return 0;
}
