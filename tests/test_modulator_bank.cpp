// Tests for the vectorized lockstep modulator bank and the parallel array
// readout. The bank's SIMD kernel (AVX2/NEON, runtime-dispatched) must be
// invisible in every value these tests check: lane == solo bit-identity is
// asserted under whatever dispatch the build/CPU resolves, and dedicated
// tests pin vector == forced-scalar equality explicitly.
#include "src/analog/modulator_bank.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/common/simd.hpp"
#include "src/core/chip_config.hpp"
#include "src/core/pipeline.hpp"

namespace tono::analog {
namespace {

// The bank's core contract: lane k's bitstream and end state are
// bit-identical to running that lane's modulator alone.
void expect_lanes_match_solo(const std::vector<ModulatorConfig>& configs,
                             const std::vector<double>& c_sense,
                             const std::vector<double>& c_ref, std::size_t n) {
  const std::size_t lanes = configs.size();
  ModulatorBank bank{configs};
  std::vector<int> bank_bits(lanes * n);
  bank.step_capacitive_block(c_sense.data(), c_ref.data(), bank_bits.data(), n);
  for (std::size_t k = 0; k < lanes; ++k) {
    DeltaSigmaModulator solo{configs[k]};
    std::vector<int> want(n);
    solo.step_capacitive_block(c_sense[k], c_ref[k], want.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], bank_bits[k * n + i]) << "lane=" << k << " i=" << i;
    }
    EXPECT_EQ(solo.integrator1_v(), bank.lane(k).integrator1_v()) << k;
    EXPECT_EQ(solo.integrator2_v(), bank.lane(k).integrator2_v()) << k;
    EXPECT_EQ(solo.time_s(), bank.lane(k).time_s()) << k;
  }
}

TEST(ModulatorBank, LanesMatchIndependentModulators) {
  std::vector<ModulatorConfig> configs(4);
  for (std::size_t k = 0; k < configs.size(); ++k) configs[k].seed = 100 + k * 7919;
  const std::vector<double> c_sense{95e-15, 104e-15, 112e-15, 99e-15};
  const std::vector<double> c_ref(4, 100e-15);
  expect_lanes_match_solo(configs, c_sense, c_ref, 1280);
}

TEST(ModulatorBank, HeterogeneousLaneConfigs) {
  // Lanes that disagree in every planning-relevant way: noise sources on or
  // off, flicker, loop order, metastability — one frame schedule must serve
  // all of them.
  std::vector<ModulatorConfig> configs(4);
  configs[0].seed = 1;
  configs[1].seed = 2;
  configs[1].enable_ktc_noise = false;
  configs[1].ref_noise_vrms = 0.0;
  configs[2].seed = 3;
  configs[2].order = 1;
  configs[2].opamp1.flicker_corner_hz = 1000.0;
  configs[3].seed = 4;
  configs[3].comparator.metastable_band_v = 0.4;
  const std::vector<double> c_sense{90e-15, 118e-15, 101e-15, 107e-15};
  const std::vector<double> c_ref(4, 100e-15);
  expect_lanes_match_solo(configs, c_sense, c_ref, 640);
}

TEST(ModulatorBank, OddBlockLengths) {
  std::vector<ModulatorConfig> configs(2);
  configs[1].seed = 77;
  const std::vector<double> c_sense{103e-15, 97e-15};
  const std::vector<double> c_ref(2, 100e-15);
  for (std::size_t n : {1u, 127u, 129u, 300u}) {
    expect_lanes_match_solo(configs, c_sense, c_ref, n);
  }
}

TEST(ModulatorBank, ConvenienceSeedingKeepsLaneZeroAndDecorrelates) {
  ModulatorConfig base;
  ModulatorBank bank{base, 3};
  EXPECT_EQ(bank.lanes(), 3u);
  EXPECT_EQ(bank.lane(0).config().seed, base.seed);
  EXPECT_NE(bank.lane(1).config().seed, base.seed);
  EXPECT_NE(bank.lane(1).config().seed, bank.lane(2).config().seed);
  // Decorrelated seeds ⇒ different bitstreams for identical inputs.
  const std::vector<double> c_sense(3, 108e-15);
  const std::vector<double> c_ref(3, 100e-15);
  std::vector<int> bits(3 * 512);
  bank.step_capacitive_block(c_sense.data(), c_ref.data(), bits.data(), 512);
  int diff01 = 0;
  int diff12 = 0;
  for (std::size_t i = 0; i < 512; ++i) {
    diff01 += bits[i] != bits[512 + i];
    diff12 += bits[512 + i] != bits[1024 + i];
  }
  EXPECT_GT(diff01, 0);
  EXPECT_GT(diff12, 0);
}

TEST(ModulatorBank, DefaultReferenceBranchMatchesScalarOverload) {
  ModulatorConfig base;
  base.cap_mismatch_sigma = 0.01;  // make the ref-mismatch branch visible
  ModulatorBank bank{base, 2};
  const std::vector<double> c_sense{102e-15, 102e-15};
  const std::vector<double> c_ref{bank.lane(0).reference_capacitance(),
                                  bank.lane(1).reference_capacitance()};
  std::vector<int> bank_bits(2 * 256);
  bank.step_capacitive_block(c_sense.data(), c_ref.data(), bank_bits.data(), 256);
  for (std::size_t k = 0; k < 2; ++k) {
    DeltaSigmaModulator solo{bank.lane(k).config()};
    std::vector<int> want(256);
    for (auto& b : want) b = solo.step_capacitive(c_sense[k]);
    for (std::size_t i = 0; i < 256; ++i) {
      ASSERT_EQ(want[i], bank_bits[k * 256 + i]) << "lane=" << k << " i=" << i;
    }
  }
}

TEST(ModulatorBank, ResetRestoresEveryLane) {
  ModulatorConfig base;
  ModulatorBank bank{base, 2};
  const std::vector<double> c_sense{105e-15, 95e-15};
  const std::vector<double> c_ref(2, 100e-15);
  std::vector<int> first(2 * 384);
  bank.step_capacitive_block(c_sense.data(), c_ref.data(), first.data(), 384);
  bank.reset();
  // reset() restores loop state but not the rng streams (same contract as
  // DeltaSigmaModulator::reset) — compare against a solo run doing the same.
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(bank.lane(k).integrator1_v(), 0.0);
    EXPECT_EQ(bank.lane(k).time_s(), 0.0);
  }
}

TEST(ModulatorBank, RejectsEmptyBank) {
  EXPECT_THROW((ModulatorBank{std::vector<ModulatorConfig>{}}),
               std::invalid_argument);
}

TEST(ModulatorBank, LaneCountSweepWithMidRunFaultMasking) {
  // Every lane count from a lone lane through two-packets-and-a-remainder
  // (on AVX2: 9 = 2×4 + 1), with one lane masked out mid-run and re-enabled
  // later. Each enabled phase must be bit-identical to the solo modulator
  // run through the same block sequence; the masked lane must be untouched.
  const std::size_t n1 = 200;
  const std::size_t n2 = 300;
  const std::size_t n3 = 150;
  for (std::size_t lanes = 1; lanes <= 9; ++lanes) {
    std::vector<ModulatorConfig> configs(lanes);
    std::vector<double> c_sense(lanes);
    std::vector<double> c_ref(lanes, 100e-15);
    for (std::size_t k = 0; k < lanes; ++k) {
      configs[k].seed = 500 + 31 * k;
      c_sense[k] = (92.0 + 3.0 * static_cast<double>(k)) * 1e-15;
    }
    ModulatorBank bank{configs};
    std::vector<DeltaSigmaModulator> solos;
    for (const auto& c : configs) solos.emplace_back(c);
    const std::size_t dead = lanes / 2;

    const auto run_and_check = [&](std::size_t n, std::size_t masked_lane,
                                   bool masked) {
      std::vector<int> got(lanes * n, -12345);
      bank.step_capacitive_block(c_sense.data(), c_ref.data(), got.data(), n);
      std::vector<int> want(n);
      for (std::size_t k = 0; k < lanes; ++k) {
        if (masked && k == masked_lane) {
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(got[k * n + i], -12345)
                << "masked lane written, lanes=" << lanes << " i=" << i;
          }
          continue;
        }
        solos[k].step_capacitive_block(c_sense[k], c_ref[k], want.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(want[i], got[k * n + i])
              << "lanes=" << lanes << " lane=" << k << " i=" << i;
        }
        ASSERT_EQ(solos[k].integrator1_v(), bank.lane(k).integrator1_v()) << k;
        ASSERT_EQ(solos[k].integrator2_v(), bank.lane(k).integrator2_v()) << k;
        ASSERT_EQ(solos[k].time_s(), bank.lane(k).time_s()) << k;
        ASSERT_EQ(solos[k].clip_count(), bank.lane(k).clip_count()) << k;
      }
    };

    run_and_check(n1, 0, false);
    bank.set_lane_enabled(dead, false);
    ASSERT_EQ(bank.enabled_lanes(), lanes - 1);
    run_and_check(n2, dead, true);
    // The masked lane froze with its state and streams exactly where solo
    // left them after n1 clocks — re-enabling resumes bit-identically (the
    // solo twin simply skipped the n2 block).
    bank.set_lane_enabled(dead, true);
    run_and_check(n3, 0, false);
  }
}

TEST(ModulatorBank, VectorAndForcedScalarBanksBitIdentical) {
  // The escape hatch contract: a bank constructed under the forced-scalar
  // dispatch produces byte-identical bitstreams and end state to one built
  // under the default (possibly SIMD) dispatch.
  const std::size_t lanes = 8;
  const std::size_t n = 640;
  std::vector<ModulatorConfig> configs(lanes);
  std::vector<double> c_sense(lanes);
  std::vector<double> c_ref(lanes, 100e-15);
  for (std::size_t k = 0; k < lanes; ++k) {
    configs[k].seed = 9000 + 17 * k;
    c_sense[k] = (95.0 + 2.0 * static_cast<double>(k)) * 1e-15;
  }
  const simd::Level ambient = simd::active_level();
  ModulatorBank vec_bank{configs};
  EXPECT_EQ(vec_bank.simd_level(), ambient);
  std::vector<int> vec_bits(lanes * n);
  vec_bank.step_capacitive_block(c_sense.data(), c_ref.data(), vec_bits.data(),
                                 n);
  simd::force_active_level(simd::Level::kScalar);
  ModulatorBank sc_bank{configs};
  simd::force_active_level(ambient);
  EXPECT_EQ(sc_bank.simd_width(), 1u);
  std::vector<int> sc_bits(lanes * n);
  sc_bank.step_capacitive_block(c_sense.data(), c_ref.data(), sc_bits.data(), n);
  for (std::size_t k = 0; k < lanes; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(vec_bits[k * n + i], sc_bits[k * n + i])
          << "lane=" << k << " i=" << i;
    }
    EXPECT_EQ(vec_bank.lane(k).integrator1_v(), sc_bank.lane(k).integrator1_v());
    EXPECT_EQ(vec_bank.lane(k).integrator2_v(), sc_bank.lane(k).integrator2_v());
    EXPECT_EQ(vec_bank.lane(k).time_s(), sc_bank.lane(k).time_s());
  }
}

TEST(ModulatorBank, MetastableHeavyPacketMatchesSolo) {
  // A wide metastable band makes the comparator's scalar resync fire
  // constantly, exercising the kernel's masked drop-out/rejoin path and the
  // transposed-plan tail rewrite on every few clocks — in a full packet, so
  // the vector kernel (when dispatched) cannot avoid it.
  std::vector<ModulatorConfig> configs(4);
  std::vector<double> c_sense{96e-15, 103e-15, 109e-15, 99e-15};
  std::vector<double> c_ref(4, 100e-15);
  for (std::size_t k = 0; k < 4; ++k) {
    configs[k].seed = 333 + 11 * k;
    configs[k].comparator.metastable_band_v = 0.5;
  }
  expect_lanes_match_solo(configs, c_sense, c_ref, 768);
}

TEST(ModulatorBank, PartialSettlePacketMatchesSolo) {
  // A starved op-amp (low GBW) keeps integrator steps above the provable
  // full-settle threshold, so the kernel's settle() escape runs per lane per
  // clock — the worst case for the masked scalar path.
  std::vector<ModulatorConfig> configs(4);
  std::vector<double> c_sense{94e-15, 102e-15, 111e-15, 98e-15};
  std::vector<double> c_ref(4, 100e-15);
  for (std::size_t k = 0; k < 4; ++k) {
    configs[k].seed = 777 + 23 * k;
    configs[k].opamp1.gbw_hz = 300e3;
    configs[k].opamp2.gbw_hz = 300e3;
  }
  expect_lanes_match_solo(configs, c_sense, c_ref, 512);
}

TEST(ModulatorBank, CheckpointRoundTripMidRunUnderSimdLayout) {
  // Serialize after 1.5 frames plus a masked lane, restore into a fresh
  // bank, and continue both: the restored bank must replay the original's
  // future bit-for-bit, including the enable mask and the SIMD packet
  // regrouping it implies.
  const std::size_t lanes = 8;
  std::vector<ModulatorConfig> configs(lanes);
  std::vector<double> c_sense(lanes);
  std::vector<double> c_ref(lanes, 100e-15);
  for (std::size_t k = 0; k < lanes; ++k) {
    configs[k].seed = 4242 + 101 * k;
    c_sense[k] = (93.0 + 2.5 * static_cast<double>(k)) * 1e-15;
  }
  ModulatorBank original{configs};
  std::vector<int> scratch(lanes * 200);
  original.step_capacitive_block(c_sense.data(), c_ref.data(), scratch.data(),
                                 200);
  original.set_lane_enabled(5, false);
  original.step_capacitive_block(c_sense.data(), c_ref.data(), scratch.data(),
                                 100);

  CheckpointWriter out;
  original.serialize(out);
  const auto blob = out.finish(1);
  ModulatorBank restored{configs};
  CheckpointReader in{blob};
  in.require_version(1);
  restored.restore(in);
  EXPECT_NO_THROW(in.expect_end());
  EXPECT_FALSE(restored.lane_enabled(5));
  EXPECT_EQ(restored.enabled_lanes(), lanes - 1);

  const std::size_t n = 300;
  std::vector<int> want(lanes * n, -1);
  std::vector<int> got(lanes * n, -1);
  original.step_capacitive_block(c_sense.data(), c_ref.data(), want.data(), n);
  restored.step_capacitive_block(c_sense.data(), c_ref.data(), got.data(), n);
  for (std::size_t k = 0; k < lanes; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[k * n + i], got[k * n + i]) << "lane=" << k << " i=" << i;
    }
    EXPECT_EQ(original.lane(k).integrator1_v(), restored.lane(k).integrator1_v());
    EXPECT_EQ(original.lane(k).time_s(), restored.lane(k).time_s());
  }
}

TEST(ModulatorBank, CheckpointRejectsCorruptEnableFlag) {
  ModulatorConfig base;
  ModulatorBank bank{base, 2};
  CheckpointWriter out;
  out.section("modulator_bank");
  out.size(2);
  out.u8(1);
  out.u8(7);  // not a boolean
  const auto blob = out.finish(1);
  CheckpointReader in{blob};
  in.require_version(1);
  EXPECT_THROW(bank.restore(in), CheckpointError);
}

TEST(ArrayAcquisition, LaneZeroMatchesSingleConverterReference) {
  // Lane 0 keeps the base modulator seed and reads element 0, so its sample
  // stream must be bit-identical to a hand-built single converter (modulator
  // + decimation chain, no mux) fed element 0's capacitance.
  const core::ChipConfig chip = core::ChipConfig::paper_chip();
  core::ArrayAcquisition array{chip};
  const auto field = [](double, double, double) { return 8000.0; };
  const std::size_t frames = 16;
  const auto array_out = array.acquire_block(field, frames);
  ASSERT_EQ(array_out.size(), array.size());
  ASSERT_EQ(array_out[0].size(), frames);

  const core::SensorArray ref_array{chip};
  DeltaSigmaModulator mod{chip.modulator};
  dsp::DecimationChain chain{chip.decimation};
  const std::size_t n = chip.decimation.total_decimation;
  const double c_sense = ref_array.element(0).capacitance(8000.0, 300.0);
  std::vector<int> bits(n);
  for (std::size_t i = 0; i < frames; ++i) {
    mod.step_capacitive_block(c_sense, ref_array.reference_capacitance(),
                              bits.data(), n);
    const auto sample = chain.push_frame({bits.data(), n});
    EXPECT_EQ(sample.code, array_out[0][i].code) << i;
    EXPECT_EQ(sample.value, array_out[0][i].value) << i;
  }
}

TEST(ArrayAcquisition, ProducesOneImagePerOutputPeriod) {
  const core::ChipConfig chip = core::ChipConfig::paper_chip();
  core::ArrayAcquisition array{chip};
  array.calibrate_flat_field([](double, double, double) { return 8000.0; }, 16, 16);
  // A pressure gradient across the die: elements must disagree in a
  // position-dependent way.
  const auto field = [](double x_m, double, double) {
    return 8000.0 + 4.0e7 * x_m;
  };
  const auto out = array.acquire_block(field, 32);
  ASSERT_EQ(out.size(), 4u);
  for (const auto& lane : out) ASSERT_EQ(lane.size(), 32u);
  // Discard the decimation-filter settling transient, then compare means.
  auto tail_mean = [](const std::vector<dsp::DecimatedSample>& s) {
    double sum = 0.0;
    for (std::size_t i = 16; i < s.size(); ++i) sum += s[i].value;
    return sum / (s.size() - 16);
  };
  // Row-major 2×2: elements 0/2 sit at −x, 1/3 at +x → larger pressure at
  // +x bends the membrane further, so capacitance and code go up.
  EXPECT_GT(tail_mean(out[1]), tail_mean(out[0]));
  EXPECT_GT(tail_mean(out[3]), tail_mean(out[2]));
}

TEST(ArrayAcquisition, FlatFieldSubtractsEachLanesReferenceCode) {
  // Calibrated codes are the raw codes of an uncalibrated twin minus the
  // stored per-lane offsets, which a checkpoint carries.
  const core::ChipConfig chip = core::ChipConfig::paper_chip();
  const auto reference = [](double, double, double) { return 8000.0; };
  core::ArrayAcquisition calibrated{chip};
  core::ArrayAcquisition raw{chip};
  calibrated.calibrate_flat_field(reference, 16, 16);
  (void)raw.acquire_block(reference, 32);
  const auto& offsets = calibrated.flat_field();
  ASSERT_EQ(offsets.size(), 4u);
  // The offsets are the elements' mismatch, not a shared level.
  EXPECT_NE(offsets[0], offsets[1]);

  CheckpointWriter writer;
  calibrated.serialize(writer);
  const auto blob = writer.finish(1);
  core::ArrayAcquisition resumed{chip};
  CheckpointReader reader{blob};
  reader.require_version(1);
  resumed.restore(reader);
  EXPECT_EQ(resumed.flat_field(), offsets);

  const auto field = [](double x_m, double, double) { return 8000.0 + 4.0e7 * x_m; };
  const auto want = raw.acquire_block(field, 8);
  const auto got = resumed.acquire_block(field, 8);
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(got[k][i].code, want[k][i].code - offsets[k]) << k << "," << i;
      EXPECT_EQ(got[k][i].value, static_cast<double>(got[k][i].code) / 2048.0);
    }
  }
  // Settled under the reference, a calibrated lane reads ~0 codes.
  const auto flat = calibrated.acquire_block(reference, 4);
  for (const auto& lane : flat) EXPECT_LE(std::abs(lane.back().code), 3);
}

TEST(ArrayAcquisition, FaultedElementMasksItsLaneAndHealthyLanesAreUntouched) {
  const core::ChipConfig chip = core::ChipConfig::paper_chip();
  core::ArrayAcquisition faulty{chip};
  core::ArrayAcquisition healthy{chip};
  const auto field = [](double, double, double) { return 8000.0; };
  const std::size_t lanes = faulty.size();
  std::vector<dsp::DecimatedSample> f_frame(lanes);
  std::vector<dsp::DecimatedSample> h_frame(lanes);

  for (std::size_t i = 0; i < 3; ++i) {
    faulty.acquire_frame(field, f_frame.data());
    healthy.acquire_frame(field, h_frame.data());
    for (std::size_t k = 0; k < lanes; ++k) {
      ASSERT_EQ(f_frame[k].code, h_frame[k].code) << "pre-fault k=" << k;
    }
  }

  // Element (0,1) = lane 1 dies mid-run: its lane must freeze and emit
  // default samples, while every other lane's stream continues unperturbed
  // (lanes never share draws — a fault cannot ripple).
  faulty.inject_element_fault(0, 1, core::ElementFault::kStuckDown);
  for (std::size_t i = 0; i < 3; ++i) {
    faulty.acquire_frame(field, f_frame.data());
    healthy.acquire_frame(field, h_frame.data());
    EXPECT_FALSE(faulty.bank().lane_enabled(1));
    EXPECT_EQ(f_frame[1].code, 0);
    EXPECT_EQ(f_frame[1].value, 0.0);
    for (std::size_t k = 0; k < lanes; ++k) {
      if (k == 1) continue;
      ASSERT_EQ(f_frame[k].code, h_frame[k].code) << "during-fault k=" << k;
    }
  }

  // Fault cleared: the lane resumes from its frozen modulator state. Its
  // decimation chain and the healthy twin's lane 1 have diverged (the twin
  // kept converting), so only the surviving lanes stay comparable — and the
  // revived lane must produce samples again.
  faulty.inject_element_fault(0, 1, core::ElementFault::kNone);
  faulty.acquire_frame(field, f_frame.data());
  healthy.acquire_frame(field, h_frame.data());
  EXPECT_TRUE(faulty.bank().lane_enabled(1));
  for (std::size_t k = 0; k < lanes; ++k) {
    if (k == 1) continue;
    ASSERT_EQ(f_frame[k].code, h_frame[k].code) << "post-clear k=" << k;
  }
}

}  // namespace
}  // namespace tono::analog
