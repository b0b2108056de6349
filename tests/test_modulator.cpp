// Tests for the second-order ΔΣ modulator — the chip's core circuit.
#include "src/analog/modulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "src/common/units.hpp"
#include "src/dsp/decimation.hpp"
#include "src/dsp/fft.hpp"
#include "src/dsp/spectrum.hpp"

namespace tono::analog {
namespace {

ModulatorConfig ideal_config() {
  ModulatorConfig c;
  c.enable_ktc_noise = false;
  c.enable_settling = false;
  c.clock_jitter_rms_s = 0.0;
  c.ref_noise_vrms = 0.0;
  c.cap_mismatch_sigma = 0.0;
  c.opamp1.noise_vrms = 0.0;
  c.opamp2.noise_vrms = 0.0;
  c.opamp1.dc_gain = 1e9;
  c.opamp2.dc_gain = 1e9;
  c.comparator.noise_vrms = 0.0;
  c.comparator.metastable_band_v = 0.0;
  return c;
}

TEST(Modulator, OutputsAreBipolarBits) {
  DeltaSigmaModulator mod{ModulatorConfig{}};
  for (int i = 0; i < 1000; ++i) {
    const int b = mod.step_voltage(0.3);
    EXPECT_TRUE(b == 1 || b == -1);
  }
}

TEST(Modulator, BitstreamMeanTracksDcInput) {
  for (double u : {-0.6, -0.2, 0.0, 0.3, 0.7}) {
    DeltaSigmaModulator mod{ideal_config()};
    double acc = 0.0;
    const int n = 50000;
    for (int i = 0; i < 1000; ++i) (void)mod.step_voltage(u * 2.5);  // settle
    for (int i = 0; i < n; ++i) acc += mod.step_voltage(u * 2.5);
    EXPECT_NEAR(acc / n, u, 0.01) << "u = " << u;
  }
}

TEST(Modulator, StableForNominalInputs) {
  ModulatorConfig cfg;
  DeltaSigmaModulator mod{cfg};
  const std::size_t n = 100000;
  const double f = 100.0;
  auto bits = mod.run_voltage(
      [&](double t) {
        return 0.8 * cfg.vref_v * std::sin(2.0 * std::numbers::pi * f * t);
      },
      n);
  EXPECT_EQ(mod.clip_count(), 0u);
  EXPECT_LT(mod.max_state1_v(), cfg.opamp1.output_swing_v);
  EXPECT_LT(mod.max_state2_v(), cfg.opamp2.output_swing_v);
}

TEST(Modulator, NoiseShapingPushesQuantizationNoiseUp) {
  // Spectrum of the raw bitstream for a DC input: in-band power far below
  // out-of-band power.
  DeltaSigmaModulator mod{ideal_config()};
  const std::size_t n = 65536;
  std::vector<double> bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    bits[i] = static_cast<double>(mod.step_voltage(0.1 * 2.5));
  }
  const auto pwr = tono::dsp::power_spectrum(bits);
  const std::size_t half = pwr.size() - 1;
  double low = 0.0;
  double high = 0.0;
  for (std::size_t k = 1; k <= half / 64; ++k) low += pwr[k];
  for (std::size_t k = half / 2; k <= half; ++k) high += pwr[k];
  EXPECT_GT(high / low, 1e3);  // ≥ 30 dB contrast
}

TEST(Modulator, NoiseShapingSlopeIsSecondOrder) {
  // The shaped-noise PSD should rise ≈ 40 dB/decade. A DC input makes the
  // ideal loop's error purely tonal (the inter-tone floor is just FFT
  // leakage), so drive a busy low-frequency sine to decorrelate the
  // quantizer, then compare median bin power (robust against residual
  // harmonics) between two bands a decade apart.
  ModulatorConfig cfg = ideal_config();
  DeltaSigmaModulator mod{cfg};
  const std::size_t n = 262144;
  const double f_sig = 0.0005 * cfg.sampling_rate_hz;
  std::vector<double> bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / cfg.sampling_rate_hz;
    bits[i] = static_cast<double>(mod.step_voltage(
        0.5 * cfg.vref_v * std::sin(2.0 * std::numbers::pi * f_sig * t)));
  }
  const auto pwr = tono::dsp::power_spectrum(bits);
  auto band_power = [&](double f_lo, double f_hi) {
    const std::size_t k_lo = static_cast<std::size_t>(f_lo * 2.0 * (pwr.size() - 1));
    const std::size_t k_hi = static_cast<std::size_t>(f_hi * 2.0 * (pwr.size() - 1));
    std::vector<double> band(pwr.begin() + static_cast<long>(k_lo),
                             pwr.begin() + static_cast<long>(k_hi));
    std::sort(band.begin(), band.end());
    return band[band.size() / 2];
  };
  // Below f/fs ≈ 0.02 the sine's harmonic skirt dominates; above ≈ 0.2 the
  // NTF flattens toward its out-of-band gain. Fit the slope in between.
  const double p1 = band_power(0.02, 0.03);    // center ≈ 0.025 fs
  const double p2 = band_power(0.08, 0.12);    // center ≈ 0.1 fs
  const double decades = std::log10(0.1 / 0.025);
  const double slope_db_per_decade = 10.0 * std::log10(p2 / p1) / decades;
  EXPECT_GT(slope_db_per_decade, 30.0);
  EXPECT_LT(slope_db_per_decade, 50.0);
}

TEST(Modulator, HeadlineSnrAtNearFullScale) {
  // The paper's §3.1 headline: 12 bit / SNR > 72 dB at 1 kS/s with the
  // SINC³+FIR decimation at OSR 128 — reproduced end to end.
  ModulatorConfig cfg;  // full non-idealities
  DeltaSigmaModulator mod{cfg};
  tono::dsp::DecimationChain chain{tono::dsp::DecimationConfig{}};
  const std::size_t n_out = 8192;
  const double f = tono::dsp::coherent_frequency(15.625, 1000.0, n_out);
  const double amp = 0.875;
  const std::size_t n_bits = (n_out + 300) * 128;
  const auto bits = mod.run_voltage(
      [&](double t) {
        return amp * cfg.vref_v * std::sin(2.0 * std::numbers::pi * f * t);
      },
      n_bits);
  std::vector<int> ints(bits.begin(), bits.end());
  const auto vals = chain.process_values(ints);
  ASSERT_GE(vals.size(), n_out);
  std::vector<double> rec(vals.end() - static_cast<long>(n_out), vals.end());
  tono::dsp::SpectrumConfig sc;
  sc.sample_rate_hz = 1000.0;
  const auto a = tono::dsp::analyze_tone(rec, sc);
  EXPECT_GT(a.snr_db, 72.0);
  EXPECT_GT(a.enob_bits, 11.0);
}

TEST(Modulator, CapacitiveModeFullScale) {
  ModulatorConfig cfg = ideal_config();
  cfg.c_fb1_f = 25e-15;
  DeltaSigmaModulator mod{cfg};
  EXPECT_NEAR(mod.full_scale_delta_c(), 25e-15, 1e-20);
  EXPECT_NEAR(mod.normalized_input(12.5e-15), 0.5, 1e-12);
}

TEST(Modulator, CapacitiveModeTracksDeltaC) {
  ModulatorConfig cfg = ideal_config();
  cfg.c_fb1_f = 25e-15;
  cfg.c_ref_f = 100e-15;
  DeltaSigmaModulator mod{cfg};
  const double c_ref = 100e-15;
  const double delta = 10e-15;  // u = 0.4
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < 1000; ++i) (void)mod.step_capacitive(c_ref + delta, c_ref);
  for (int i = 0; i < n; ++i) acc += mod.step_capacitive(c_ref + delta, c_ref);
  EXPECT_NEAR(acc / n, 0.4, 0.01);
}

TEST(Modulator, SmallerFeedbackCapMagnifiesInput) {
  // §4 future work: adjusting C_fb scales the capacitance full scale.
  ModulatorConfig big = ideal_config();
  big.c_fb1_f = 25e-15;
  ModulatorConfig small = ideal_config();
  small.c_fb1_f = 5e-15;
  DeltaSigmaModulator mb{big};
  DeltaSigmaModulator ms{small};
  EXPECT_NEAR(mb.full_scale_delta_c() / ms.full_scale_delta_c(), 5.0, 1e-9);
}

TEST(Modulator, VexcScalesCapacitiveGain) {
  ModulatorConfig cfg = ideal_config();
  cfg.vexc_v = 1.25;  // half excitation → double ΔC full scale
  DeltaSigmaModulator mod{cfg};
  EXPECT_NEAR(mod.full_scale_delta_c(), cfg.c_fb1_f * cfg.vref_v / 1.25, 1e-20);
}

TEST(Modulator, OverloadRecovers) {
  ModulatorConfig cfg;
  DeltaSigmaModulator mod{cfg};
  // Drive far beyond full scale: states clip.
  for (int i = 0; i < 5000; ++i) (void)mod.step_voltage(2.0 * cfg.vref_v);
  EXPECT_GT(mod.clip_count(), 0u);
  // Back to a small input: the loop re-locks and tracks DC again.
  double acc = 0.0;
  for (int i = 0; i < 2000; ++i) (void)mod.step_voltage(0.0);
  for (int i = 0; i < 20000; ++i) acc += mod.step_voltage(0.25 * cfg.vref_v);
  EXPECT_NEAR(acc / 20000.0, 0.25, 0.03);
}

TEST(Modulator, DeterministicWithSameSeed) {
  ModulatorConfig cfg;
  cfg.seed = 77;
  DeltaSigmaModulator a{cfg};
  DeltaSigmaModulator b{cfg};
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.step_voltage(0.3), b.step_voltage(0.3));
  }
}

TEST(Modulator, MismatchVariesWithSeed) {
  ModulatorConfig c1;
  c1.seed = 1;
  ModulatorConfig c2;
  c2.seed = 2;
  DeltaSigmaModulator a{c1};
  DeltaSigmaModulator b{c2};
  EXPECT_NE(a.full_scale_delta_c(), b.full_scale_delta_c());
}

TEST(Modulator, ResetRestoresState) {
  ModulatorConfig cfg;
  DeltaSigmaModulator mod{cfg};
  std::vector<int> first;
  for (int i = 0; i < 500; ++i) first.push_back(mod.step_voltage(0.2));
  mod.reset();
  // After reset the noise RNG has advanced, so compare against a noiseless
  // configuration for exact repetition instead.
  ModulatorConfig quiet = ideal_config();
  DeltaSigmaModulator m1{quiet};
  std::vector<int> a;
  for (int i = 0; i < 500; ++i) a.push_back(m1.step_voltage(0.2));
  m1.reset();
  std::vector<int> b;
  for (int i = 0; i < 500; ++i) b.push_back(m1.step_voltage(0.2));
  EXPECT_EQ(a, b);
  EXPECT_EQ(m1.clip_count(), 0u);
  EXPECT_DOUBLE_EQ(m1.time_s(), 500.0 / quiet.sampling_rate_hz);
}

TEST(Modulator, FirstOrderBaselineTracksDc) {
  ModulatorConfig cfg = ideal_config();
  cfg.order = 1;
  DeltaSigmaModulator mod{cfg};
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < 1000; ++i) (void)mod.step_voltage(0.3 * 2.5);
  for (int i = 0; i < n; ++i) acc += mod.step_voltage(0.3 * 2.5);
  EXPECT_NEAR(acc / n, 0.3, 0.01);
}

TEST(Modulator, SecondOrderBeatsFirstOrderSnr) {
  auto snr_of = [](int order) {
    ModulatorConfig cfg;
    cfg.order = order;
    DeltaSigmaModulator mod{cfg};
    tono::dsp::DecimationConfig dc;
    dc.output_bits = 16;  // compare modulators, not the word
    tono::dsp::DecimationChain chain{dc};
    const std::size_t n_out = 4096;
    const double f = tono::dsp::coherent_frequency(15.625, 1000.0, n_out);
    const auto bits = mod.run_voltage(
        [&](double t) {
          return 0.7 * cfg.vref_v * std::sin(2.0 * std::numbers::pi * f * t);
        },
        (n_out + 300) * 128);
    std::vector<int> ints(bits.begin(), bits.end());
    const auto vals = chain.process_values(ints);
    std::vector<double> rec(vals.end() - static_cast<long>(n_out), vals.end());
    tono::dsp::SpectrumConfig sc;
    sc.sample_rate_hz = 1000.0;
    return tono::dsp::analyze_tone(rec, sc).snr_db;
  };
  const double first = snr_of(1);
  const double second = snr_of(2);
  EXPECT_GT(second, first + 15.0);  // decades of OSR separate the orders
}

TEST(Modulator, RejectsBadOrder) {
  ModulatorConfig bad;
  bad.order = 3;
  EXPECT_THROW((DeltaSigmaModulator{bad}), std::invalid_argument);
  ModulatorConfig bad2;
  bad2.order = 0;
  EXPECT_THROW((DeltaSigmaModulator{bad2}), std::invalid_argument);
}

TEST(Modulator, FlickerNoiseRaisesInBandFloor) {
  // With CDS disabled and a huge 1/f corner, the in-band noise rises; the
  // default CDS rejection restores it.
  auto snr_of = [](double corner, double rejection) {
    ModulatorConfig cfg;
    cfg.opamp1.flicker_corner_hz = corner;
    cfg.opamp2.flicker_corner_hz = corner;
    cfg.opamp1.noise_vrms = 300e-6;  // exaggerate so the effect is visible
    cfg.opamp2.noise_vrms = 300e-6;
    cfg.cds_flicker_rejection = rejection;
    DeltaSigmaModulator mod{cfg};
    tono::dsp::DecimationChain chain{tono::dsp::DecimationConfig{}};
    const std::size_t n_out = 4096;
    const double f = tono::dsp::coherent_frequency(15.625, 1000.0, n_out);
    const auto bits = mod.run_voltage(
        [&](double t) {
          return 0.7 * cfg.vref_v * std::sin(2.0 * std::numbers::pi * f * t);
        },
        (n_out + 300) * 128);
    std::vector<int> ints(bits.begin(), bits.end());
    const auto vals = chain.process_values(ints);
    std::vector<double> rec(vals.end() - static_cast<long>(n_out), vals.end());
    tono::dsp::SpectrumConfig sc;
    sc.sample_rate_hz = 1000.0;
    return tono::dsp::analyze_tone(rec, sc).snr_db;
  };
  const double snr_clean = snr_of(0.0, 1.0);
  const double snr_flicker = snr_of(50e3, 1.0);
  const double snr_cds = snr_of(50e3, 30.0);
  EXPECT_LT(snr_flicker, snr_clean - 3.0);  // flicker visibly degrades
  EXPECT_GT(snr_cds, snr_flicker + 3.0);    // CDS recovers most of it
}

TEST(Modulator, DefaultFlickerDisabled) {
  // The paper-default configuration has flicker off; the headline SNR test
  // above must therefore be unaffected by the flicker machinery.
  ModulatorConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.opamp1.flicker_corner_hz, 0.0);
}

TEST(Modulator, RejectsBadConfig) {
  ModulatorConfig bad;
  bad.sampling_rate_hz = 0.0;
  EXPECT_THROW((DeltaSigmaModulator{bad}), std::invalid_argument);
  ModulatorConfig bad2;
  bad2.vref_v = -1.0;
  EXPECT_THROW((DeltaSigmaModulator{bad2}), std::invalid_argument);
  ModulatorConfig bad3;
  bad3.c_fb1_f = 0.0;
  EXPECT_THROW((DeltaSigmaModulator{bad3}), std::invalid_argument);
}

// Property: SNR grows ≈ 15 dB per OSR doubling (2nd-order law) until the
// 12-bit output word dominates.
class OsrSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OsrSweepTest, SnrFollowsSecondOrderLaw) {
  const std::size_t osr = GetParam();
  ModulatorConfig cfg = ideal_config();
  DeltaSigmaModulator mod{cfg};
  tono::dsp::DecimationConfig dc;
  dc.total_decimation = osr;
  dc.cic_decimation = osr >= 32 ? 32 : osr;
  dc.input_rate_hz = cfg.sampling_rate_hz;
  dc.cutoff_hz = cfg.sampling_rate_hz / static_cast<double>(osr) / 2.0;
  dc.output_bits = 20;  // wide word so quantization does not mask the law
  tono::dsp::DecimationChain chain{dc};
  const double fs_out = cfg.sampling_rate_hz / static_cast<double>(osr);
  const std::size_t n_out = 4096;
  const double f = tono::dsp::coherent_frequency(fs_out / 64.0, fs_out, n_out);
  const auto bits = mod.run_voltage(
      [&](double t) {
        return 0.7 * cfg.vref_v * std::sin(2.0 * std::numbers::pi * f * t);
      },
      (n_out + 300) * osr);
  std::vector<int> ints(bits.begin(), bits.end());
  const auto vals = chain.process_values(ints);
  ASSERT_GE(vals.size(), n_out);
  std::vector<double> rec(vals.end() - static_cast<long>(n_out), vals.end());
  tono::dsp::SpectrumConfig sc;
  sc.sample_rate_hz = fs_out;
  const auto a = tono::dsp::analyze_tone(rec, sc);
  // Ideal − 3 dB input − our NTF's ~12 dB in-band penalty − decimation
  // imperfections: require within a generous band of the law, and that the
  // law's slope shows up across the sweep (checked by monotonicity below).
  const double ideal = tono::dsp::ideal_delta_sigma_snr_db(2, static_cast<double>(osr),
                                                           -3.1);
  EXPECT_GT(a.snr_db, ideal - 25.0) << "osr " << osr;
  EXPECT_LT(a.snr_db, ideal + 3.0) << "osr " << osr;
}

INSTANTIATE_TEST_SUITE_P(Osrs, OsrSweepTest, ::testing::Values(32u, 64u, 128u, 256u));

// step_capacitive_block (the noise-plan path) must be bit-identical to n
// scalar step_capacitive calls — across every noise source, including the
// plan's hardest cases: flicker streams, comparator metastable resyncs, and
// frame lengths that are not a multiple of the plan size.
void expect_block_matches_scalar(const ModulatorConfig& c, double c_sense_f,
                                 std::size_t n) {
  DeltaSigmaModulator scalar{c};
  DeltaSigmaModulator block{c};
  const double c_ref = c.c_ref_f;
  std::vector<int> want(n);
  for (auto& b : want) b = scalar.step_capacitive(c_sense_f, c_ref);
  std::vector<int> got(n);
  block.step_capacitive_block(c_sense_f, c_ref, got.data(), n);
  ASSERT_EQ(want, got);
  EXPECT_EQ(scalar.integrator1_v(), block.integrator1_v());
  EXPECT_EQ(scalar.integrator2_v(), block.integrator2_v());
  EXPECT_EQ(scalar.time_s(), block.time_s());
  EXPECT_EQ(scalar.clip_count(), block.clip_count());
  EXPECT_EQ(scalar.max_state1_v(), block.max_state1_v());
  EXPECT_EQ(scalar.max_state2_v(), block.max_state2_v());
  // The generators must also land in the same state: continuing scalar on
  // both instances stays in lockstep.
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(scalar.step_capacitive(c_sense_f, c_ref),
              block.step_capacitive(c_sense_f, c_ref));
  }
}

TEST(ModulatorBlock, MatchesScalarWithDefaultNoise) {
  expect_block_matches_scalar(ModulatorConfig{}, 112e-15, 1280);
}

TEST(ModulatorBlock, MatchesScalarOnPartialAndOddFrames) {
  for (std::size_t n : {1u, 5u, 127u, 128u, 129u, 383u}) {
    expect_block_matches_scalar(ModulatorConfig{}, 95e-15, n);
  }
}

TEST(ModulatorBlock, MatchesScalarWithFlickerEnabled) {
  ModulatorConfig c;
  c.opamp1.flicker_corner_hz = 1000.0;
  c.opamp2.flicker_corner_hz = 500.0;
  expect_block_matches_scalar(c, 108e-15, 640);
}

TEST(ModulatorBlock, MatchesScalarUnderHeavyMetastability) {
  ModulatorConfig c;
  c.comparator.metastable_band_v = 0.5;  // constant mid-frame plan resyncs
  expect_block_matches_scalar(c, 104e-15, 512);
}

TEST(ModulatorBlock, MatchesScalarWithNoiseSourcesDisabled) {
  expect_block_matches_scalar(ideal_config(), 100e-15, 256);
  ModulatorConfig c = ideal_config();
  c.enable_settling = true;  // settle-skip fast path with all noise off
  expect_block_matches_scalar(c, 120e-15, 256);
}

TEST(ModulatorBlock, MatchesScalarFirstOrderLoop) {
  ModulatorConfig c;
  c.order = 1;
  c.opamp1.flicker_corner_hz = 2000.0;
  expect_block_matches_scalar(c, 90e-15, 384);
}

TEST(ModulatorBlock, MatchesScalarWithSlowAmpPartialSettling) {
  // τ large enough that the full-settle threshold is 0: every planned step
  // must fall back to the real settle() call and still match.
  ModulatorConfig c;
  c.opamp1.gbw_hz = 100e3;
  c.opamp2.gbw_hz = 100e3;
  expect_block_matches_scalar(c, 110e-15, 512);
}

TEST(ModulatorBlock, MatchesScalarWithUnequalFirstStageGains) {
  // g1 != a1: the reference error joins the merged first-stage noise.
  ModulatorConfig c;
  c.loop.g1 = 0.5;
  c.loop.a1 = 0.4;
  c.ref_noise_vrms = 2e-3;
  expect_block_matches_scalar(c, 103e-15, 640);
}

// The first integrator's kT/C, reference and op-amp noise add at one node in
// one clock, so the planned noise is one Gaussian per clock with variance
// (g1·σ_u)² + ((g1 − a1)·σ_ref/vref)² + (σ_op1/scale)². A first-order loop
// with an ideal (leak = 1), unclipped, fully settled integrator exposes each
// clock's draw n1 = Δx1 − (g1·u − a1·d) through integrator1_v().
ModulatorConfig exposed_first_stage() {
  ModulatorConfig c;
  c.order = 1;
  c.enable_settling = false;
  c.cap_mismatch_sigma = 0.0;
  c.opamp1.dc_gain = std::numeric_limits<double>::infinity();
  c.opamp1.output_swing_v = 1e6;
  c.comparator.noise_vrms = 0.0;
  c.comparator.metastable_band_v = 0.0;
  return c;
}

/// The planned first-stage draws of `n` one-clock blocks at u = 0.
std::vector<double> planned_first_stage_noise(const ModulatorConfig& c,
                                              std::size_t n) {
  DeltaSigmaModulator mod{c};
  std::vector<double> draws;
  int d = 1;  // the modulator's initial output bit
  for (std::size_t i = 0; i < n; ++i) {
    const double x_prev = mod.integrator1_v() / c.loop.state_scale_v;
    int bit = 0;
    mod.step_capacitive_block(c.c_ref_f, c.c_ref_f, &bit, 1);
    const double x = mod.integrator1_v() / c.loop.state_scale_v;
    draws.push_back(x - x_prev + c.loop.a1 * d);
    d = bit;
  }
  return draws;
}

double variance_of(const std::vector<double>& v) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : v) {
    sum += x;
    sum_sq += x * x;
  }
  const double n = static_cast<double>(v.size());
  return sum_sq / n - (sum / n) * (sum / n);
}

TEST(Modulator, MergedFirstStageNoiseMatchesVarianceFormula) {
  ModulatorConfig c = exposed_first_stage();
  c.loop.g1 = 0.5;
  c.loop.a1 = 0.3;
  c.ref_noise_vrms = 1e-3;
  const double c_fb = c.c_fb1_f;
  const double q_fs = c_fb * c.vref_v;
  const double sigma_u =
      std::sqrt(4.0 * units::k_boltzmann * c.temperature_k *
                (2.0 * c.c_ref_f + c_fb)) / q_fs;
  const double ktc = c.loop.g1 * sigma_u;
  const double ref = (c.loop.g1 - c.loop.a1) * c.ref_noise_vrms / c.vref_v;
  const double op1 = c.opamp1.noise_vrms / c.loop.state_scale_v;
  const double want = ktc * ktc + ref * ref + op1 * op1;
  const std::size_t n = 40000;
  const double got = variance_of(planned_first_stage_noise(c, n));
  // σ of a variance estimate is √(2/n)·var ≈ 0.7%; accept 5σ.
  EXPECT_NEAR(got, want, 5.0 * std::sqrt(2.0 / n) * want);
}

TEST(Modulator, ReferenceNoiseCancelsAtEqualGains) {
  // At g1 == a1 the reference error's charge d·ref·(g1 − a1) is zero, so
  // the setting changes neither the planned noise nor a single output bit.
  ModulatorConfig quiet = exposed_first_stage();
  quiet.ref_noise_vrms = 0.0;
  ModulatorConfig loud = quiet;
  loud.ref_noise_vrms = 5e-3;
  ASSERT_EQ(quiet.loop.g1, quiet.loop.a1);
  EXPECT_EQ(planned_first_stage_noise(quiet, 2000),
            planned_first_stage_noise(loud, 2000));
  DeltaSigmaModulator a{ModulatorConfig{}};
  ModulatorConfig paper_loud;
  paper_loud.ref_noise_vrms = 5e-3;
  DeltaSigmaModulator b{paper_loud};
  std::vector<int> bits_a(1024);
  std::vector<int> bits_b(1024);
  a.step_capacitive_block(104e-15, 100e-15, bits_a.data(), bits_a.size());
  b.step_capacitive_block(104e-15, 100e-15, bits_b.data(), bits_b.size());
  EXPECT_EQ(bits_a, bits_b);
}

}  // namespace
}  // namespace tono::analog
