// Tests for the clocked comparator.
#include "src/analog/comparator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/analog/bank_kernel.hpp"

namespace tono::analog {
namespace {

ComparatorConfig quiet() {
  ComparatorConfig c;
  c.noise_vrms = 0.0;
  c.metastable_band_v = 0.0;
  return c;
}

TEST(Comparator, SignDecisions) {
  Comparator cmp{quiet(), tono::Rng{1}};
  EXPECT_EQ(cmp.decide(0.5), 1);
  EXPECT_EQ(cmp.decide(-0.5), -1);
}

TEST(Comparator, OffsetShiftsThreshold) {
  ComparatorConfig c = quiet();
  c.offset_v = 0.1;
  Comparator cmp{c, tono::Rng{1}};
  EXPECT_EQ(cmp.decide(0.05), -1);  // below offset
  EXPECT_EQ(cmp.decide(0.15), 1);
}

TEST(Comparator, HysteresisFavorsLastDecision) {
  ComparatorConfig c = quiet();
  c.hysteresis_v = 0.2;
  Comparator cmp{c, tono::Rng{1}};
  EXPECT_EQ(cmp.decide(1.0), 1);
  // Slightly negative input stays high inside the hysteresis band.
  EXPECT_EQ(cmp.decide(-0.05), 1);
  // Beyond the band it flips.
  EXPECT_EQ(cmp.decide(-0.15), -1);
  // And now slightly positive stays low.
  EXPECT_EQ(cmp.decide(0.05), -1);
}

TEST(Comparator, MetastableBandRandomizes) {
  ComparatorConfig c = quiet();
  c.metastable_band_v = 1e-3;
  Comparator cmp{c, tono::Rng{7}};
  int pos = 0;
  for (int i = 0; i < 1000; ++i) {
    if (cmp.decide(0.0) > 0) ++pos;
  }
  EXPECT_GT(pos, 300);
  EXPECT_LT(pos, 700);
}

TEST(Comparator, DeterministicWithSameSeed) {
  ComparatorConfig c;
  c.noise_vrms = 1e-3;
  Comparator a{c, tono::Rng{42}};
  Comparator b{c, tono::Rng{42}};
  for (int i = 0; i < 200; ++i) {
    const double v = (i % 7 - 3) * 1e-4;
    EXPECT_EQ(a.decide(v), b.decide(v));
  }
}

TEST(Comparator, NoiseFlipsMarginalDecisions) {
  ComparatorConfig c = quiet();
  c.noise_vrms = 10e-3;
  Comparator cmp{c, tono::Rng{3}};
  int pos = 0;
  for (int i = 0; i < 2000; ++i) {
    if (cmp.decide(1e-3) > 0) ++pos;  // input well inside the noise
  }
  EXPECT_GT(pos, 900);    // biased positive…
  EXPECT_LT(pos, 1500);   // …but not deterministic
}

TEST(Comparator, LastDecisionTracks) {
  Comparator cmp{quiet(), tono::Rng{1}};
  (void)cmp.decide(1.0);
  EXPECT_EQ(cmp.last_decision(), 1);
  (void)cmp.decide(-1.0);
  EXPECT_EQ(cmp.last_decision(), -1);
}

// The planned decision — plan(), the step kernel's comparator stage and its
// metastable escape — must be bit-identical to decide() for any input
// sequence, including when metastable events force the plan to resync
// mid-frame. The inputs reach the W=1 kernel (bank_kernel.hpp) through a
// pass-through first stage: order 1, g1·u = 0, a1 = 0, no leak, settling or
// clipping, and the first-stage white-noise plan slot carrying each clock's
// comparator input, so the integrator output the comparator sees is the
// input exactly.
void expect_planned_matches_scalar(const ComparatorConfig& c,
                                   std::uint64_t seed, int frames,
                                   std::size_t frame_len) {
  Comparator scalar{c, tono::Rng{seed}};
  Comparator planned{c, tono::Rng{seed}};
  std::vector<double> noise(frame_len);
  std::vector<double> inputs_plan(frame_len);
  std::vector<int> bits(frame_len);
  using namespace bankkernel;
  double state[kNumState] = {};
  state[kD] = state[kLast] = 1.0;
  const double zero = 0.0;
  const double one = 1.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double halfhyst = 0.5 * c.hysteresis_v;
  int* bits_ptr = bits.data();
  PacketView v;
  v.width = 1;
  for (std::size_t f = 0; f < kNumState; ++f) v.state[f] = &state[f];
  for (std::size_t f = 0; f < kNumInvariant; ++f) v.in[f] = &zero;
  v.in[kScale] = v.in[kClockPeriod] = &one;
  v.in[kSwing1] = v.in[kSettle1] = &inf;
  v.in[kCompOffset] = &c.offset_v;
  v.in[kCompHalfHyst] = &halfhyst;
  v.in[kCompBand] = &c.metastable_band_v;
  v.noise[kWhite1] = inputs_plan.data();
  v.noise[kComp] = c.noise_vrms > 0.0 ? noise.data() : nullptr;
  v.order2 = false;
  v.settling = false;
  v.bits = &bits_ptr;
  v.ctx = &planned;
  v.metastable_fn = [](void* ctx, std::size_t, std::size_t clock) {
    return static_cast<double>(
        static_cast<Comparator*>(ctx)->decide_metastable_at(clock));
  };
  tono::Rng inputs{seed ^ 0xABCDu};
  for (int f = 0; f < frames; ++f) {
    for (double& x : inputs_plan) x = inputs.uniform(-0.2, 0.2);
    if (tono::Rng* stream = planned.plan(noise.data(), frame_len)) {
      stream->fill_gaussian(noise.data(), frame_len, 0.0, c.noise_vrms);
    }
    bankkernel::run_packets_scalar(&v, 1, frame_len);
    for (std::size_t i = 0; i < frame_len; ++i) {
      ASSERT_EQ(scalar.decide(inputs_plan[i]), bits[i])
          << "frame=" << f << " i=" << i;
    }
    ASSERT_EQ(static_cast<double>(scalar.last_decision()), state[kLast]);
  }
}

TEST(Comparator, PlannedMatchesScalarWithNoise) {
  ComparatorConfig c;  // defaults: noise on, 10 µV metastable band
  expect_planned_matches_scalar(c, 2025, 8, 128);
}

TEST(Comparator, PlannedMatchesScalarUnderHeavyMetastability) {
  ComparatorConfig c;
  c.metastable_band_v = 0.15;  // most decisions inside the band → resyncs
  expect_planned_matches_scalar(c, 7, 8, 128);
}

TEST(Comparator, PlannedMatchesScalarWithNoiseDisabled) {
  ComparatorConfig c = quiet();
  c.metastable_band_v = 0.05;  // Bernoulli draws straight off the stream
  expect_planned_matches_scalar(c, 11, 4, 64);
}

TEST(Comparator, PlannedMatchesScalarWithHysteresisAndOffset) {
  ComparatorConfig c;
  c.offset_v = 5e-3;
  c.hysteresis_v = 20e-3;
  c.metastable_band_v = 0.02;
  expect_planned_matches_scalar(c, 99, 6, 128);
}

}  // namespace
}  // namespace tono::analog
