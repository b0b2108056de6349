// Tests for the sensor array and its capacitance lookup tables.
#include "src/core/sensor_array.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "src/common/units.hpp"

namespace tono::core {
namespace {

TEST(SensorArray, PaperArrayIsTwoByTwo) {
  SensorArray arr{ChipConfig::paper_chip()};
  EXPECT_EQ(arr.rows(), 2u);
  EXPECT_EQ(arr.cols(), 2u);
  EXPECT_EQ(arr.size(), 4u);
}

TEST(SensorArray, ElementPositionsOnPitch) {
  const auto cfg = ChipConfig::paper_chip();
  SensorArray arr{cfg};
  // 2x2 on 150 µm pitch, centered: positions ±75 µm.
  const double half = cfg.array.pitch_m / 2.0;
  EXPECT_NEAR(arr.element(0, 0).position().x_m, -half, 1e-12);
  EXPECT_NEAR(arr.element(0, 1).position().x_m, +half, 1e-12);
  EXPECT_NEAR(arr.element(0, 0).position().y_m, -half, 1e-12);
  EXPECT_NEAR(arr.element(1, 0).position().y_m, +half, 1e-12);
}

TEST(SensorArray, LutMatchesExactIntegral) {
  SensorArray arr{ChipConfig::paper_chip()};
  const auto& e = arr.element(0, 0);
  for (double p_mmhg : {-100.0, -20.0, 0.0, 30.0, 80.0, 150.0, 300.0}) {
    const double p = units::mmhg_to_pa(p_mmhg);
    const double exact = e.capacitance_exact(p);
    const double lut = e.capacitance(p);
    EXPECT_NEAR(lut, exact, 1e-5 * exact) << "p = " << p_mmhg << " mmHg";
  }
}

TEST(SensorArray, LutErrorSmallVsSignalSwing) {
  // The LUT error must be far below the capacitance change produced by one
  // mmHg of pressure, or it would alias into the waveform.
  SensorArray arr{ChipConfig::paper_chip()};
  const auto& e = arr.element(0, 0);
  const double swing_per_mmhg =
      e.capacitance_exact(units::mmhg_to_pa(1.0)) - e.capacitance_exact(0.0);
  double worst = 0.0;
  for (double p_mmhg = -50.0; p_mmhg <= 200.0; p_mmhg += 7.3) {
    const double p = units::mmhg_to_pa(p_mmhg);
    worst = std::max(worst, std::abs(e.capacitance(p) - e.capacitance_exact(p)));
  }
  EXPECT_LT(worst, 0.05 * std::abs(swing_per_mmhg));
}

TEST(SensorArray, ElementsCarryDistinctMismatch) {
  SensorArray arr{ChipConfig::paper_chip()};
  std::set<double> caps;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    caps.insert(arr.element(i).capacitance(0.0));
  }
  EXPECT_EQ(caps.size(), arr.size());
}

TEST(SensorArray, MismatchIsDeterministicPerSeed) {
  SensorArray a{ChipConfig::paper_chip()};
  SensorArray b{ChipConfig::paper_chip()};
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.element(i).capacitance(0.0), b.element(i).capacitance(0.0));
  }
  auto cfg = ChipConfig::paper_chip();
  cfg.seed = 999;
  SensorArray c{cfg};
  EXPECT_NE(a.element(0).capacitance(0.0), c.element(0).capacitance(0.0));
}

TEST(SensorArray, ReferenceCapacitancePlausible) {
  SensorArray arr{ChipConfig::paper_chip()};
  EXPECT_GT(arr.reference_capacitance(), 50e-15);
  EXPECT_LT(arr.reference_capacitance(), 200e-15);
}

TEST(SensorArray, CapacitanceMonotoneInPressure) {
  SensorArray arr{ChipConfig::paper_chip()};
  double prev = arr.capacitance(0, 0, units::mmhg_to_pa(-50.0));
  for (double p = -40.0; p <= 200.0; p += 10.0) {
    const double c = arr.capacitance(0, 0, units::mmhg_to_pa(p));
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(SensorArray, OutOfRangeAccessThrows) {
  SensorArray arr{ChipConfig::paper_chip()};
  EXPECT_THROW((void)arr.element(2, 0), std::out_of_range);
  EXPECT_THROW((void)arr.element(0, 2), std::out_of_range);
  EXPECT_THROW((void)arr.element(4), std::out_of_range);
}

TEST(SensorArray, LargerArraySupported) {
  auto cfg = ChipConfig::paper_chip();
  cfg.array.rows = 4;
  cfg.array.cols = 8;
  cfg.mux.rows = 4;
  cfg.mux.cols = 8;
  SensorArray arr{cfg};
  EXPECT_EQ(arr.size(), 32u);
  // Outermost columns symmetric about the center.
  EXPECT_NEAR(arr.element(0, 0).position().x_m, -arr.element(0, 7).position().x_m, 1e-12);
}

TEST(SensorArray, SharedLutKnotsEqualExactCapacitanceBitForBit) {
  // The quadrature behind the LUT runs once per membrane physics; each
  // element scales the shared table by its own mismatch. At every knot the
  // spline returns its knot value, which must be the exact transducer
  // capacitance bit for bit, whatever the mismatch draw.
  constexpr double kLo = -30e3;
  constexpr double kHi = 60e3;
  constexpr std::size_t kKnots = 241;
  for (const std::uint64_t seed : {1ull, 2ull, 77ull}) {
    auto cfg = ChipConfig::paper_chip();
    cfg.seed = seed;
    // Two membrane loads, so a table cached for one must not serve the other.
    cfg.transducer.backpressure_pa = seed == 2 ? 0.0 : units::mmhg_to_pa(80.0);
    const SensorArray arr{cfg, kLo, kHi};
    for (std::size_t k = 0; k < arr.size(); ++k) {
      const auto& e = arr.element(k);
      for (std::size_t i = 0; i < kKnots; ++i) {
        const double p = kLo + (kHi - kLo) * static_cast<double>(i) / (kKnots - 1);
        ASSERT_EQ(e.capacitance(p), e.transducer().capacitance(p))
            << "seed " << seed << " element " << k << " knot " << i;
      }
    }
  }
}

TEST(SensorArray, RejectsBadConfig) {
  auto cfg = ChipConfig::paper_chip();
  cfg.array.rows = 0;
  EXPECT_THROW((SensorArray{cfg}), std::invalid_argument);
  EXPECT_THROW((SensorArray{ChipConfig::paper_chip(), 10.0, -10.0}), std::invalid_argument);
}

}  // namespace
}  // namespace tono::core
