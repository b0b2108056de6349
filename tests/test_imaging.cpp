// Tests for tactile imaging via the scanned array.
#include "src/core/imaging.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "src/common/units.hpp"

namespace tono::core {
namespace {

ChipConfig wide_chip(std::size_t rows = 2, std::size_t cols = 4) {
  auto chip = ChipConfig::paper_chip();
  chip.array.rows = rows;
  chip.array.cols = cols;
  chip.mux.rows = rows;
  chip.mux.cols = cols;
  return chip;
}

TEST(Imaging, FrameDimensionsMatchArray) {
  AcquisitionPipeline pipe{wide_chip(2, 4)};
  TactileImager imager;
  const auto frame =
      imager.capture(pipe, [](double, double, double) { return 1000.0; });
  EXPECT_EQ(frame.rows, 2u);
  EXPECT_EQ(frame.cols, 4u);
  EXPECT_EQ(frame.pixels.size(), 8u);
  EXPECT_GT(frame.end_s, frame.start_s);
}

TEST(Imaging, PixelsTrackSpatialGradient) {
  AcquisitionPipeline pipe{wide_chip(1, 4)};
  // Pressure grows with x: right pixels must read higher.
  auto field = [](double x, double, double) {
    return units::mmhg_to_pa(20.0 + 2.0e5 * x);  // ±150 µm → ∓30 mmHg
  };
  TactileImager imager;
  imager.calibrate(pipe, [](double, double, double) { return units::mmhg_to_pa(20.0); });
  const auto frame = imager.capture(pipe, field);
  for (std::size_t c = 1; c < frame.cols; ++c) {
    EXPECT_GT(frame.at(0, c), frame.at(0, c - 1)) << "col " << c;
  }
}

TEST(Imaging, FlatFieldRemovesElementMismatchOffsets) {
  // Under the reference field itself, a calibrated frame reads only the
  // converter noise, while a raw frame carries each element's mismatch
  // offset (0.2 % of C_s ≈ 0.03 FS, far above the noise).
  const auto flat = [](double, double, double) { return units::mmhg_to_pa(20.0); };
  AcquisitionPipeline pipe{wide_chip(2, 4)};
  TactileImager imager;
  const auto raw = imager.capture(pipe, flat);
  imager.calibrate(pipe, flat);
  ASSERT_EQ(imager.flat_field().size(), 8u);
  const auto frame = imager.capture(pipe, flat);
  double raw_spread = 0.0;
  for (std::size_t p = 0; p < raw.pixels.size(); ++p) {
    raw_spread = std::max(raw_spread, std::abs(raw.pixels[p] - raw.pixels[0]));
    EXPECT_NEAR(frame.pixels[p], 0.0, 0.002) << "pixel " << p;
  }
  EXPECT_GT(raw_spread, 0.01);

  AcquisitionPipeline other{wide_chip(1, 4)};
  EXPECT_THROW((void)imager.capture(other, flat), std::invalid_argument);
  EXPECT_THROW(imager.calibrate(pipe, flat, 0), std::invalid_argument);
}

TEST(Imaging, FrameTimeMatchesFormula) {
  AcquisitionPipeline pipe{wide_chip(2, 2)};
  TactileImager imager;
  const auto frame =
      imager.capture(pipe, [](double, double, double) { return 0.0; });
  const double measured = frame.end_s - frame.start_s;
  EXPECT_NEAR(measured, 1.0 / imager.frame_rate_hz(pipe), 0.05 * measured);
}

TEST(Imaging, FrameRateScalesInverselyWithArraySize) {
  AcquisitionPipeline small{wide_chip(2, 2)};
  AcquisitionPipeline large{wide_chip(2, 4)};
  TactileImager imager;
  EXPECT_NEAR(imager.frame_rate_hz(small) / imager.frame_rate_hz(large), 2.0, 1e-9);
}

TEST(Imaging, SequenceCapturesMotion) {
  // A pulsating source: frames taken at different beat phases differ.
  AcquisitionPipeline pipe{wide_chip(2, 2)};
  auto field = [](double, double, double t) {
    return units::mmhg_to_pa(30.0 + 20.0 * std::sin(2.0 * std::numbers::pi * 1.5 * t));
  };
  ImagerConfig cfg;
  cfg.settle_samples = 12;
  cfg.dwell_samples = 4;
  TactileImager imager{cfg};
  const auto frames = imager.capture_sequence(pipe, field, 8);
  ASSERT_EQ(frames.size(), 8u);
  double lo = 1e9;
  double hi = -1e9;
  for (const auto& f : frames) {
    lo = std::min(lo, f.at(0, 0));
    hi = std::max(hi, f.at(0, 0));
  }
  EXPECT_GT(hi - lo, 10.0 / 2048.0);  // the pulsation is visible across frames
}

TEST(Imaging, PaperArrayFrameRateUsefulForPulse) {
  // 2x2 at (12+4) samples/element → ~15 frames/s: enough to image a 1-2 Hz
  // pulse, exactly the §2 localization use case.
  AcquisitionPipeline pipe{AcquisitionPipeline{ChipConfig::paper_chip()}};
  TactileImager imager;
  const double rate = imager.frame_rate_hz(pipe);
  EXPECT_GT(rate, 5.0);
  EXPECT_LT(rate, 100.0);
}

TEST(Imaging, RejectsZeroDwell) {
  ImagerConfig bad;
  bad.dwell_samples = 0;
  EXPECT_THROW((TactileImager{bad}), std::invalid_argument);
}

TEST(Imaging, AtThrowsOutOfRange) {
  TactileFrame f;
  f.rows = 1;
  f.cols = 1;
  f.pixels = {0.5};
  EXPECT_THROW((void)f.at(1, 0), std::out_of_range);
}

}  // namespace
}  // namespace tono::core
