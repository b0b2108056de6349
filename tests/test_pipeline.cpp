// Tests for the full acquisition pipeline (Fig. 3 signal path).
#include "src/core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>
#include <numbers>

#include "src/common/checkpoint.hpp"
#include "src/common/statistics.hpp"
#include "src/common/units.hpp"

namespace tono::core {
namespace {

TEST(Pipeline, RatesMatchPaper) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  EXPECT_DOUBLE_EQ(pipe.clock_rate_hz(), 128000.0);
  EXPECT_DOUBLE_EQ(pipe.output_rate_hz(), 1000.0);
}

TEST(Pipeline, ProducesRequestedSampleCount) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  const auto out = pipe.acquire_uniform([](double) { return 0.0; }, 100);
  EXPECT_EQ(out.size(), 100u);
}

TEST(Pipeline, TimeAdvancesWithClock) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  (void)pipe.acquire_uniform([](double) { return 0.0; }, 10);
  EXPECT_NEAR(pipe.time_s(), 10.0 * 128.0 / 128000.0, 1e-9);
}

TEST(PipelineClock, TimeIsClockCountOverClockRate) {
  // Time is derived from an integer clock count, never accumulated: block
  // frames, scalar clocks and the parallel array all report count / f_clk.
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  ArrayAcquisition array{ChipConfig::paper_chip()};
  const std::size_t osr = pipe.config().decimation.total_decimation;
  const double p = units::mmhg_to_pa(20.0);
  for (int frame = 0; frame < 5; ++frame) (void)pipe.clock_block(p);
  for (int i = 0; i < 37; ++i) (void)pipe.clock(p);
  EXPECT_EQ(pipe.clocks(), 5 * osr + 37);
  EXPECT_EQ(pipe.time_s(), static_cast<double>(5 * osr + 37) / pipe.clock_rate_hz());
  (void)array.acquire_block([p](double, double, double) { return p; }, 3);
  EXPECT_EQ(array.clocks(), 3 * osr);
  EXPECT_EQ(array.time_s(), static_cast<double>(3 * osr) / array.clock_rate_hz());
}

TEST(PipelineClock, DayLongClockCountRestoresToExactTime) {
  // 24 h of 128 kHz clocks. The old `t += 1/f_clk` accumulation was 11 ms
  // off by now; the count gives the exact time before and after a frame.
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  const double p = units::mmhg_to_pa(20.0);
  (void)pipe.clock_block(p);
  CheckpointWriter out;
  pipe.serialize(out);
  const auto blob = out.finish(1);
  // The pipeline section ends with the clock count, the last switch's
  // clock, the last capacitance and the die temperature, 8 bytes each.
  std::vector<std::uint8_t> payload(blob.end() - static_cast<std::ptrdiff_t>(out.bytes_written()),
                                    blob.end());
  const std::uint64_t day = 86400ull * 128000ull;
  for (std::size_t b = 0; b < 8; ++b) {
    payload[payload.size() - 32 + b] = static_cast<std::uint8_t>(day >> (8 * b));
  }
  CheckpointWriter patched;
  for (const std::uint8_t byte : payload) patched.u8(byte);
  CheckpointReader in{patched.finish(1)};
  AcquisitionPipeline restored{ChipConfig::paper_chip()};
  restored.restore(in);
  in.expect_end();
  EXPECT_EQ(restored.clocks(), day);
  EXPECT_EQ(restored.time_s(), 86400.0);
  (void)restored.clock_block(p);
  const std::uint64_t later = day + restored.config().decimation.total_decimation;
  EXPECT_EQ(restored.clocks(), later);
  EXPECT_EQ(restored.time_s(), static_cast<double>(later) / restored.clock_rate_hz());
  EXPECT_EQ(restored.time_s(), 86400.001);
}

TEST(Pipeline, ConstantPressureGivesStableOutput) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  const double p = units::mmhg_to_pa(20.0);
  const auto out = pipe.acquire_uniform([=](double) { return p; }, 400);
  std::vector<double> tail;
  for (std::size_t i = 200; i < out.size(); ++i) tail.push_back(out[i].value);
  // Converter noise only: the spread stays within a few LSB.
  EXPECT_LT(stddev(tail), 6.0 / 2048.0);
}

TEST(Pipeline, OutputTracksPressureDirection) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  auto settle_mean = [&](double p_mmhg) {
    pipe.reset();
    const auto out =
        pipe.acquire_uniform([=](double) { return units::mmhg_to_pa(p_mmhg); }, 300);
    std::vector<double> tail;
    for (std::size_t i = 150; i < out.size(); ++i) tail.push_back(out[i].value);
    return mean(tail);
  };
  const double lo = settle_mean(0.0);
  const double hi = settle_mean(40.0);
  EXPECT_GT(hi, lo);  // more contact pressure → more capacitance → higher code
}

TEST(Pipeline, SinusoidalPressureComesThrough) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  const double f = 5.0;  // heart-beat-scale frequency
  const auto out = pipe.acquire_uniform(
      [&](double t) {
        return units::mmhg_to_pa(20.0 + 15.0 * std::sin(2.0 * std::numbers::pi * f * t));
      },
      2000);
  std::vector<double> tail;
  for (std::size_t i = 1000; i < out.size(); ++i) tail.push_back(out[i].value);
  // Oscillation must be clearly visible above the noise.
  EXPECT_GT(peak_to_peak(tail), 20.0 / 2048.0);
  // And roughly periodic at 5 Hz: count crossings of the centered tail with
  // hysteresis at a quarter of the peak-to-peak, so LSB-level noise around
  // the mean cannot chatter one crossing into several.
  const double m = mean(tail);
  const double band = 0.25 * peak_to_peak(tail);
  int crossings = 0;
  int side = tail[0] > m ? 1 : -1;
  for (const double v : tail) {
    if (side < 0 && v > m + band) {
      side = 1;
      ++crossings;
    } else if (side > 0 && v < m - band) {
      side = -1;
      ++crossings;
    }
  }
  EXPECT_NEAR(crossings, 10, 4);  // 5 Hz over 1 s → 10 crossings
}

TEST(Pipeline, SelectSwitchesElement) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  pipe.select(1, 1);
  EXPECT_EQ(pipe.selected_row(), 1u);
  EXPECT_EQ(pipe.selected_col(), 1u);
}

TEST(Pipeline, SwitchTransientSettlesWithinGroupDelay) {
  // §2.2: settling after a mux switch is limited by the converter's signal
  // bandwidth — i.e. the decimation-chain transient, not the analog mux.
  auto cfg = ChipConfig::paper_chip();
  AcquisitionPipeline pipe{cfg};
  const double p = units::mmhg_to_pa(30.0);
  auto field = [=](double, double, double) { return p; };
  (void)pipe.acquire(field, 200);  // settle on element (0,0)
  // Capture steady level of element (1,1) for reference.
  pipe.select(1, 1);
  const auto after = pipe.acquire(field, 200);
  std::vector<double> tail;
  for (std::size_t i = 100; i < after.size(); ++i) tail.push_back(after[i].value);
  const double steady = mean(tail);
  // The first samples after the switch differ (transient), later ones match.
  const double gd_samples = pipe.decimation().group_delay_seconds() * 1000.0;
  const std::size_t settle_n = static_cast<std::size_t>(4.0 * gd_samples) + 8;
  for (std::size_t i = settle_n; i < 100; ++i) {
    EXPECT_NEAR(after[i].value, steady, 8.0 / 2048.0) << "sample " << i;
  }
}

TEST(Pipeline, DeltaCFullScaleMatchesModulator) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  // paper_chip uses C_fb1 = 5 fF with V_exc = V_ref.
  EXPECT_NEAR(pipe.delta_c_full_scale(), 5e-15, 0.2e-15);
}

TEST(Pipeline, ResetRestartsCleanly) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  (void)pipe.acquire_uniform([](double) { return 1000.0; }, 50);
  pipe.reset();
  EXPECT_DOUBLE_EQ(pipe.time_s(), 0.0);
  const auto out = pipe.acquire_uniform([](double) { return 0.0; }, 10);
  EXPECT_EQ(out.size(), 10u);
}

TEST(Pipeline, FieldSeesElementCoordinates) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  // A field with a strong x-gradient produces different outputs on the two
  // columns.
  auto field = [](double x, double, double) {
    return units::mmhg_to_pa(x > 0.0 ? 40.0 : 0.0);
  };
  pipe.select(0, 0);
  const auto left = pipe.acquire(field, 300);
  pipe.select(0, 1);
  const auto right = pipe.acquire(field, 300);
  std::vector<double> lt;
  std::vector<double> rt;
  for (std::size_t i = 150; i < 300; ++i) {
    lt.push_back(left[i].value);
    rt.push_back(right[i].value);
  }
  EXPECT_GT(mean(rt), mean(lt) + 5.0 / 2048.0);
}

TEST(PipelineBlock, ClockBlockMatchesScalarBitIdentical) {
  // The block-mode contract: clock_block() must emit exactly the same sample
  // sequence — code AND value — as OSR scalar clock() calls, including every
  // RNG draw, and leave the pipeline in an identical state.
  AcquisitionPipeline scalar{ChipConfig::paper_chip()};
  AcquisitionPipeline block{ChipConfig::paper_chip()};
  const std::size_t osr = scalar.config().decimation.total_decimation;
  const double p = units::mmhg_to_pa(35.0);
  for (int frame = 0; frame < 40; ++frame) {
    std::optional<dsp::DecimatedSample> want;
    for (std::size_t i = 0; i < osr; ++i) {
      if (auto s = scalar.clock(p)) want = s;
    }
    ASSERT_TRUE(want.has_value());
    const auto got = block.clock_block(p);
    ASSERT_EQ(got.code, want->code) << "frame " << frame;
    ASSERT_EQ(got.value, want->value) << "frame " << frame;
  }
  EXPECT_EQ(block.clocks(), scalar.clocks());
  EXPECT_EQ(block.time_s(), scalar.time_s());
}

TEST(PipelineBlock, MatchesScalarAcrossMuxTransient) {
  // Right after select() the mux transient forces the scalar fallback inside
  // clock_block(); the sequence must still be bit-identical.
  AcquisitionPipeline scalar{ChipConfig::paper_chip()};
  AcquisitionPipeline block{ChipConfig::paper_chip()};
  const std::size_t osr = scalar.config().decimation.total_decimation;
  const double p = units::mmhg_to_pa(25.0);
  auto run_frames = [&](int n_frames) {
    for (int f = 0; f < n_frames; ++f) {
      std::optional<dsp::DecimatedSample> want;
      for (std::size_t i = 0; i < osr; ++i) {
        if (auto s = scalar.clock(p)) want = s;
      }
      const auto got = block.clock_block(p);
      ASSERT_TRUE(want.has_value());
      ASSERT_EQ(got.code, want->code);
      ASSERT_EQ(got.value, want->value);
    }
  };
  run_frames(3);
  scalar.select(1, 1);
  block.select(1, 1);
  run_frames(5);  // first frame lands inside the transient window
}

TEST(PipelineBlock, BlockMatchesScalarAtArbitraryChainPhase) {
  // Mix scalar clocks and block frames on one pipeline: 37 scalar clocks
  // leave the chain mid-frame, after which clock_block() must still return
  // exactly one sample per call and agree with an all-scalar twin.
  AcquisitionPipeline scalar{ChipConfig::paper_chip()};
  AcquisitionPipeline mixed{ChipConfig::paper_chip()};
  const std::size_t osr = mixed.config().decimation.total_decimation;
  const double p = units::mmhg_to_pa(15.0);
  for (std::size_t i = 0; i < 37; ++i) {
    (void)scalar.clock(p);
    (void)mixed.clock(p);
  }
  for (int frame = 0; frame < 10; ++frame) {
    std::optional<dsp::DecimatedSample> want;
    for (std::size_t i = 0; i < osr; ++i) {
      if (auto s = scalar.clock(p)) want = s;
    }
    const auto got = mixed.clock_block(p);
    ASSERT_TRUE(want.has_value());
    ASSERT_EQ(got.code, want->code) << "frame " << frame;
  }
}

TEST(PipelineBlock, AcquireUniformBlockProducesRequestedCount) {
  AcquisitionPipeline pipe{ChipConfig::paper_chip()};
  const auto out =
      pipe.acquire_uniform_block([](double) { return units::mmhg_to_pa(20.0); }, 100);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_NEAR(pipe.time_s(), 100.0 * 128.0 / 128000.0, 1e-9);
}

TEST(PipelineBlock, AcquireBlockTracksAcquireClosely) {
  // acquire_block() holds pressure constant within each output frame, so it
  // is not bit-identical to acquire() — but for physiological signal rates
  // (~1 Hz against a 1 kHz frame rate) the two must agree to a few LSB.
  AcquisitionPipeline a{ChipConfig::paper_chip()};
  AcquisitionPipeline b{ChipConfig::paper_chip()};
  auto wave = [](double t) {
    return units::mmhg_to_pa(20.0 + 10.0 * std::sin(2.0 * std::numbers::pi * 1.2 * t));
  };
  const auto sa = a.acquire_uniform(wave, 300);
  const auto sb = b.acquire_uniform_block(wave, 300);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 50; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i].value, sb[i].value, 8.0 / 2048.0) << "sample " << i;
  }
}

}  // namespace
}  // namespace tono::core
