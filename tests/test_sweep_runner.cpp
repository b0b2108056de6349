// test_sweep_runner.cpp — the determinism contract of the parallel sweep
// engine: parallel execution must be bit-identical to serial, results must
// arrive in trial order, and exceptions must propagate like a serial loop's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/chip_config.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/sweep_runner.hpp"

namespace {

using tono::Rng;
using tono::core::SweepConfig;
using tono::core::SweepRunner;

TEST(SweepRunnerTest, TrialRngDependsOnlyOnIndexAndConfig) {
  SweepRunner a{{.threads = 1, .base_seed = 7, .stream_name = "x"}};
  SweepRunner b{{.threads = 4, .base_seed = 7, .stream_name = "x"}};
  for (std::size_t i : {0u, 1u, 17u}) {
    Rng ra = a.trial_rng(i);
    Rng rb = b.trial_rng(i);
    for (int k = 0; k < 8; ++k) EXPECT_EQ(ra.next_u64(), rb.next_u64());
  }
  // Distinct indices and distinct stream names give distinct streams.
  Rng r0 = a.trial_rng(0);
  Rng r1 = a.trial_rng(1);
  EXPECT_NE(r0.next_u64(), r1.next_u64());
  SweepRunner c{{.threads = 1, .base_seed = 7, .stream_name = "y"}};
  Rng rc = c.trial_rng(0);
  Rng ra0 = a.trial_rng(0);
  EXPECT_NE(ra0.next_u64(), rc.next_u64());
}

TEST(SweepRunnerTest, ParallelMatchesSerialBitIdentical) {
  const auto trial = [](std::size_t i, Rng& rng) {
    // Enough draws and arithmetic that any stream-sharing or reordering bug
    // would change the bits.
    double acc = static_cast<double>(i);
    for (int k = 0; k < 1000; ++k) acc += rng.gaussian() * rng.uniform();
    return acc;
  };
  SweepRunner serial{{.threads = 1, .base_seed = 99}};
  SweepRunner parallel{{.threads = 4, .base_seed = 99}};
  const auto a = serial.run(64, trial);
  const auto b = parallel.run(64, trial);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "trial " << i;  // exact double equality intended
  }
}

TEST(SweepRunnerTest, PipelineTrialsMatchSerialBitIdentical) {
  // Full acquisition pipelines, seeded per trial: the heavyweight version of
  // the determinism contract that the benches rely on.
  const auto trial = [](std::size_t, Rng& rng) {
    tono::core::ChipConfig chip = tono::core::ChipConfig::paper_chip();
    chip.modulator.seed = rng.next_u64();
    tono::core::AcquisitionPipeline pipe{chip};
    const auto samples = pipe.acquire_uniform_block(
        [](double t) { return 8000.0 + 500.0 * t; }, 20);
    std::int64_t sum = 0;
    for (const auto& s : samples) sum += s.code;
    return sum;
  };
  SweepRunner serial{{.threads = 1, .base_seed = 5}};
  SweepRunner parallel{{.threads = 4, .base_seed = 5}};
  EXPECT_EQ(serial.run(8, trial), parallel.run(8, trial));
}

TEST(SweepRunnerTest, ResultsArriveInTrialOrder) {
  SweepRunner runner{{.threads = 4}};
  const auto out = runner.run(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunnerTest, MapPreservesInputOrder) {
  SweepRunner runner{{.threads = 3}};
  std::vector<double> inputs(25);
  std::iota(inputs.begin(), inputs.end(), 1.0);
  const auto out = runner.map(inputs, [](double x) { return 2.0 * x; });
  ASSERT_EQ(out.size(), inputs.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 2.0 * inputs[i]);
}

TEST(SweepRunnerTest, LowestIndexExceptionPropagates) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SweepRunner runner{{.threads = threads}};
    try {
      (void)runner.run(32, [](std::size_t i) -> int {
        if (i == 7 || i == 20) throw std::runtime_error{"trial " + std::to_string(i)};
        return 0;
      });
      FAIL() << "expected exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 7");
    }
  }
}

TEST(SweepRunnerTest, ZeroThreadsResolvesToHardwareConcurrency) {
  const std::size_t hardware =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  SweepRunner runner{{.threads = 0}};
  EXPECT_EQ(runner.thread_count(), hardware);
  EXPECT_GE(runner.thread_count(), 1u);
  EXPECT_EQ(SweepRunner{{.threads = 3}}.thread_count(), 3u);
  const auto out = runner.run(10, [](std::size_t i) { return i + 1; });
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(SweepRunnerTest, ZeroTrialsIsANoOp) {
  SweepRunner runner{{.threads = 4}};
  const auto out = runner.run(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(out.empty());
}

}  // namespace
