// Tests for the SIMD runtime dispatch shim and the multi-stream Gaussian
// fill that backs the vectorized ModulatorBank.
#include "src/common/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/pinned_log.hpp"
#include "src/common/rng.hpp"

namespace tono {
namespace {

/// Restores the ambient dispatch level on scope exit, so tests that force a
/// level cannot leak it into later tests in the same process.
struct LevelGuard {
  LevelGuard() : saved(simd::active_level()) {}
  ~LevelGuard() { simd::force_active_level(saved); }
  simd::Level saved;
};

TEST(Simd, LevelWidths) {
  EXPECT_EQ(simd::level_width(simd::Level::kScalar), 1u);
  EXPECT_EQ(simd::level_width(simd::Level::kNeon), 2u);
  EXPECT_EQ(simd::level_width(simd::Level::kAvx2), 4u);
}

TEST(Simd, LevelNames) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kNeon), "neon");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

TEST(Simd, RuntimeNeverExceedsCompiled) {
  EXPECT_LE(simd::level_width(simd::runtime_level()),
            simd::level_width(simd::compiled_level()));
}

TEST(Simd, ResolveUnsetOrAutoUsesRuntime) {
  for (const auto runtime :
       {simd::Level::kScalar, simd::Level::kNeon, simd::Level::kAvx2}) {
    EXPECT_EQ(simd::resolve_level(nullptr, runtime), runtime);
    EXPECT_EQ(simd::resolve_level("", runtime), runtime);
    EXPECT_EQ(simd::resolve_level("auto", runtime), runtime);
    EXPECT_EQ(simd::resolve_level("AUTO", runtime), runtime);
  }
}

TEST(Simd, ResolveScalarEscapeHatchAlwaysWins) {
  for (const char* hatch : {"scalar", "off", "0", "SCALAR", "Off"}) {
    EXPECT_EQ(simd::resolve_level(hatch, simd::Level::kAvx2),
              simd::Level::kScalar)
        << hatch;
  }
}

TEST(Simd, ResolveMatchingRequestHonored) {
  EXPECT_EQ(simd::resolve_level("avx2", simd::Level::kAvx2), simd::Level::kAvx2);
  EXPECT_EQ(simd::resolve_level("neon", simd::Level::kNeon), simd::Level::kNeon);
}

TEST(Simd, ResolveUnavailableRequestFallsBackToRuntime) {
  // Requesting a kernel the build/CPU can't run is a warning, not an error.
  EXPECT_EQ(simd::resolve_level("avx2", simd::Level::kScalar),
            simd::Level::kScalar);
  EXPECT_EQ(simd::resolve_level("neon", simd::Level::kAvx2), simd::Level::kAvx2);
  EXPECT_EQ(simd::resolve_level("definitely-not-a-level", simd::Level::kAvx2),
            simd::Level::kAvx2);
}

TEST(Simd, ForceActiveLevelScalarAndBack) {
  LevelGuard guard;
  EXPECT_EQ(simd::force_active_level(simd::Level::kScalar),
            simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  // Forcing above the runtime ceiling clamps to it.
  const simd::Level runtime = simd::runtime_level();
  EXPECT_EQ(simd::force_active_level(simd::Level::kAvx2),
            runtime == simd::Level::kAvx2 ? simd::Level::kAvx2 : runtime);
}

TEST(Simd, CpuFeaturesMatchesRuntimeLevel) {
  const std::string features = simd::cpu_features();
  if (simd::runtime_level() == simd::Level::kAvx2) {
    EXPECT_NE(features.find("avx2"), std::string::npos) << features;
  }
#if defined(__x86_64__)
  EXPECT_NE(features.find("sse2"), std::string::npos) << features;
#endif
}

// ---------------------------------------------------------------------------
// pinned::log — the one transcendental in the random draw paths (the
// ziggurat's wedge and tail, Rng::exponential). These pin its scalar
// semantics; its use in the draws is covered by the FillGaussianMulti
// bit-identity suite below and the golden transcripts.

TEST(PinnedLog, SpecialValuesMatchUpstreamSemantics) {
  EXPECT_EQ(pinned::log(1.0), 0.0);
  EXPECT_EQ(pinned::log(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(pinned::log(-0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(pinned::log(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(pinned::log(-1.0)));
  EXPECT_TRUE(
      std::isnan(pinned::log(std::numeric_limits<double>::quiet_NaN())));
}

TEST(PinnedLog, WithinOneUlpOfLibmOnUnitInterval) {
  // The port's worst-case error is ~0.52 ulp (upstream analysis), so it can
  // sit at most 1 ulp from any faithful libm. Sweep uniform draws in (0, 1)
  // — where the wedge heights and the tail's uniforms live — plus the
  // near-1 strip and subnormals.
  const auto ulp_apart = [](double a, double b) {
    const auto ia = std::bit_cast<std::int64_t>(a);
    const auto ib = std::bit_cast<std::int64_t>(b);
    return std::abs(ia - ib);
  };
  Rng rng{2026};
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.uniform();
    if (x == 0.0) continue;
    ASSERT_LE(ulp_apart(pinned::log(x), std::log(x)), 1) << x;
  }
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(1.0 - 0x1p-4, 1.0 + 0x1.09p-4);
    ASSERT_LE(ulp_apart(pinned::log(x), std::log(x)), 1) << x;
  }
  const double subnormal = 0x1p-1060;
  ASSERT_LE(ulp_apart(pinned::log(subnormal), std::log(subnormal)), 1);
}

// ---------------------------------------------------------------------------
// Rng::fill_gaussian_multi — per-stream bit-identity to solo fill_gaussian,
// including end state (subsequent draws).

void expect_multi_matches_solo(std::vector<Rng> streams,
                               const std::vector<std::size_t>& ns) {
  const std::size_t k = streams.size();
  std::vector<Rng> solo = streams;  // value copies, advanced independently
  std::vector<std::vector<double>> want(k);
  for (std::size_t w = 0; w < k; ++w) {
    want[w].resize(ns[w] + 1);
    solo[w].fill_gaussian(want[w].data(), ns[w]);
  }
  std::vector<std::vector<double>> got(k);
  std::vector<Rng*> rngs(k);
  std::vector<double*> dests(k);
  for (std::size_t w = 0; w < k; ++w) {
    got[w].resize(ns[w] + 1);
    rngs[w] = &streams[w];
    dests[w] = got[w].data();
  }
  Rng::fill_gaussian_multi(rngs.data(), dests.data(), ns.data(), k);
  for (std::size_t w = 0; w < k; ++w) {
    for (std::size_t i = 0; i < ns[w]; ++i) {
      ASSERT_EQ(want[w][i], got[w][i]) << "stream=" << w << " i=" << i;
    }
    // End state: the next draws agree.
    for (int extra = 0; extra < 5; ++extra) {
      ASSERT_EQ(solo[w].gaussian(), streams[w].gaussian())
          << "stream=" << w << " extra=" << extra;
    }
  }
}

TEST(FillGaussianMulti, FourStreamsUnequalLengths) {
  std::vector<Rng> streams{Rng{1}, Rng{2}, Rng{3}, Rng{4}};
  expect_multi_matches_solo(streams, {257, 301, 128, 64});
}

TEST(FillGaussianMulti, SpareCachePendingOnEntry) {
  std::vector<Rng> streams{Rng{11}, Rng{22}, Rng{33}, Rng{44}};
  // Streams that drew scalar Gaussians before the fill continue from their
  // own positions, exactly like the scalar fill.
  (void)streams[0].gaussian();
  (void)streams[2].gaussian();
  expect_multi_matches_solo(streams, {129, 128, 127, 130});
}

TEST(FillGaussianMulti, StreamCountsAroundTheGroupWidth) {
  for (std::size_t k : {1u, 2u, 3u, 5u, 7u, 9u}) {
    std::vector<Rng> streams;
    std::vector<std::size_t> ns;
    for (std::size_t w = 0; w < k; ++w) {
      streams.emplace_back(1000 + w);
      ns.push_back(96 + 17 * w);
    }
    expect_multi_matches_solo(streams, ns);
  }
}

TEST(FillGaussianMulti, TinyFillsUseScalarPath) {
  // Fills shorter than a few rounds, and an empty one: the vector phase
  // runs the shortest and each stream's rest is scalar.
  std::vector<Rng> streams{Rng{5}, Rng{6}, Rng{7}, Rng{8}};
  expect_multi_matches_solo(streams, {1, 2, 3, 0});
}

TEST(FillGaussianMulti, MatchesSoloUnderForcedScalar) {
  LevelGuard guard;
  simd::force_active_level(simd::Level::kScalar);
  std::vector<Rng> streams{Rng{91}, Rng{92}, Rng{93}, Rng{94}};
  expect_multi_matches_solo(streams, {200, 200, 200, 200});
}

TEST(FillGaussianMulti, EveryDispatchMatchesScalarDrawLoop) {
  // multi-stream fill == per-stream fill_gaussian == n × gaussian(), under
  // every dispatch level this binary and CPU offer, and every stream ends
  // where the draw loop left it.
  LevelGuard guard;
  const std::vector<std::size_t> ns{1000, 1003, 997, 1000, 640, 128, 7};
  const std::size_t k = ns.size();
  std::vector<std::vector<double>> want(k);
  std::vector<std::uint64_t> want_next(k);
  for (std::size_t w = 0; w < k; ++w) {
    Rng loop{500 + w};
    for (std::size_t i = 0; i < ns[w]; ++i) want[w].push_back(loop.gaussian());
    want_next[w] = loop.next_u64();
    Rng fill{500 + w};
    std::vector<double> filled(ns[w]);
    fill.fill_gaussian(filled.data(), ns[w]);
    ASSERT_EQ(filled, want[w]) << "stream " << w;
    ASSERT_EQ(fill.next_u64(), want_next[w]) << "stream " << w;
  }
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kNeon, simd::Level::kAvx2}) {
    const simd::Level active = simd::force_active_level(level);
    std::vector<Rng> streams;
    for (std::size_t w = 0; w < k; ++w) streams.emplace_back(500 + w);
    std::vector<std::vector<double>> got(k);
    std::vector<Rng*> rngs;
    std::vector<double*> dests;
    for (std::size_t w = 0; w < k; ++w) {
      got[w].resize(ns[w]);
      rngs.push_back(&streams[w]);
      dests.push_back(got[w].data());
    }
    Rng::fill_gaussian_multi(rngs.data(), dests.data(), ns.data(), k);
    for (std::size_t w = 0; w < k; ++w) {
      ASSERT_EQ(got[w], want[w])
          << simd::level_name(active) << " stream " << w;
      ASSERT_EQ(streams[w].next_u64(), want_next[w])
          << simd::level_name(active) << " stream " << w;
    }
  }
}

TEST(FillGaussianMulti, VectorAndScalarProduceIdenticalStreams) {
  // The same four streams filled under the active kernel and under the
  // forced-scalar hatch: the outputs must be bitwise equal — this is the
  // determinism contract the escape hatch exists to demonstrate.
  const std::vector<std::size_t> ns{512, 511, 384, 400};
  std::vector<std::vector<double>> vec_out;
  {
    std::vector<Rng> streams{Rng{71}, Rng{72}, Rng{73}, Rng{74}};
    std::vector<Rng*> rngs;
    std::vector<double*> dests;
    vec_out.resize(4);
    for (std::size_t w = 0; w < 4; ++w) {
      vec_out[w].resize(ns[w]);
      rngs.push_back(&streams[w]);
      dests.push_back(vec_out[w].data());
    }
    Rng::fill_gaussian_multi(rngs.data(), dests.data(), ns.data(), 4);
  }
  LevelGuard guard;
  simd::force_active_level(simd::Level::kScalar);
  std::vector<Rng> streams{Rng{71}, Rng{72}, Rng{73}, Rng{74}};
  std::vector<Rng*> rngs;
  std::vector<double*> dests;
  std::vector<std::vector<double>> sc_out(4);
  for (std::size_t w = 0; w < 4; ++w) {
    sc_out[w].resize(ns[w]);
    rngs.push_back(&streams[w]);
    dests.push_back(sc_out[w].data());
  }
  Rng::fill_gaussian_multi(rngs.data(), dests.data(), ns.data(), 4);
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t i = 0; i < ns[w]; ++i) {
      ASSERT_EQ(vec_out[w][i], sc_out[w][i]) << "stream=" << w << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace tono
