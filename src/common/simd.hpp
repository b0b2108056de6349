// simd.hpp — runtime dispatch for the vectorized hot paths.
//
// tonosim's bit-exactness contracts (block == scalar, bank lane == solo,
// gcc == clang golden codes) survive vectorization only because every kernel
// is restricted to operations that IEEE 754 defines exactly: elementwise
// add/sub/mul/div/sqrt, comparisons and sign manipulation round identically
// whether executed one lane at a time or four. Anything transcendental
// (the pinned log in the ziggurat's rare paths, exp() in op-amp settling)
// stays scalar, and the kernels call out of the vector for those lanes.
//
// Dispatch model:
//   * compiled_level(): the best kernel compiled into this binary. Gated by
//     the TONO_SIMD CMake option (OFF → scalar only) and the target arch.
//   * runtime_level(): compiled_level() clamped by what the CPU executing us
//     actually supports (AVX2 kernels are compiled with -mavx2 into their own
//     translation units and only ever entered behind this check).
//   * active_level(): runtime_level() overridden by the TONO_SIMD environment
//     variable — the scalar escape hatch. Resolved once, cached; consumers
//     (ModulatorBank, Rng multi-fill) read it at construction/dispatch time.
//
// TONO_SIMD env values: "scalar"/"off"/"0" force the scalar path, "avx2" /
// "neon" request a specific kernel (falling back to runtime_level() with a
// one-time stderr warning if unavailable), "auto"/"" / unset use
// runtime_level(). The same knob exists at build time as the TONO_SIMD CMake
// option; docs/PERFORMANCE.md "SIMD" documents both.
#pragma once

#include <cstddef>
#include <string>

namespace tono::simd {

enum class Level {
  kScalar = 0,
  kNeon = 1,  ///< 2 × f64 (aarch64 baseline)
  kAvx2 = 2,  ///< 4 × f64
};

[[nodiscard]] const char* level_name(Level level) noexcept;

/// Vector width in doubles: 1 / 2 / 4.
[[nodiscard]] std::size_t level_width(Level level) noexcept;

/// Best kernel compiled into this binary (TONO_SIMD CMake option + arch).
[[nodiscard]] Level compiled_level() noexcept;

/// compiled_level() clamped by the executing CPU's capabilities.
[[nodiscard]] Level runtime_level() noexcept;

/// runtime_level() overridden by the TONO_SIMD environment variable.
/// Resolved on first call, then cached (so a bank constructed after a
/// force_active_level() in tests sees the forced value, not the env).
[[nodiscard]] Level active_level() noexcept;

/// Pure resolution rule behind active_level(), exposed for tests:
/// `env` is the TONO_SIMD value (nullptr = unset), `runtime` the capability
/// ceiling. Unavailable requests fall back to `runtime`.
[[nodiscard]] Level resolve_level(const char* env, Level runtime) noexcept;

/// Overrides the cached active level (clamped to runtime_level(); scalar is
/// always honored). Returns the level actually set. For tests and for tools
/// that compare vector vs scalar output in one process (golden self-checks);
/// only affects objects constructed afterwards.
Level force_active_level(Level level) noexcept;

/// Detected CPU features relevant to the kernels, comma-joined (e.g.
/// "sse2,avx,avx2,fma" / "neon" / ""). Recorded in BENCH_perf.json metadata
/// so cross-machine trajectories are interpretable.
[[nodiscard]] std::string cpu_features();

}  // namespace tono::simd
