// pinned_log.hpp — a pinned, vectorizable natural log for the random draw
// paths.
//
// Every transcendental in Rng's draw paths is this one log: the ziggurat's
// wedge test and tail (src/common/ziggurat.hpp) and Rng::exponential. libm's
// log carries no cross-implementation bit guarantee and cannot be mirrored
// lane-for-lane in a SIMD kernel, so a libm call would break the "bank lane
// == solo modulator" and "gcc == clang == every SIMD dispatch" contracts at
// the first 1-ulp libm divergence. This header pins the implementation
// instead: a double-precision port of the ARM optimized-routines log (the
// MIT-licensed algorithm glibc ≥ 2.28 and musl ship), so every draw agrees
// bit for bit on any libc.
//
// Structure (mirrors upstream log.c exactly):
//   * main path: x = 2^k·z, z in [0x1.6p-1, 0x1.6p0) split into 128
//     subintervals; r = fma(z, invc, -1), log(x) = k·ln2 + log(c) +
//     log1p(r) via a degree-5 polynomial. One table lookup + one fma —
//     everything a vector lane could reproduce exactly (fma is correctly
//     rounded by definition, the rest is elementwise IEEE arithmetic, and
//     the repo-global -ffp-contract=off stops the compiler from fusing
//     anything further).
//   * near-1 path (|x−1| ≲ 2^-4): table-free higher-degree polynomial with
//     a split-compensation tail.
//   * zero/negative/inf/nan/subnormal: upstream semantics.
// Worst-case error ≈ 0.52 ulp (upstream analysis); verified here against
// this platform's libm to agree to the last bit on > 99.999% of uniform
// draws (the remainder differ by 1 ulp — see test_simd.cpp).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace tono::pinned {

inline constexpr int kTableBits = 7;
inline constexpr std::uint64_t kOff = 0x3fe6000000000000ULL;
/// Near-1 interval bounds as raw bits: [1 - 0x1p-4, 1 + 0x1.09p-4).
inline constexpr std::uint64_t kNear1Lo = 0x3FEE000000000000ULL;
inline constexpr std::uint64_t kNear1Hi = 0x3FF0900000000000ULL;

#include "src/common/pinned_log_data.inc"

/// log(x), bit-identical on every compiler, libc and SIMD dispatch.
[[nodiscard]] inline double log(double x) noexcept {
  std::uint64_t ix = std::bit_cast<std::uint64_t>(x);
  const std::uint32_t top = static_cast<std::uint32_t>(ix >> 48);
  if (ix - kNear1Lo < kNear1Hi - kNear1Lo) [[unlikely]] {
    // Close to 1: log1p polynomial in r = x - 1 with a hi/lo split so the
    // -r²/2 term keeps its low bits.
    if (ix == std::bit_cast<std::uint64_t>(1.0)) return 0;
    const double r = x - 1.0;
    const double r2 = r * r;
    const double r3 = r * r2;
    double y = r3 * (kPolyB[1] + r * kPolyB[2] + r2 * kPolyB[3] +
                     r3 * (kPolyB[4] + r * kPolyB[5] + r2 * kPolyB[6] +
                           r3 * (kPolyB[7] + r * kPolyB[8] + r2 * kPolyB[9] +
                                 r3 * kPolyB[10])));
    double w = r * 0x1p27;
    const double rhi = r + w - w;
    const double rlo = r - rhi;
    w = rhi * rhi * kPolyB[0];  // kPolyB[0] == -0.5
    const double hi = r + w;
    double lo = r - hi + w;
    lo += kPolyB[0] * rlo * (rhi + r);
    y += lo;
    y += hi;
    return y;
  }
  if (top - 0x0010 >= 0x7ff0 - 0x0010) [[unlikely]] {
    if (ix * 2 == 0) return -1.0 / 0.0;                       // log(±0) = -inf
    if (ix == std::bit_cast<std::uint64_t>(
                  std::numeric_limits<double>::infinity())) {
      return x;                                               // log(inf) = inf
    }
    if ((top & 0x8000) != 0 || (top & 0x7ff0) == 0x7ff0) {
      return (x - x) / (x - x);                               // negative / nan
    }
    // Subnormal: normalize, absorbing the scale into k.
    ix = std::bit_cast<std::uint64_t>(x * 0x1p52);
    ix -= 52ULL << 52;
  }
  // x = 2^k·z with z in [kOff-range); i indexes z's subinterval.
  const std::uint64_t tmp = ix - kOff;
  const int i =
      static_cast<int>((tmp >> (52 - kTableBits)) % (1 << kTableBits));
  const int k = static_cast<int>(static_cast<std::int64_t>(tmp) >> 52);
  const std::uint64_t iz = ix - (tmp & (0xfffULL << 52));
  const double invc = kLogTab[2 * i];
  const double logc = kLogTab[2 * i + 1];
  const double z = std::bit_cast<double>(iz);
  // r ~= z/c - 1, |r| < 1/256.
  const double r = std::fma(z, invc, -1.0);
  const double kd = static_cast<double>(k);
  const double w = kd * kLn2Hi + logc;
  const double hi = w + r;
  const double lo = w - hi + r + kd * kLn2Lo;
  const double r2 = r * r;
  return lo + r2 * kPolyA[0] +
         r * r2 * (kPolyA[1] + r * kPolyA[2] + r2 * (kPolyA[3] + r * kPolyA[4])) +
         hi;
}

}  // namespace tono::pinned
