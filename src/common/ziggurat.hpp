// ziggurat.hpp — the standard-normal sampler behind every Gaussian draw.
//
// Marsaglia & Tsang's ziggurat (J. Stat. Softw. 5(8), 2000) with 256 layers
// of equal area under f(x) = exp(-x²/2) (tables: ziggurat_data.inc). One raw
// 64-bit draw u yields a candidate:
//   * layer i = u & 0xFF, sign = bit 8 of u,
//   * |x| = U · kX[i], where U = 1.m − 1 is built from u's top 52 bits
//     (exact: no rounding in the conversion).
// If |x| < kX[i+1] the point lies in the layer's inner rectangle, wholly
// under the curve, and is accepted: 98.5% of draws end here, after one
// table lookup, one multiply and one compare. The rest take the rare paths
// (Rng::gaussian_slow_):
//   * layer 0 beyond R = kX[1]: Marsaglia's tail, t = −log(U₁)/R,
//     y = −log(U₂), accepted when 2y > t², giving R + t;
//   * layers 1–255: the wedge test y < f(x) for y uniform in
//     [kF[i], kF[i+1]), evaluated as log(y) < −x²/2; a rejected candidate
//     restarts with a fresh raw draw.
// The only transcendental is the pinned log (pinned_log.hpp), so a draw is
// the same bits on any libc. The fast path is elementwise IEEE arithmetic
// and integer bit operations, which SIMD lanes reproduce exactly; the AVX2
// multi-stream fill (rng_avx2.cpp) runs it across streams and sends the
// lanes that miss it through the scalar rare paths.
//
// A draw keeps no state beyond the xoshiro position (no cached second
// value), so any split of a fill into chunks gives the same values.
#pragma once

#include <bit>
#include <cstdint>

namespace tono::ziggurat {

#include "src/common/ziggurat_data.inc"

inline constexpr std::uint64_t kLayerMask = 0xFF;
inline constexpr std::uint64_t kSignBit = 0x100;
/// Bits of 1.0: OR-ed under a 52-bit mantissa it builds 1.m in [1, 2).
inline constexpr std::uint64_t kOneBits = 0x3FF0000000000000ULL;

/// The candidate's magnitude U · kX[i] for raw draw u.
[[nodiscard]] inline double magnitude(std::uint64_t u) noexcept {
  const double unit = std::bit_cast<double>((u >> 12) | kOneBits) - 1.0;
  return unit * kX[u & kLayerMask];
}

/// True when magnitude(u) lies in its layer's inner rectangle.
[[nodiscard]] inline bool inside(std::uint64_t u, double magnitude) noexcept {
  return magnitude < kX[(u & kLayerMask) + 1];
}

/// `magnitude` with raw draw u's sign bit.
[[nodiscard]] inline double with_sign(double magnitude, std::uint64_t u) noexcept {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(magnitude) |
                               ((u & kSignBit) << 55));
}

}  // namespace tono::ziggurat
