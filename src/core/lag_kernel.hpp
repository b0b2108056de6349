// lag_kernel.hpp — the quality gate's shape search: the best Pearson
// correlation of one beat segment with the ensemble template over the even
// alignment lags 0, 2, …, 2·max_lag (SignalQualityAssessor::assess).
//
// Bit-identical to the maximum over lags of pearson_correlation(segment[lag,
// lag + seg_len), template): every lag runs that function's own arithmetic —
// the RunningStats mean recurrence m += (x − m)/k, then num and da summed in
// sample order — as one lane of a vector. Lanes are independent chains, so
// the lags' serial divides overlap instead of running one after another, and
// every op is elementwise IEEE (this code is built with -ffp-contract=off),
// which vector units round exactly as scalar ones.
//
// One template, two widths: 2 × f64 (SSE2 / NEON baseline, quality.cpp) and
// 4 × f64 (quality_avx2.cpp, compiled with -mavx2 and entered only behind
// simd::active_level()). A block of kChunks native vectors stays in
// registers for the whole pass — a single wide generic vector would be
// lowered through the stack on every sample.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace tono::core::lagkernel {
namespace {

/// f(0), f(1), …, f(N − 1), unrolled, so a block's vectors live in registers.
template <std::size_t N, class F>
inline void for_each_chunk(F&& f) {
  [&]<std::size_t... c>(std::index_sequence<c...>) { (f(c), ...); }(std::make_index_sequence<N>{});
}

template <class Lanes, std::size_t kChunks>
double best_lag_correlation(std::span<const double> segment, std::size_t max_lag,
                            std::span<const double> centred, double db) {
  constexpr std::size_t kWidth = sizeof(Lanes) / sizeof(double);
  constexpr std::size_t kBlock = kWidth * kChunks;
  const std::size_t seg_len = centred.size();
  const std::size_t lags = max_lag + 1;
  const std::size_t padded = (lags + kBlock - 1) / kBlock * kBlock;
  // Lag 2j's sample i is segment[2j + i], which is plane i % 2 of the even
  // and odd samples at index j + i / 2: one row of consecutive lags per
  // sample. Zero padding lets the last block read past the last real lag.
  std::vector<double> planes[2];
  for (auto& plane : planes) plane.assign(padded + seg_len / 2, 0.0);
  for (std::size_t i = 0; i < segment.size(); ++i) planes[i % 2][i / 2] = segment[i];
  const auto row = [&](std::size_t i) { return planes[i % 2].data() + i / 2; };
  const auto load = [](const double* p) {
    Lanes x;
    std::memcpy(&x, p, sizeof x);
    return x;
  };
  double best = -1.0;
  for (std::size_t first = 0; first < lags; first += kBlock) {
    Lanes m[kChunks] = {};
    for (std::size_t i = 0; i < seg_len; ++i) {
      const double* x = row(i) + first;
      const auto k = static_cast<double>(i + 1);
      for_each_chunk<kChunks>([&](std::size_t c) { m[c] += (load(x + c * kWidth) - m[c]) / k; });
    }
    Lanes num[kChunks] = {};
    Lanes da[kChunks] = {};
    for (std::size_t i = 0; i < seg_len; ++i) {
      const double* x = row(i) + first;
      for_each_chunk<kChunks>([&](std::size_t c) {
        const Lanes xa = load(x + c * kWidth) - m[c];
        num[c] += xa * centred[i];
        da[c] += xa * xa;
      });
    }
    for (std::size_t j = 0; j < kBlock && first + j < lags; ++j) {
      const double n = num[j / kWidth][j % kWidth];
      const double d = da[j / kWidth][j % kWidth];
      const double r = (d == 0.0 || db == 0.0) ? 0.0 : n / std::sqrt(d * db);
      best = std::max(best, r);
    }
  }
  return best;
}

}  // namespace

#if defined(TONO_SIMD_AVX2)
/// The 4 × f64 instantiation (quality_avx2.cpp); only call it when
/// simd::active_level() is kAvx2.
double best_lag_correlation_avx2(std::span<const double> segment, std::size_t max_lag,
                                 std::span<const double> centred, double db);
#endif

}  // namespace tono::core::lagkernel
