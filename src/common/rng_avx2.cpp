// rng_avx2.cpp — AVX2 vector phase of Rng::fill_gaussian_multi.
//
// Four independent xoshiro256++ streams advance in lockstep, one per 64-bit
// SIMD lane (state stored word-major: vector j holds state_[j] of all four
// streams). Each round draws one raw word per stream and runs the ziggurat's
// fast path (ziggurat.hpp) on all four:
//   * xoshiro256++, the layer index, the sign bit and the 1.m − 1 uniform
//     are integer bit operations plus one exact subtraction — identical by
//     definition;
//   * the two table lookups are gathers of the same doubles;
//   * the multiply and the inner-rectangle compare are elementwise IEEE
//     (this TU is compiled with the repo-global -ffp-contract=off, and
//     intrinsics never contract).
// A lane that misses the fast path (1.5% of draws) finishes its draw on its
// own stream through the scalar rare paths (Rng::gaussian_slow_), exactly
// where its solo fill would, so every stream yields one value per round and
// every value is bit-identical to the solo fill by construction.
#if defined(TONO_SIMD_AVX2)

#include <immintrin.h>

#include <cstdint>

#include "src/common/rng.hpp"

namespace tono {
namespace {

inline __m256i rotl64(__m256i x, int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

}  // namespace

void Rng::fill_gaussian_x4_avx2_(Rng* const* rngs, double* const* dests,
                                 std::size_t n) noexcept {
  using namespace ziggurat;
  // Word-major SoA state: s[j] lane w = rngs[w]->state_[j].
  alignas(32) std::uint64_t words[4][4];
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t w = 0; w < 4; ++w) words[j][w] = rngs[w]->state_[j];
  }
  __m256i s[4];
  for (std::size_t j = 0; j < 4; ++j) {
    s[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(words[j]));
  }
  const __m256i layer_mask = _mm256_set1_epi64x(static_cast<long long>(kLayerMask));
  const __m256i sign_bit = _mm256_set1_epi64x(static_cast<long long>(kSignBit));
  const __m256i one_bits = _mm256_set1_epi64x(static_cast<long long>(kOneBits));
  const __m256d one = _mm256_set1_pd(1.0);
  alignas(32) double out[4];
  alignas(32) std::uint64_t raw[4];
  for (std::size_t i = 0; i < n; ++i) {
    const __m256i u =
        _mm256_add_epi64(rotl64(_mm256_add_epi64(s[0], s[3]), 23), s[0]);
    const __m256i t = _mm256_slli_epi64(s[1], 17);
    s[2] = _mm256_xor_si256(s[2], s[0]);
    s[3] = _mm256_xor_si256(s[3], s[1]);
    s[1] = _mm256_xor_si256(s[1], s[2]);
    s[0] = _mm256_xor_si256(s[0], s[3]);
    s[2] = _mm256_xor_si256(s[2], t);
    s[3] = rotl64(s[3], 45);

    const __m256i layer = _mm256_and_si256(u, layer_mask);
    const __m256d width = _mm256_i64gather_pd(kX, layer, 8);
    const __m256d inner = _mm256_i64gather_pd(kX + 1, layer, 8);
    const __m256d unit = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(u, 12), one_bits)),
        one);
    const __m256d x = _mm256_mul_pd(unit, width);
    const int fast = _mm256_movemask_pd(_mm256_cmp_pd(x, inner, _CMP_LT_OQ));
    _mm256_store_pd(
        out, _mm256_or_pd(x, _mm256_castsi256_pd(_mm256_slli_epi64(
                                 _mm256_and_si256(u, sign_bit), 55))));
    if (fast != 0xF) [[unlikely]] {
      // Hand each missing lane's stream to the scalar rare paths, then
      // reload the (possibly further advanced) state.
      _mm256_store_si256(reinterpret_cast<__m256i*>(raw), u);
      for (std::size_t j = 0; j < 4; ++j) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(words[j]), s[j]);
      }
      for (std::size_t w = 0; w < 4; ++w) {
        if ((fast >> w & 1) != 0) continue;
        Rng& rng = *rngs[w];
        for (std::size_t j = 0; j < 4; ++j) rng.state_[j] = words[j][w];
        out[w] = rng.gaussian_slow_(raw[w]);
        for (std::size_t j = 0; j < 4; ++j) words[j][w] = rng.state_[j];
      }
      for (std::size_t j = 0; j < 4; ++j) {
        s[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(words[j]));
      }
    }
    for (std::size_t w = 0; w < 4; ++w) dests[w][i] = out[w];
  }
  for (std::size_t j = 0; j < 4; ++j) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(words[j]), s[j]);
    for (std::size_t w = 0; w < 4; ++w) rngs[w]->state_[j] = words[j][w];
  }
}

}  // namespace tono

#endif  // TONO_SIMD_AVX2
