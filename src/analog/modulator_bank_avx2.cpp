// modulator_bank_avx2.cpp — AVX2 policy for the bank kernel (4 × f64).
//
// Compiled with -mavx2 into this TU only; entered solely behind
// simd::runtime_level()'s CPU check. Every op is elementwise IEEE — vaddpd /
// vsubpd / vmulpd / vdivpd round identically to their scalar counterparts,
// compare+blend reproduces the scalar ternaries including NaN ordering
// (quiet predicates chosen to match each scalar comparison's NaN behavior),
// and abs/neg are sign-bit masks, exactly like std::abs / unary minus.
#if defined(TONO_SIMD_AVX2)

#include <immintrin.h>

#include "src/analog/bank_kernel.hpp"

namespace tono::analog::bankkernel {
namespace {

struct VecAvx2 {
  static constexpr std::size_t kW = 4;
  using D = __m256d;
  using M = __m256d;

  static D load(const double* ptr) noexcept { return _mm256_loadu_pd(ptr); }
  static void store(double* ptr, D v) noexcept { _mm256_storeu_pd(ptr, v); }
  static D zero() noexcept { return _mm256_setzero_pd(); }
  static D one() noexcept { return _mm256_set1_pd(1.0); }
  static D add(D a, D b) noexcept { return _mm256_add_pd(a, b); }
  static D sub(D a, D b) noexcept { return _mm256_sub_pd(a, b); }
  static D mul(D a, D b) noexcept { return _mm256_mul_pd(a, b); }
  static D div(D a, D b) noexcept { return _mm256_div_pd(a, b); }
  static D abs(D a) noexcept {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  static D neg(D a) noexcept {
    return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
  }
  /// mask ? a : b
  static D select(M mask, D a, D b) noexcept {
    return _mm256_blendv_pd(b, a, mask);
  }
  static M cmp_lt(D a, D b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);  // NaN → false (scalar a < b)
  }
  static M cmp_ge(D a, D b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);  // NaN → false (scalar a >= b)
  }
  static M cmp_eq(D a, D b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);  // NaN → false (scalar a == b)
  }
  static M cmp_neq(D a, D b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_NEQ_UQ);  // NaN → true (scalar a != b)
  }
  /// !(a <= b): the settle slow-path predicate; NaN must take the slow path
  /// like the scalar !(std::abs(v) <= threshold).
  static M cmp_nle(D a, D b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_NLE_UQ);
  }
  static bool any(M mask) noexcept { return _mm256_movemask_pd(mask) != 0; }
  static unsigned mask(M m) noexcept {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  static unsigned ctz(unsigned m) noexcept {
    return static_cast<unsigned>(__builtin_ctz(m));
  }
};

}  // namespace

void run_packets_avx2(PacketView* packets, std::size_t n_packets,
                      std::size_t n_clocks) {
  run_packets<VecAvx2>(packets, n_packets, n_clocks);
}

}  // namespace tono::analog::bankkernel

#endif  // TONO_SIMD_AVX2
