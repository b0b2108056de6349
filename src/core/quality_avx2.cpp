// quality_avx2.cpp — the shape search's lag kernel at 4 × f64 (lag_kernel.hpp).
//
// Compiled with -mavx2 into this TU only; entered solely behind
// simd::active_level()'s CPU check. vsubpd / vdivpd / vmulpd / vaddpd round
// exactly like their scalar counterparts, so the result is the baseline
// kernel's, bit for bit.
#if defined(TONO_SIMD_AVX2)

#include "src/core/lag_kernel.hpp"

namespace tono::core::lagkernel {

using Avx2Lanes = double __attribute__((vector_size(4 * sizeof(double))));

double best_lag_correlation_avx2(std::span<const double> segment, std::size_t max_lag,
                                 std::span<const double> centred, double db) {
  return best_lag_correlation<Avx2Lanes, 4>(segment, max_lag, centred, db);
}

}  // namespace tono::core::lagkernel

#endif  // TONO_SIMD_AVX2
