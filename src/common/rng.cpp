#include "src/common/rng.hpp"

#include <algorithm>

#include "src/common/checkpoint.hpp"
#include "src/common/pinned_log.hpp"
#include "src/common/simd.hpp"

namespace tono {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::uniform_below(std::uint64_t n) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0ull - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::gaussian_slow_(std::uint64_t u) noexcept {
  using namespace ziggurat;
  for (;;) {
    const std::uint64_t layer = u & kLayerMask;
    const double x = magnitude(u);
    if (x < kX[layer + 1]) return with_sign(x, u);
    if (layer == 0) {
      // Beyond R: Marsaglia's exponential-rejection tail. 1 − uniform() is
      // in (0, 1], so both logs are finite.
      double t = 0.0;
      double y = 0.0;
      do {
        t = -pinned::log(1.0 - uniform()) / kX[1];
        y = -pinned::log(1.0 - uniform());
      } while (!(2.0 * y > t * t));
      return with_sign(kX[1] + t, u);
    }
    // Wedge: y uniform over the layer's height, accepted under the curve.
    const double y = kF[layer] + uniform() * (kF[layer + 1] - kF[layer]);
    if (pinned::log(y) < -0.5 * x * x) return with_sign(x, u);
    u = next_u64();
  }
}

void Rng::fill_gaussian(double* dest, std::size_t n) noexcept {
  // gaussian() with the xoshiro state in locals for the whole fill; a draw
  // that misses the fast path hands the state back for the rare paths.
  std::array<std::uint64_t, 4> s = state_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u = rotl_(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl_(s[3], 45);
    const double x = ziggurat::magnitude(u);
    if (ziggurat::inside(u, x)) [[likely]] {
      dest[i] = ziggurat::with_sign(x, u);
      continue;
    }
    state_ = s;
    dest[i] = gaussian_slow_(u);
    s = state_;
  }
  state_ = s;
}

void Rng::fill_gaussian(double* dest, std::size_t n, double mean, double sigma) noexcept {
  fill_gaussian(dest, n);
  // gaussian(mean, sigma) is mean + sigma * gaussian(); applying the same
  // affine map after the fact gives the same doubles.
  for (std::size_t i = 0; i < n; ++i) dest[i] = mean + sigma * dest[i];
}

void Rng::fill_gaussian_multi(Rng* const* rngs, double* const* dests,
                              const std::size_t* ns, std::size_t k) noexcept {
  std::size_t done = 0;
#if defined(TONO_SIMD_AVX2)
  constexpr std::size_t kGroup = 4;
#else
  constexpr std::size_t kGroup = 1;
#endif
  if constexpr (kGroup > 1) {
    // Every stream yields one value per vector round, so a group runs its
    // shortest fill in the vector phase and each stream's remainder scalar.
    const bool simd_on = simd::level_width(simd::active_level()) >= kGroup;
    for (; simd_on && done + kGroup <= k; done += kGroup) {
      std::size_t m = ns[done];
      for (std::size_t w = 1; w < kGroup; ++w) m = std::min(m, ns[done + w]);
#if defined(TONO_SIMD_AVX2)
      fill_gaussian_x4_avx2_(rngs + done, dests + done, m);
#endif
      for (std::size_t w = 0; w < kGroup; ++w) {
        rngs[done + w]->fill_gaussian(dests[done + w] + m, ns[done + w] - m);
      }
    }
  }
  for (; done < k; ++done) rngs[done]->fill_gaussian(dests[done], ns[done]);
}

double Rng::exponential(double lambda) noexcept {
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -pinned::log(1.0 - uniform()) / lambda;
}

Rng Rng::fork(std::uint64_t salt) noexcept {
  return Rng{next_u64() ^ (salt * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull)};
}

Rng Rng::fork_named(std::string_view name) noexcept { return fork(fnv1a(name)); }

void Rng::serialize(CheckpointWriter& out) const {
  out.section("rng");
  for (std::uint64_t word : state_) out.u64(word);
}

void Rng::restore(CheckpointReader& in) {
  in.section("rng");
  std::array<std::uint64_t, 4> state{};
  for (auto& word : state) word = in.u64();
  if (state == std::array<std::uint64_t, 4>{}) {
    // xoshiro's one fixed point: every later draw would be 0.
    throw CheckpointError{"Rng checkpoint holds the all-zero xoshiro state"};
  }
  state_ = state;
}

}  // namespace tono
