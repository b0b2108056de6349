// rng.hpp — deterministic random number generation for simulation.
//
// Every stochastic component in tonosim (circuit noise sources, physiological
// variability, artefact injection) draws from an explicitly seeded Rng so
// that tests and benchmarks are reproducible bit-for-bit across runs.
//
// The engine is xoshiro256++ (Blackman & Vigna), chosen over std::mt19937 for
// speed, tiny state, and well-understood statistical quality. Distribution
// sampling is implemented here (not via <random> distributions) because the
// standard leaves distribution algorithms unspecified, which would make
// golden-value tests non-portable across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "src/common/ziggurat.hpp"

namespace tono {

class CheckpointReader;
class CheckpointWriter;

/// Deterministic pseudo-random generator with explicit seeding.
///
/// Satisfies the needs of all tonosim noise models: uniform, Gaussian,
/// exponential and Poisson draws plus stream splitting (`fork`) so that
/// adding a noise source to one block never perturbs the draw sequence of
/// another block.
class Rng {
 public:
  /// Seeds the full 256-bit state from a 64-bit seed via splitmix64,
  /// as recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit draw.
  /// Defined inline: the circuit noise models draw several values per
  /// 128 kHz modulator clock, so the draw path must not cost a function
  /// call per sample.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    // xoshiro256++
    const std::uint64_t result = rotl_(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53-bit resolution.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t n) noexcept;

  /// Standard normal draw (256-layer ziggurat, src/common/ziggurat.hpp).
  /// Inline: the fast path is one raw draw, a table lookup and a compare.
  [[nodiscard]] double gaussian() noexcept {
    const std::uint64_t u = next_u64();
    const double x = ziggurat::magnitude(u);
    if (ziggurat::inside(u, x)) [[likely]] return ziggurat::with_sign(x, u);
    return gaussian_slow_(u);
  }

  /// Normal draw with given mean and standard deviation.
  [[nodiscard]] double gaussian(double mean, double sigma) noexcept {
    return mean + sigma * gaussian();
  }

  /// Fills dest[0..n) with the bit-identical sequence that n sequential
  /// gaussian() calls would produce, and leaves this generator in the
  /// bit-identical end state. A draw carries nothing over to the next, so
  /// fills split into chunks of any size give the same values.
  ///
  /// Exists because the ΔΣ modulator's per-clock draw count is fixed by its
  /// config, so a whole output frame of noise can be generated up front in
  /// one tight loop (state in registers) instead of interleaved with the
  /// loop recurrence.
  void fill_gaussian(double* dest, std::size_t n) noexcept;

  /// Same, matching n sequential gaussian(mean, sigma) calls.
  void fill_gaussian(double* dest, std::size_t n, double mean, double sigma) noexcept;

  /// Batched multi-stream fill: for each stream w in [0, k),
  /// `rngs[w]->fill_gaussian(dests[w], ns[w])` — same destination bits, same
  /// end state per stream — but executed together so the independent xoshiro
  /// advances and the ziggurat's fast path vectorize across streams (one SIMD
  /// lane per stream; see rng_avx2.cpp). A lane that misses the fast path
  /// finishes its draw through the scalar rare paths, on its own stream, so
  /// every lane stays bit-identical to its solo fill.
  ///
  /// The streams must be distinct Rng objects. Falls back to per-stream
  /// scalar fills when no SIMD kernel is active (simd::active_level()), when
  /// k doesn't fill a vector, and for each stream's draws beyond the
  /// shortest fill of its vector group.
  ///
  /// This is the ModulatorBank's frame-fill primitive: one call per noise
  /// source group per frame for a whole lane packet.
  static void fill_gaussian_multi(Rng* const* rngs, double* const* dests,
                                  const std::size_t* ns, std::size_t k) noexcept;

  /// Exponential draw with given rate lambda (> 0).
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Derives an independent child stream. The child is seeded from this
  /// stream's output mixed with `salt`, so distinct salts give distinct,
  /// decorrelated streams, and the parent advances by exactly one draw.
  [[nodiscard]] Rng fork(std::uint64_t salt) noexcept;

  /// Convenience: derive a stream from a component name (FNV-1a of the name
  /// as salt). Lets each circuit block own `rng.fork_named("comparator")`.
  [[nodiscard]] Rng fork_named(std::string_view name) noexcept;

  /// Checkpointing (src/common/checkpoint.hpp): the 256-bit xoshiro state,
  /// which is the whole stream position. restore() throws CheckpointError on
  /// the all-zero state, which xoshiro never leaves (and seeding never
  /// produces).
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// gaussian()'s rare paths, entered with the raw draw `u` whose fast-path
  /// candidate missed: the tail, the wedge test and, on a wedge rejection,
  /// fresh draws until one is accepted.
  double gaussian_slow_(std::uint64_t u) noexcept;

  /// Vector phase of fill_gaussian_multi for one 4-stream group (defined in
  /// rng_avx2.cpp, compiled with -mavx2, called only behind the runtime
  /// dispatch check): fills dests[w][0..n) and advances each stream.
  static void fill_gaussian_x4_avx2_(Rng* const* rngs, double* const* dests,
                                     std::size_t n) noexcept;

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace tono
