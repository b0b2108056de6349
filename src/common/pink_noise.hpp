// pink_noise.hpp — 1/f (flicker) noise generation.
//
// CMOS op-amps have large low-frequency flicker noise; for a sensor whose
// signal band is 0.5–20 Hz that matters more than the white floor. The
// generator uses the Voss-McCartney octave algorithm: K white sources, the
// k-th re-drawn every 2^k samples; their sum has a PSD within ~0.5 dB of
// 1/f over K−2 decades of bandwidth.
#pragma once

#include <array>
#include <cstddef>

#include "src/common/rng.hpp"

namespace tono {

class PinkNoise {
 public:
  /// `octaves` sets the low-frequency extent: the spectrum is pink from
  /// ~fs/2^octaves up to fs/2. Output is scaled to unit variance.
  explicit PinkNoise(Rng rng, std::size_t octaves = 16);

  /// Next sample (zero mean, unit variance, PSD ∝ 1/f).
  [[nodiscard]] double next() noexcept;

  /// Fills dest[0..n) with the bit-identical sequence n next() calls would
  /// produce (each sample re-draws exactly one row, so the whole block's
  /// Gaussians can be generated up front via Rng::fill_gaussian; the row
  /// updates and sums are replayed in the scalar order). Used by the ΔΣ
  /// modulator's per-frame noise plan.
  void fill_next(double* dest, std::size_t n) noexcept;

  /// fill_next with the n bulk Gaussians already drawn from noise_stream()
  /// by the caller (the ModulatorBank batches the draws of a whole lane
  /// packet into one Rng::fill_gaussian_multi call). Because next() consumes
  /// exactly one Gaussian per sample, [fill_gaussian(draws, n);
  /// fill_next_from(draws, dest, n)] is bit-identical to fill_next(dest, n).
  /// `draws` may alias `dest`.
  void fill_next_from(const double* draws, double* dest, std::size_t n) noexcept;

  /// The generator's own Gaussian stream, exposed for the batched fill path
  /// (fill_next_from's contract: its draws come from exactly this stream).
  [[nodiscard]] Rng& noise_stream() noexcept { return rng_; }

  [[nodiscard]] std::size_t octaves() const noexcept { return octaves_; }

  /// Checkpointing: the RNG stream, the live row values and the sample
  /// counter — a stream suspended mid pink-noise row resumes bit-identically.
  /// `octaves_`/`white_scale_` are construction-time config and are verified,
  /// not restored; restore into a generator built with a different octave
  /// count fails loudly.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  static constexpr std::size_t kMaxOctaves = 24;
  Rng rng_;
  std::size_t octaves_;
  std::array<double, kMaxOctaves> rows_{};
  std::uint64_t counter_{0};
  double white_scale_;
};

}  // namespace tono
