#include "src/common/pink_noise.hpp"

#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"

namespace tono {

PinkNoise::PinkNoise(Rng rng, std::size_t octaves) : rng_(rng), octaves_(octaves) {
  if (octaves_ < 2 || octaves_ > kMaxOctaves) {
    throw std::invalid_argument{"PinkNoise: octaves must be in [2, 24]"};
  }
  for (std::size_t k = 0; k < octaves_; ++k) rows_[k] = rng_.gaussian();
  // Sum of `octaves` unit-variance independent rows → variance = octaves;
  // normalize to unit variance.
  white_scale_ = 1.0 / std::sqrt(static_cast<double>(octaves_));
}

double PinkNoise::next() noexcept {
  ++counter_;
  // Voss-McCartney: re-draw row k when bit k of the counter toggles, i.e.
  // the lowest set bit selects exactly one row per sample.
  const std::uint64_t ctz_mask = counter_ & (~counter_ + 1);
  std::size_t row = 0;
  std::uint64_t m = ctz_mask;
  while (m > 1 && row + 1 < octaves_) {
    m >>= 1;
    ++row;
  }
  rows_[row] = rng_.gaussian();
  double sum = 0.0;
  for (std::size_t k = 0; k < octaves_; ++k) sum += rows_[k];
  return sum * white_scale_;
}

void PinkNoise::fill_next(double* dest, std::size_t n) noexcept {
  // next() consumes exactly one Gaussian per sample regardless of state, so
  // the draws bulk-generate into dest; fill_next_from (shared with the
  // bank's batched-draw path) replays the row updates in place, reading
  // draw j before it writes sample j.
  rng_.fill_gaussian(dest, n);
  fill_next_from(dest, dest, n);
}

void PinkNoise::fill_next_from(const double* draws, double* dest,
                               std::size_t n) noexcept {
  // The Voss-McCartney row replacement and the full-row sum replay in the
  // scalar order (the sum must be recomputed per sample — a running sum
  // would reorder the additions and break bit-identity with next()).
  for (std::size_t j = 0; j < n; ++j) {
    ++counter_;
    const std::uint64_t ctz_mask = counter_ & (~counter_ + 1);
    std::size_t row = 0;
    std::uint64_t m = ctz_mask;
    while (m > 1 && row + 1 < octaves_) {
      m >>= 1;
      ++row;
    }
    rows_[row] = draws[j];
    double sum = 0.0;
    for (std::size_t k = 0; k < octaves_; ++k) sum += rows_[k];
    dest[j] = sum * white_scale_;
  }
}

void PinkNoise::serialize(CheckpointWriter& out) const {
  out.section("pink_noise");
  rng_.serialize(out);
  out.size(octaves_);
  for (std::size_t k = 0; k < octaves_; ++k) out.f64(rows_[k]);
  out.u64(counter_);
}

void PinkNoise::restore(CheckpointReader& in) {
  in.section("pink_noise");
  rng_.restore(in);
  const std::size_t octaves = in.size();
  if (octaves != octaves_) {
    throw CheckpointError{"PinkNoise checkpoint octave count " +
                          std::to_string(octaves) + " != configured " +
                          std::to_string(octaves_)};
  }
  for (std::size_t k = 0; k < octaves_; ++k) rows_[k] = in.f64();
  counter_ = in.u64();
}

}  // namespace tono
