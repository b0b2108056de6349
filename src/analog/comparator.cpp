#include "src/analog/comparator.hpp"

#include "src/common/checkpoint.hpp"

namespace tono::analog {

Rng* Comparator::plan(double* noise_dest, std::size_t n) noexcept {
  plan_buf_ = noise_dest;
  plan_len_ = n;
  segment_start_ = 0;
  // With noise off the stream is consumed only by metastable events, which
  // decide_metastable_at() routes through planned_metastable_() in the same
  // order. Nothing to pre-draw.
  if (config_.noise_vrms <= 0.0) return nullptr;
  plan_snapshot_ = rng_;
  return &rng_;
}

bool Comparator::planned_metastable_(std::size_t consumed) noexcept {
  if (config_.noise_vrms <= 0.0) return rng_.bernoulli(0.5);
  // The scalar stream interleaves this Bernoulli between the Gaussian just
  // consumed (index consumed - 1) and the next one. Rewind to the segment
  // snapshot, replay the Gaussians consumed since then to reconstruct the
  // exact mid-frame state (a Gaussian consumes a variable number of raw
  // draws), draw the Bernoulli at its scalar position, then regenerate the
  // not-yet-consumed tail of the plan from the post-Bernoulli state — those
  // values change, exactly as they would have in the scalar sequence.
  Rng replay = plan_snapshot_;
  for (std::size_t i = segment_start_; i < consumed; ++i) {
    (void)replay.gaussian();
  }
  const bool bit = replay.bernoulli(0.5);
  plan_snapshot_ = replay;
  segment_start_ = consumed;
  rng_ = replay;
  rng_.fill_gaussian(plan_buf_ + consumed, plan_len_ - consumed, 0.0,
                     config_.noise_vrms);
  return bit;
}

void Comparator::serialize(CheckpointWriter& out) const {
  out.section("comparator");
  rng_.serialize(out);
  out.i64(last_);
}

void Comparator::restore(CheckpointReader& in) {
  in.section("comparator");
  rng_.restore(in);
  const std::int64_t last = in.i64();
  if (last != 1 && last != -1) {
    throw CheckpointError{"comparator checkpoint decision is not +1 or -1"};
  }
  last_ = static_cast<int>(last);
  plan_buf_ = nullptr;
  plan_len_ = segment_start_ = 0;
}

}  // namespace tono::analog
