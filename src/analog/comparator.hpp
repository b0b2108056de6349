// comparator.hpp — clocked 1-bit quantizer of the ΔΣ loop.
//
// Offset and hysteresis are first-order shaped by the loop (they appear as a
// DC shift / small limit-cycle perturbation rather than distortion), so the
// modulator tolerates millivolt-level values — the model lets tests verify
// exactly that. Metastability is modelled as a random decision inside a
// narrow band around the threshold.
#pragma once

#include <cmath>
#include <cstddef>

#include "src/common/rng.hpp"

namespace tono::analog {

struct ComparatorConfig {
  double offset_v{0.0};
  double hysteresis_v{0.0};        ///< full width of the hysteresis band
  double metastable_band_v{10e-6}; ///< |input| below this → random decision
  double noise_vrms{50e-6};        ///< input-referred rms noise
};

class Comparator {
 public:
  Comparator(const ComparatorConfig& config, Rng rng) noexcept
      : config_(config), rng_(rng) {}

  /// Clocked decision: returns +1 or −1. Inline: one call per modulator
  /// clock, and the noise draw benefits from inlining into the loop.
  [[nodiscard]] int decide(double input_v) noexcept {
    double v = input_v - config_.offset_v;
    if (config_.noise_vrms > 0.0) v += rng_.gaussian(0.0, config_.noise_vrms);
    // Hysteresis: the threshold leans toward keeping the previous decision.
    v -= 0.5 * config_.hysteresis_v * static_cast<double>(-last_);
    if (std::abs(v) < config_.metastable_band_v) {
      last_ = rng_.bernoulli(0.5) ? 1 : -1;
      return last_;
    }
    last_ = v >= 0.0 ? 1 : -1;
    return last_;
  }

  /// Starts a plan of the next `n` decisions' noise in the caller-owned
  /// `noise_dest` (the modulator's per-frame noise plan) and returns the
  /// stream the caller pre-draws it from: n × fill_gaussian(…, 0.0,
  /// noise_vrms), or the same affine map over a batched
  /// Rng::fill_gaussian_multi. Returns nullptr when noise is off (decide()
  /// draws nothing per decision then). The snapshot taken here, before any
  /// draw, anchors the metastable resync. The step kernel (bank_kernel.hpp)
  /// then makes decide()'s decision with plan entry i as clock i's noise,
  /// which stays bit-identical to decide(): the only draw that cannot be
  /// planned is the metastable Bernoulli — it depends on the decision input —
  /// and when one fires, decide_metastable_at() rewinds to the snapshot,
  /// replays the Gaussians consumed so far, interleaves the Bernoulli at its
  /// scalar position, and refills the rest of the plan from the new state.
  /// Metastable events are rare at the paper's operating point (band is µV
  /// against ~100 mV quantizer swing), so the resync cost is amortized away.
  [[nodiscard]] Rng* plan(double* noise_dest, std::size_t n) noexcept;

  /// The step kernel's metastable escape: the kernel evaluated this
  /// comparator's decision for plan index `idx` (consuming its noise entry,
  /// when noise is on) and landed in the metastable band. Replays the scalar
  /// slow path — resync the stream, draw the Bernoulli at its scalar
  /// position, refill plan entries (idx+1, len) — and returns the ±1
  /// decision, updating the hysteresis memory exactly as decide() would.
  [[nodiscard]] int decide_metastable_at(std::size_t idx) noexcept {
    last_ = planned_metastable_(idx + (config_.noise_vrms > 0.0 ? 1 : 0)) ? 1 : -1;
    return last_;
  }

  /// Writes the hysteresis memory back after a kernel block, where the
  /// per-clock decisions lived in the kernel's state. `last` must be ±1.
  void set_last_decision(int last) noexcept { last_ = last; }

  [[nodiscard]] int last_decision() const noexcept { return last_; }
  [[nodiscard]] const ComparatorConfig& config() const noexcept { return config_; }

  /// Checkpointing: the noise stream and the hysteresis memory. The planned
  /// block state is transient (plans live inside one frame; checkpoints are
  /// taken at frame/batch boundaries) and is neither stored nor restored.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  /// Slow path: metastable Bernoulli during a planned block, after
  /// `consumed` plan entries (see plan()).
  bool planned_metastable_(std::size_t consumed) noexcept;

  ComparatorConfig config_;
  Rng rng_;
  int last_{1};
  // Planned-block state. `plan_snapshot_` is the rng state at the start of
  // the current fill segment (plan entries [segment_start_, plan_len_) were
  // bulk-generated from it); it is what makes the metastable resync exact.
  double* plan_buf_{nullptr};
  std::size_t plan_len_{0};
  std::size_t segment_start_{0};
  Rng plan_snapshot_{0};
};

}  // namespace tono::analog
