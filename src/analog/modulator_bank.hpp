// modulator_bank.hpp — K independent ΔΣ modulators stepped in lockstep,
// vectorized across lanes.
//
// The paper's sensor is a 2×2 array (§3: four electrodes over the pressure
// membrane), and characterization sweeps run hundreds of independent trials;
// both want "step K modulators over the same clock window" as one operation.
// The bank exploits that the lanes are *independent*: their per-clock loop
// recurrences are K parallel dependency chains of elementwise IEEE
// arithmetic, which map directly onto SIMD lanes. At construction the bank
// resolves a kernel width via simd::active_level() (AVX2 ×4, NEON ×2, or
// scalar ×1 — overridable with the TONO_SIMD env knob) and groups lanes into
// width-W *packets* of matching control structure; per frame it
// batch-generates every lane's noise (one Rng::fill_gaussian_multi per source
// group), writes the packets' plans as [clock][lane], and runs the planned
// step kernel (bank_kernel.hpp). Lanes that don't fill a W-wide packet —
// remainders, heterogeneous structures, or every lane of a bank built under a
// scalar dispatch — run through the same kernel as 1-wide packets: each is
// its modulator's own 1-lane view, exactly as a solo step_capacitive_block
// runs it, stepped clock-outer / lane-inner with the rest.
//
// Lane semantics — the contract tests pin:
//   * each lane is a full DeltaSigmaModulator with its own config, seed and
//     noise streams; lanes never share draws;
//   * lane k's bitstream is bit-identical to running that modulator alone
//     through step_capacitive_block (and therefore to n scalar
//     step_capacitive calls) — the bank changes scheduling, never values.
//     This holds under EVERY dispatch level: one kernel template runs at
//     every width using only elementwise IEEE ops, and the two
//     transcendental paths (op-amp partial settling, comparator
//     metastability) drop to per-lane scalar callbacks;
//   * outputs are lane-major: bits_out[k * n + i] is lane k, clock i;
//   * a disabled lane (set_lane_enabled — element fault masking) is frozen:
//     not stepped, no noise drawn, its bits region untouched. Re-enabling
//     resumes bit-identically from the frozen state.
//
// A bank either owns its lanes (the config constructors: ArrayAcquisition,
// sweeps) or borrows them (the default constructor plus set_lanes: a fleet
// shard steps its sessions' own modulators as lanes, frame by frame). The
// lane objects hold every bit of state between blocks, so a borrowing bank
// keeps nothing a checkpoint would need.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/analog/bank_kernel.hpp"
#include "src/analog/modulator.hpp"
#include "src/common/metrics.hpp"
#include "src/common/simd.hpp"

namespace tono::analog {

class ModulatorBank {
 public:
  /// One lane per config. Lanes may differ in every respect (seed, caps,
  /// noise settings) — heterogeneous banks are how sweeps use this.
  explicit ModulatorBank(const std::vector<ModulatorConfig>& configs);

  /// Convenience: K lanes sharing `base`, with per-lane seeds decorrelated
  /// by the same golden-ratio salting Rng::fork uses. Lane 0 keeps
  /// `base.seed` unchanged, so lane 0 reproduces the single-modulator run.
  ModulatorBank(const ModulatorConfig& base, std::size_t lanes);

  /// A borrowing bank with no lanes yet; set_lanes points it at modulators
  /// that live elsewhere.
  ModulatorBank();

  /// Borrowing banks only: steps `lanes` from the next block on, every lane
  /// enabled. The modulators must outlive the blocks stepped with them. The
  /// packets are rebuilt only when the list differs from the previous one —
  /// another modulator at some position, or a lane whose control structure
  /// changed — so re-pointing a stable cohort every frame costs a compare.
  void set_lanes(std::span<DeltaSigmaModulator* const> lanes);

  // The kernel views point into this bank's own packets and lanes.
  ModulatorBank(const ModulatorBank&) = delete;
  ModulatorBank& operator=(const ModulatorBank&) = delete;

  /// Runs `n` clocks on every enabled lane in capacitive mode. `c_sense_f` /
  /// `c_ref_f` hold one capacitance per lane; `bits_out` has room for
  /// lanes()·n ints and is filled lane-major (lane k at bits_out[k*n]).
  /// Disabled lanes' regions are left untouched.
  void step_capacitive_block(const double* c_sense_f, const double* c_ref_f,
                             int* bits_out, std::size_t n);

  void reset();

  /// Fault masking (a dead array element mid-run): a disabled lane drops out
  /// of its packet — the survivors regroup into new packets — and is frozen
  /// entirely: no state updates, no noise-stream draws, no output. This is
  /// deliberately NOT "keep converting and discard": a faulted element's
  /// modulator has nothing physical to convert, and freezing its streams
  /// keeps the lane resumable bit-identically if the fault is cleared.
  void set_lane_enabled(std::size_t k, bool enabled);
  [[nodiscard]] bool lane_enabled(std::size_t k) const {
    return enabled_.at(k) != 0;
  }
  [[nodiscard]] std::size_t enabled_lanes() const noexcept;

  /// Checkpointing: every lane's full modulator state plus the enable mask,
  /// in lane order. The lane count is config-derived and verified on
  /// restore; the packet grouping is layout, rebuilt lazily.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }
  [[nodiscard]] DeltaSigmaModulator& lane(std::size_t k) { return *lanes_[k]; }
  [[nodiscard]] const DeltaSigmaModulator& lane(std::size_t k) const {
    return *lanes_[k];
  }

  /// The SIMD dispatch this bank resolved at construction (fixed for its
  /// lifetime; simd::force_active_level before construction to override).
  [[nodiscard]] simd::Level simd_level() const noexcept { return level_; }
  /// Widest kernel lane width (1 = every lane is a 1-wide packet).
  [[nodiscard]] std::size_t simd_width() const noexcept { return width_; }

 private:
  static constexpr std::size_t kFrame = DeltaSigmaModulator::kPlanFrame;
  static constexpr std::size_t kMaxW = bankkernel::kMaxWidth;
  /// Doubles per source in a packet's noise buffer.
  static constexpr std::size_t kPlanStride = kFrame * kMaxW;

  /// W lanes whose configs share one control structure (loop order, settling,
  /// which noise sources exist — the kernel's per-packet branches), laid out
  /// SoA. Lane values (seeds, capacitances, magnitudes) are free to differ.
  struct Packet {
    std::array<std::size_t, kMaxW> lane{};  ///< bank lane index per slot

    // Per-lane state and invariants, one width-sized array per kernel field
    // (bankkernel::State / Invariant). State and invariants are loaded from
    // the lane objects at block start and the state is written back at block
    // end (the lane objects stay authoritative between blocks, so
    // checkpointing never sees this scratch, and no invariant goes stale).
    alignas(64) std::array<std::array<double, kMaxW>, bankkernel::kNumState> state{};
    std::array<std::array<double, kMaxW>, bankkernel::kNumInvariant> in{};

    /// Per-frame noise plans: source s at [s * kPlanStride], transposed to
    /// [clock][lane] with stride = the bank's kernel width (one contiguous
    /// vector load per clock per source).
    alignas(64) std::array<double, bankkernel::kNumSource * kPlanStride> noise{};

    std::array<int*, kMaxW> bits{};  ///< per-slot output cursor (per frame)
    std::size_t frame_len{0};  ///< current frame length (metastable resync)
    ModulatorBank* owner{nullptr};
  };

  void init_();
  /// Sizes the per-lane scratch for lanes_ and enables every lane.
  void size_lanes_();
  /// Regroups enabled lanes into packets of width_ plus 1-lane views.
  void rebuild_packets_();
  /// Enabled lanes outside every W-wide packet (the 1-lane views).
  [[nodiscard]] bool narrow_(std::size_t k) const noexcept {
    return enabled_[k] != 0 && lane_packet_[k] == kNoPacket;
  }
  /// Loads lane state and invariants into the kernel views at block start.
  void load_packet_state_();
  /// Writes kernel view state back into the lane objects at block end.
  void store_packet_state_();
  /// One frame's noise for every enabled lane: the solo fill_noise_plan_
  /// pieces, with each source group's Gaussian draws batched across lanes
  /// through Rng::fill_gaussian_multi (bit-identical per stream). Packet
  /// lanes' plans end up transposed in their packet's buffers (the shared
  /// sources are de-interleaved straight there); 1-lane views' stay in their
  /// own plan_.
  void fill_lane_plans_(std::size_t frame);
  /// One batched fill: `pick(k)` names each enabled lane k's stream,
  /// destination and draw count (0 skips the lane); every stream is then
  /// drawn by one Rng::fill_gaussian_multi. Leaves the drawn lanes in
  /// fill_lanes_ and their destinations in fill_dests_.
  struct Fill {
    Rng* rng;
    double* dest;
    std::size_t n;
  };
  template <class Pick>
  void fill_batched_(Pick pick);

  // Masked scalar escapes for W-wide packets (bank_kernel.hpp): `ctx` is the
  // Packet, `slot` the lane's index within it.
  static double settle_cb_(void* ctx, std::size_t slot, int stage, double v);
  static double metastable_cb_(void* ctx, std::size_t slot, std::size_t clock);

  std::vector<DeltaSigmaModulator> owned_;  ///< empty for a borrowing bank
  std::vector<DeltaSigmaModulator*> lanes_;  ///< into owned_, or borrowed
  std::vector<std::uint32_t> lane_keys_;     ///< structure_key_ per lane
  std::vector<DeltaSigmaModulator::CapacitiveInput> inputs_;  ///< scratch
  std::vector<std::uint8_t> enabled_;

  // Kernel dispatch, resolved once at construction (nullptr: width 1 only).
  simd::Level level_{simd::Level::kScalar};
  std::size_t width_{1};
  void (*kernel_)(bankkernel::PacketView*, std::size_t, std::size_t){nullptr};

  // Packet layout (lazy: rebuilt when the enable mask changes).
  bool packets_dirty_{true};
  std::vector<Packet> packets_;
  /// Every lane's own 1-lane view (DeltaSigmaModulator::kernel_view_).
  std::vector<bankkernel::PacketView> lane_views_;
  /// packets_'s W-wide views, then the 1-lane views of the narrow_ lanes.
  std::vector<bankkernel::PacketView> views_;
  static constexpr std::size_t kNoPacket = static_cast<std::size_t>(-1);
  std::vector<std::size_t> lane_packet_;  ///< packet index or kNoPacket
  std::vector<std::size_t> lane_slot_;    ///< slot within that packet

  // Batched-fill scratch (sized with the lanes).
  std::vector<double> shared_raw_;            ///< lanes × 2·kFrame normals
  std::vector<Rng*> fill_rngs_;
  std::vector<double*> fill_dests_;
  std::vector<std::size_t> fill_ns_;
  std::vector<std::size_t> fill_lanes_;

  metrics::Counter* packed_lane_frames_{nullptr};
  metrics::Counter* narrow_lane_frames_{nullptr};
  metrics::Timer* step_block_timer_{nullptr};
};

}  // namespace tono::analog
