// modulator.hpp — behavioural model of the chip's second-order, single-bit,
// fully-differential switched-capacitor ΔΣ modulator (Fig. 6 of the paper).
//
// Topology: Boser-Wooley cascade of two delaying SC integrators with 1-bit
// feedback (coefficients g1 = a1 = 0.5 into the first stage, g2 = a2 = 0.5
// into the second), giving NTF (1−z⁻¹)² / (1 − 1.5 z⁻¹ + 0.75 z⁻²) — a
// stable second-order loop for inputs below ≈ −2 dBFS.
//
// Two input modes mirror the chip:
//   * capacitive mode — the sensor/reference branch of Fig. 6: a constant
//     excitation voltage V_exc is applied to C_sense and (anti-phase) C_ref;
//     the integrated charge is (C_sense − C_ref)·V_exc against the 1-bit
//     feedback charge C_fb·V_ref. Full scale is ΔC_FS = C_fb·V_ref/V_exc,
//     which is why §4 proposes "adjusting the feedback capacitors of the
//     first modulator stage" to improve resolution — C_fb sets the range.
//   * voltage mode — the "additional differential voltage interface" used
//     for the Fig. 7 characterization; full scale is ±V_ref.
//
// Modelled non-idealities: kT/C sampling noise on every switched branch,
// op-amp finite gain (integrator leak), finite GBW/slew (incomplete
// settling), op-amp thermal noise, comparator offset/hysteresis/
// metastability, clock jitter (voltage mode), reference noise, capacitor
// mismatch, and integrator output clipping.
//
// The loop recurrence has exactly two implementations: step_normalized, the
// per-clock reference behind step_voltage / step_capacitive, and the planned
// step kernel of bank_kernel.hpp, which step_capacitive_block runs at width 1
// and ModulatorBank at widths 1, 2 and 4. The tests hold the kernel to the
// reference bit for bit.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/analog/bank_kernel.hpp"
#include "src/analog/comparator.hpp"
#include "src/analog/opamp.hpp"
#include "src/common/metrics.hpp"
#include "src/common/pink_noise.hpp"
#include "src/common/rng.hpp"

namespace tono::analog {

struct LoopCoefficients {
  double g1{0.5};  ///< first-integrator input gain
  double a1{0.5};  ///< first-integrator feedback gain
  double g2{0.5};  ///< second-integrator input gain
  double a2{0.5};  ///< second-integrator feedback gain
  /// Dynamic-range scaling: op-amp output volts per unit of normalized loop
  /// state (full scale = 1). Real SC designs size the integrator caps so the
  /// state swing fits the op-amp output range; 1 V/FS keeps the 2nd-order
  /// loop's ±2 FS state excursions inside a ±2.3 V swing.
  double state_scale_v{1.0};
};

struct ModulatorConfig {
  double sampling_rate_hz{128000.0};  ///< paper: 128 kS/s
  double vref_v{2.5};                 ///< feedback reference (±Vref differential)
  double vexc_v{2.5};                 ///< sensor excitation voltage
  double supply_v{5.0};               ///< paper: 5 V supply
  /// Loop order: 2 = the chip's Boser-Wooley cascade; 1 = a single-
  /// integrator baseline (what the paper's topology is competing against —
  /// ~9 dB/octave of OSR instead of 15, plus strong idle tones).
  int order{2};

  /// Capacitors (single-ended equivalents of the differential pairs).
  double c_sample_f{0.5e-12};  ///< voltage-mode input/feedback sampling cap
  double c_fb1_f{25e-15};      ///< capacitive-mode feedback cap (the §4 knob)
  double c_ref_f{100e-15};     ///< on-chip reference capacitor branch

  LoopCoefficients loop{};
  OpAmpConfig opamp1{};
  OpAmpConfig opamp2{};
  ComparatorConfig comparator{};

  double clock_jitter_rms_s{1e-9};
  double ref_noise_vrms{20e-6};
  double cap_mismatch_sigma{0.001};  ///< relative σ of each capacitor
  /// Correlated-double-sampling rejection of op-amp flicker noise
  /// (amplitude factor; 1 = no CDS). SC integrators sample the op-amp
  /// offset/1-f error every phase, which first-order cancels it.
  double cds_flicker_rejection{30.0};
  double temperature_k{300.0};
  bool enable_ktc_noise{true};
  bool enable_settling{true};
  std::uint64_t seed{42};
};

class DeltaSigmaModulator {
 public:
  explicit DeltaSigmaModulator(const ModulatorConfig& config);

  /// One clock in voltage mode; `vin_v` is the differential input.
  /// Returns the output bit (+1 / −1).
  [[nodiscard]] int step_voltage(double vin_v);

  /// One clock in capacitive mode with explicit sensor and reference
  /// capacitance values [F].
  [[nodiscard]] int step_capacitive(double c_sense_f, double c_ref_f);

  /// Capacitive mode against the configured on-chip reference branch.
  [[nodiscard]] int step_capacitive(double c_sense_f) {
    return step_capacitive(c_sense_f, reference_capacitance());
  }

  /// The on-chip reference branch's capacitance, with its die mismatch [F].
  [[nodiscard]] double reference_capacitance() const noexcept {
    return config_.c_ref_f * ref_mismatch_;
  }

  /// Runs `n` clocks in capacitive mode at fixed sensor/reference
  /// capacitances, writing the ±1 bitstream to `bits_out` (room for n).
  /// Bit-identical to n step_capacitive(c_sense_f, c_ref_f) calls. Per
  /// 128-clock frame, every Gaussian the frame will consume is pre-drawn into
  /// a noise plan (one SoA buffer per source, in the exact interleaved order
  /// the scalar path draws them — see fill_noise_plan_), and the frame runs
  /// through the planned step kernel (bank_kernel.hpp) at width 1 over this
  /// modulator's own state: the same kernel a ModulatorBank packet runs. This
  /// is the acquisition pipeline's block hot path.
  void step_capacitive_block(double c_sense_f, double c_ref_f, int* bits_out,
                             std::size_t n);

  /// Runs `n` clocks in voltage mode with `vin_of_t` evaluated at jittered
  /// sampling instants. Returns the ±1 bitstream.
  [[nodiscard]] std::vector<int> run_voltage(
      const std::function<double(double)>& vin_of_t, std::size_t n);

  /// Runs `n` clocks sampling a time-varying sensor capacitance.
  [[nodiscard]] std::vector<int> run_capacitive(
      const std::function<double(double)>& c_sense_of_t, std::size_t n);

  void reset();

  /// Switches the first-stage feedback capacitor bank (§4: "adjusting the
  /// feedback capacitors of the first modulator stage"). Takes effect on the
  /// next clock; the per-die mismatch factor is retained. Throws
  /// std::invalid_argument for non-positive values.
  void set_feedback_capacitor(double c_fb1_f);

  /// Capacitive-mode full-scale capacitance difference:
  /// ΔC_FS = C_fb1 · V_ref / V_exc.
  [[nodiscard]] double full_scale_delta_c() const noexcept;

  /// Normalized input that a given ΔC = C_sense − C_ref produces.
  [[nodiscard]] double normalized_input(double delta_c_f) const noexcept;

  [[nodiscard]] const ModulatorConfig& config() const noexcept { return config_; }
  [[nodiscard]] double integrator1_v() const noexcept { return x1_ * config_.loop.state_scale_v; }
  [[nodiscard]] double integrator2_v() const noexcept { return x2_ * config_.loop.state_scale_v; }
  /// Largest |integrator| voltages seen since reset (stability telemetry).
  [[nodiscard]] double max_state1_v() const noexcept { return max_x1_; }
  [[nodiscard]] double max_state2_v() const noexcept { return max_x2_; }
  /// Number of clipped integrator updates since reset.
  [[nodiscard]] std::size_t clip_count() const noexcept { return clip_count_; }
  [[nodiscard]] double time_s() const noexcept { return time_s_; }

  /// Checkpointing: integrator states, output bit, clock, telemetry peaks,
  /// every noise stream (white, both flicker generators, comparator) and the
  /// runtime-switchable C_fb1. The per-die mismatch draws, settle thresholds
  /// and other kernel invariants are construction-time state and reproduce
  /// from the config; the per-frame noise plan is transient (checkpoints are
  /// taken between frames, when the plan is fully consumed).
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  friend class ModulatorBank;

  /// Shared loop update; `u` is the normalized input (full scale ±1) and
  /// `white1_sigma` the first integrator's white-noise σ (white1_sigma_ of
  /// the mode's kT/C σ). This is the per-clock reference implementation; the
  /// planned kernel (bank_kernel.hpp) must match it expression for
  /// expression.
  [[nodiscard]] int step_normalized(double u, double white1_sigma);

  /// σ of the first integrator's merged white noise, in full-scale units.
  /// kT/C (input-referred σ `ktc_sigma_u`) enters delta1 as g1·ktc; the
  /// reference error as d·ref·(g1 − a1), where d = ±1 is fixed before the
  /// draw, so it has the law of ref·(g1 − a1); op-amp 1 noise as op1/scale.
  /// Independent zero-mean Gaussians added at one node in one clock are one
  /// Gaussian with the summed variance.
  [[nodiscard]] double white1_sigma_(double ktc_sigma_u) const noexcept;

  /// σ of the second integrator's op-amp noise, in full-scale units.
  [[nodiscard]] double op2_sigma_() const noexcept {
    return config_.opamp2.noise_vrms / config_.loop.state_scale_v;
  }

  /// Per-sample flicker amplitude for one op-amp (0 if disabled).
  [[nodiscard]] double flicker_scale(const OpAmpConfig& amp) const noexcept;

  /// Clocks per noise plan: one decimated output sample per fill, OSR
  /// clocks at the paper's operating point (128 kHz / 1 kS/s).
  static constexpr std::size_t kPlanFrame = 128;

  /// Capacitive-mode loop invariants for fixed capacitances.
  struct CapacitiveInput {
    double u{0.0};             ///< normalized input q_sig / q_fs
    double white1_sigma{0.0};  ///< white1_sigma_ of the kT/C σ
  };
  [[nodiscard]] CapacitiveInput capacitive_input_(double c_sense_f,
                                                  double c_ref_f) const noexcept;

  /// Fills plan_ for the next `n` clocks (n <= kPlanFrame), advancing every
  /// noise stream exactly as n scalar steps would.
  void fill_noise_plan_(std::size_t n, double white1_sigma) noexcept;

  // fill_noise_plan_ is split into the pieces below so the ModulatorBank can
  // drive the same plan construction with cross-lane batched Gaussian fills
  // (Rng::fill_gaussian_multi): the bank bulk-draws each stream group for all
  // lanes, then calls the per-lane de-interleave helpers. Solo and bank paths
  // share these bodies, so they cannot drift apart.

  /// Shared-stream (rng_) standard normals consumed per clock (0–2).
  [[nodiscard]] std::size_t shared_draws_per_clock_() const noexcept {
    using namespace bankkernel;
    return static_cast<std::size_t>(source_on_[kWhite1] + source_on_[kOp2]);
  }
  /// De-interleaves a shared-stream raw fill (n * shared_draws_per_clock_
  /// standard normals) with each source's σ into `dst`: source s's value for
  /// clock i goes to dst[s * source_stride + i * clock_stride] — plan_ at
  /// clock stride 1, or a lane's slot in a W-wide bank packet's
  /// [clock][lane] buffers at W.
  void build_shared_plan_(std::size_t n, double white1_sigma, const double* raw,
                          double* dst, std::size_t source_stride,
                          std::size_t clock_stride) const noexcept;
  /// Draw-site scaling of the unit pink samples in one flicker plan buffer.
  void scale_flicker_(double* flick, double flicker_scale,
                      std::size_t n) const noexcept;
  /// Source s's buffer in plan_.
  [[nodiscard]] double* plan_of_(bankkernel::Source s) noexcept {
    return plan_.data() + s * kPlanFrame;
  }

  /// The 1-lane kernel view of this modulator: its own state, invariants and
  /// plan_ buffers (stride 1). The view points into *this: rebuild it after
  /// the modulator is copied or moved. load_kernel_ / store_kernel_ bracket a
  /// block, moving the output bit, comparator memory and clip count to and
  /// from the doubles the kernel keeps (kernel_).
  [[nodiscard]] bankkernel::PacketView kernel_view_() noexcept;
  /// The kernel branches this modulator takes (loop order, settling, which
  /// noise sources exist), one bit each: bank lanes share a packet iff equal.
  [[nodiscard]] std::uint32_t structure_key_() const noexcept;
  void load_kernel_(double u) noexcept;
  void store_kernel_() noexcept;
  // The kernel's masked scalar escapes for this modulator (`ctx` is *this).
  static double settle_cb_(void* ctx, std::size_t slot, int stage, double v);
  static double metastable_cb_(void* ctx, std::size_t slot, std::size_t clock);

  ModulatorConfig config_;
  OpAmp opamp1_;
  OpAmp opamp2_;
  Comparator comparator_;
  Rng rng_;
  PinkNoise flicker1_;
  PinkNoise flicker2_;
  double flicker_scale1_{0.0};
  double flicker_scale2_{0.0};
  double x1_{0.0};  ///< first-integrator state, full-scale units
  double x2_{0.0};  ///< second-integrator state, full-scale units
  int bit_{1};
  double time_s_{0.0};
  double max_x1_{0.0};
  double max_x2_{0.0};
  std::size_t clip_count_{0};
  // Static mismatch draws (fixed per instance, like a fabricated die).
  double sample_mismatch_{1.0};
  double fb1_mismatch_{1.0};
  double ref_mismatch_{1.0};
  double g2_mismatch_{1.0};
  /// One frame's worth of pre-drawn noise, SoA: source s (bankkernel::Source)
  /// at [s * kPlanFrame + clock]. The shared-stream sources (first-stage
  /// white, op-amp 2) are de-interleaved from a single bulk
  /// Rng::fill_gaussian; flicker and comparator noise come from their own
  /// streams. Values are stored post-scaling with each source's exact scalar
  /// draw-site expression, so the kernel just adds them.
  std::array<double, bankkernel::kNumSource * kPlanFrame> plan_{};
  // Kernel invariants, fixed at construction (dt is set by the clock).
  /// Which noise sources exist, exactly as step_normalized enables them.
  std::array<bool, bankkernel::kNumSource> source_on_{};
  double dt_phase_s_{0.0};  ///< one clock phase, 0.5 / fs
  /// The kernel's per-lane invariants (bankkernel::Invariant); kG1U is set
  /// per block, the rest at construction.
  std::array<double, bankkernel::kNumInvariant> in_{};
  /// Block-scoped kernel scratch (see kernel_view_).
  struct KernelScratch {
    double d{1.0};      ///< bit_ as ±1.0
    double last{1.0};   ///< comparator hysteresis memory as ±1.0
    double clips{0.0};  ///< clipped updates this block
    int* bits{nullptr};
  } kernel_{};
  metrics::Counter* noise_plan_fills_metric_{nullptr};
};

}  // namespace tono::analog
