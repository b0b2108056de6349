#include "src/analog/modulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"
#include "src/common/units.hpp"

namespace tono::analog {

DeltaSigmaModulator::DeltaSigmaModulator(const ModulatorConfig& config)
    : config_(config),
      opamp1_(config.opamp1),
      opamp2_(config.opamp2),
      comparator_(config.comparator, Rng{config.seed}.fork_named("comparator")),
      rng_(Rng{config.seed}.fork_named("modulator")),
      flicker1_(Rng{config.seed}.fork_named("flicker1"), 20),
      flicker2_(Rng{config.seed}.fork_named("flicker2"), 20) {
  flicker_scale1_ = flicker_scale(config_.opamp1);
  flicker_scale2_ = flicker_scale(config_.opamp2);
  if (config_.sampling_rate_hz <= 0.0) {
    throw std::invalid_argument{"DeltaSigmaModulator: sampling rate must be > 0"};
  }
  if (config_.vref_v <= 0.0 || config_.vexc_v <= 0.0) {
    throw std::invalid_argument{"DeltaSigmaModulator: references must be > 0"};
  }
  if (config_.c_sample_f <= 0.0 || config_.c_fb1_f <= 0.0 || config_.c_ref_f <= 0.0) {
    throw std::invalid_argument{"DeltaSigmaModulator: capacitors must be > 0"};
  }
  if (config_.order != 1 && config_.order != 2) {
    throw std::invalid_argument{"DeltaSigmaModulator: order must be 1 or 2"};
  }
  Rng mismatch_rng = Rng{config_.seed}.fork_named("mismatch");
  const double sigma = config_.cap_mismatch_sigma;
  sample_mismatch_ = 1.0 + mismatch_rng.gaussian(0.0, sigma);
  fb1_mismatch_ = 1.0 + mismatch_rng.gaussian(0.0, sigma);
  ref_mismatch_ = 1.0 + mismatch_rng.gaussian(0.0, sigma);
  g2_mismatch_ = 1.0 + mismatch_rng.gaussian(0.0, sigma);
  // Kernel invariants: the clock phase is fixed by the config, so the
  // exact-settle thresholds can be resolved once here instead of per clock.
  using namespace bankkernel;
  dt_phase_s_ = 0.5 / config_.sampling_rate_hz;
  in_[kA1] = config_.loop.a1;
  // step_normalized's delta2 is (g2 · g2_mismatch_) · x1_prev under left
  // association, so pre-multiplying is exact.
  in_[kP2] = config_.loop.g2 * g2_mismatch_;
  in_[kA2] = config_.loop.a2;
  in_[kScale] = config_.loop.state_scale_v;
  in_[kLeak1] = opamp1_.leak_factor();
  in_[kLeak2] = opamp2_.leak_factor();
  in_[kSwing1] = config_.opamp1.output_swing_v;
  in_[kSwing2] = config_.opamp2.output_swing_v;
  in_[kSettle1] = opamp1_.full_settle_threshold(dt_phase_s_);
  in_[kSettle2] = opamp2_.full_settle_threshold(dt_phase_s_);
  in_[kCompOffset] = config_.comparator.offset_v;
  // Comparator::decide's 0.5 · h · (−last) is left-associated, so
  // pre-multiplying is exact.
  in_[kCompHalfHyst] = 0.5 * config_.comparator.hysteresis_v;
  in_[kCompBand] = config_.comparator.metastable_band_v;
  in_[kClockPeriod] = 1.0 / config_.sampling_rate_hz;  // step_normalized's exact double
  const bool order2 = config_.order == 2;
  // The reference term of white1_sigma_ vanishes at g1 == a1.
  const bool ref_noise_on =
      config_.ref_noise_vrms > 0.0 && config_.loop.g1 != config_.loop.a1;
  source_on_ = {config_.enable_ktc_noise || ref_noise_on ||
                    config_.opamp1.noise_vrms > 0.0,
                flicker_scale1_ > 0.0,
                order2 && config_.opamp2.noise_vrms > 0.0,
                order2 && flicker_scale2_ > 0.0,
                config_.comparator.noise_vrms > 0.0};
  noise_plan_fills_metric_ =
      &metrics::Registry::global().counter(metrics::names::kModulatorNoisePlanFills);
}

double DeltaSigmaModulator::flicker_scale(const OpAmpConfig& amp) const noexcept {
  if (amp.flicker_corner_hz <= 0.0 || amp.noise_vrms <= 0.0) return 0.0;
  // White PSD: σ_w² / (fs/2). Pink generator: unit variance spread as c/f
  // over [f_lo, fs/2] with f_lo = fs/2^octaves (20 octaves) →
  // c = 1/ln(2^19). Scale g so g²·c/f_corner = white PSD, i.e. the flicker
  // PSD crosses the white floor at the corner; CDS divides the amplitude.
  const double fs_half = 0.5 * config_.sampling_rate_hz;
  const double c = 1.0 / (19.0 * std::log(2.0));
  const double white_psd = amp.noise_vrms * amp.noise_vrms / fs_half;
  const double g = std::sqrt(white_psd * amp.flicker_corner_hz / c);
  const double rejection = std::max(config_.cds_flicker_rejection, 1.0);
  return g / rejection;
}

void DeltaSigmaModulator::set_feedback_capacitor(double c_fb1_f) {
  if (c_fb1_f <= 0.0) {
    throw std::invalid_argument{"set_feedback_capacitor: must be > 0"};
  }
  config_.c_fb1_f = c_fb1_f;
}

double DeltaSigmaModulator::full_scale_delta_c() const noexcept {
  return config_.c_fb1_f * fb1_mismatch_ * config_.vref_v / config_.vexc_v;
}

double DeltaSigmaModulator::normalized_input(double delta_c_f) const noexcept {
  return delta_c_f / full_scale_delta_c();
}

double DeltaSigmaModulator::white1_sigma_(double ktc_sigma_u) const noexcept {
  const auto& lc = config_.loop;
  const double ktc = lc.g1 * ktc_sigma_u;
  const double ref = (lc.g1 - lc.a1) * config_.ref_noise_vrms / config_.vref_v;
  const double op1 = config_.opamp1.noise_vrms / lc.state_scale_v;
  return std::sqrt(ktc * ktc + ref * ref + op1 * op1);
}

int DeltaSigmaModulator::step_normalized(double u, double white1_sigma) {
  using namespace bankkernel;
  const double dt = 0.5 / config_.sampling_rate_hz;  // one clock phase
  const auto& lc = config_.loop;
  const double scale = lc.state_scale_v;  // volts per unit of loop state
  const double d = static_cast<double>(bit_);

  // ---- First integrator (delaying): x1 += g1·u − a1·d, state in FS units,
  // plus the merged kT/C + reference + op-amp white noise and the op-amp
  // flicker, referred to the integrator output node.
  double delta1 = lc.g1 * u - lc.a1 * d;
  if (source_on_[kWhite1]) delta1 += white1_sigma * rng_.gaussian();
  if (flicker_scale1_ > 0.0) {
    delta1 += flicker1_.next() * flicker_scale1_ / scale;
  }
  if (config_.enable_settling) {
    delta1 = opamp1_.settle(delta1 * scale, dt) / scale;
  }
  const double x1_prev = x1_;
  const double x1_new = opamp1_.leak_factor() * x1_ + delta1;
  const double x1_clipped = opamp1_.clip(x1_new * scale) / scale;
  if (x1_clipped != x1_new) ++clip_count_;
  x1_ = x1_clipped;

  max_x1_ = std::max(max_x1_, std::abs(x1_ * scale));

  if (config_.order == 1) {
    // Single-integrator baseline: the quantizer closes directly on x1.
    bit_ = comparator_.decide(x1_ * scale);
    time_s_ += 1.0 / config_.sampling_rate_hz;
    return bit_;
  }

  // ---- Second integrator: x2 += g2·x1_prev − a2·d (x1 half-cycle delayed).
  double delta2 = lc.g2 * g2_mismatch_ * x1_prev - lc.a2 * d;
  if (source_on_[kOp2]) delta2 += op2_sigma_() * rng_.gaussian();
  if (flicker_scale2_ > 0.0) {
    delta2 += flicker2_.next() * flicker_scale2_ / scale;
  }
  if (config_.enable_settling) {
    delta2 = opamp2_.settle(delta2 * scale, dt) / scale;
  }
  const double x2_new = opamp2_.leak_factor() * x2_ + delta2;
  const double x2_clipped = opamp2_.clip(x2_new * scale) / scale;
  if (x2_clipped != x2_new) ++clip_count_;
  x2_ = x2_clipped;

  max_x2_ = std::max(max_x2_, std::abs(x2_ * scale));

  // ---- Quantizer sees the physical second-integrator output voltage.
  bit_ = comparator_.decide(x2_ * scale);
  time_s_ += 1.0 / config_.sampling_rate_hz;
  return bit_;
}

int DeltaSigmaModulator::step_voltage(double vin_v) {
  const double c_s = config_.c_sample_f * sample_mismatch_;
  double ktc_sigma_u = 0.0;
  if (config_.enable_ktc_noise) {
    // Input + feedback branches sample on c_sample twice per period:
    // variance 4·kT·C in charge, normalized by the full-scale charge.
    const double q_sigma =
        std::sqrt(4.0 * units::k_boltzmann * config_.temperature_k * c_s);
    ktc_sigma_u = q_sigma / (c_s * config_.vref_v);
  }
  return step_normalized(vin_v / config_.vref_v, white1_sigma_(ktc_sigma_u));
}

int DeltaSigmaModulator::step_capacitive(double c_sense_f, double c_ref_f) {
  const CapacitiveInput in = capacitive_input_(c_sense_f, c_ref_f);
  return step_normalized(in.u, in.white1_sigma);
}

DeltaSigmaModulator::CapacitiveInput DeltaSigmaModulator::capacitive_input_(
    double c_sense_f, double c_ref_f) const noexcept {
  CapacitiveInput in;
  const double c_fb = config_.c_fb1_f * fb1_mismatch_;
  const double q_fs = c_fb * config_.vref_v;
  const double q_sig = (c_sense_f - c_ref_f) * config_.vexc_v;
  in.u = q_sig / q_fs;
  double ktc_sigma_u = 0.0;
  if (config_.enable_ktc_noise) {
    // Sensor, reference and feedback branches each contribute kT·C per
    // phase; two phases per conversion.
    const double c_total = c_sense_f + c_ref_f + c_fb;
    const double q_sigma =
        std::sqrt(2.0 * units::k_boltzmann * config_.temperature_k * c_total * 2.0);
    ktc_sigma_u = q_sigma / q_fs;
  }
  in.white1_sigma = white1_sigma_(ktc_sigma_u);
  return in;
}

void DeltaSigmaModulator::build_shared_plan_(
    std::size_t n, double white1_sigma, const double* raw, double* dst,
    std::size_t source_stride, std::size_t clock_stride) const noexcept {
  // The shared stream's draw order per clock is [first-stage white,
  // op-amp 2], each present only when its source is enabled, as
  // step_normalized draws them; each value is σ · the standard normal.
  using namespace bankkernel;
  const double op2_sigma = op2_sigma_();
  double* const white1_dst = dst + kWhite1 * source_stride;
  double* const op2_dst = dst + kOp2 * source_stride;
  std::size_t j = 0;
  for (std::size_t i = 0, o = 0; i < n; ++i, o += clock_stride) {
    if (source_on_[kWhite1]) white1_dst[o] = white1_sigma * raw[j++];
    if (source_on_[kOp2]) op2_dst[o] = op2_sigma * raw[j++];
  }
}

void DeltaSigmaModulator::scale_flicker_(double* flick, double flicker_scale,
                                         std::size_t n) const noexcept {
  const double scale = config_.loop.state_scale_v;
  for (std::size_t i = 0; i < n; ++i) flick[i] = flick[i] * flicker_scale / scale;
}

void DeltaSigmaModulator::fill_noise_plan_(std::size_t n, double white1_sigma) noexcept {
  // Generate the whole frame's worth of shared-stream normals in a single
  // bulk fill (same end state as the interleaved scalar draws), then
  // de-interleave. See build_shared_plan_.
  using namespace bankkernel;
  double raw[2 * kPlanFrame];
  rng_.fill_gaussian(raw, n * shared_draws_per_clock_());
  build_shared_plan_(n, white1_sigma, raw, plan_.data(), kPlanFrame, 1);
  if (source_on_[kFl1]) {
    flicker1_.fill_next(plan_of_(kFl1), n);
    scale_flicker_(plan_of_(kFl1), flicker_scale1_, n);
  }
  if (source_on_[kFl2]) {
    flicker2_.fill_next(plan_of_(kFl2), n);
    scale_flicker_(plan_of_(kFl2), flicker_scale2_, n);
  }
  if (Rng* stream = comparator_.plan(plan_of_(kComp), n)) {
    stream->fill_gaussian(plan_of_(kComp), n, 0.0, config_.comparator.noise_vrms);
  }
  noise_plan_fills_metric_->add(1);  // frame rate — inside the hot-path contract
}

bankkernel::PacketView DeltaSigmaModulator::kernel_view_() noexcept {
  using namespace bankkernel;
  PacketView v;
  v.width = 1;
  v.state[kX1] = &x1_;
  v.state[kX2] = &x2_;
  v.state[kD] = &kernel_.d;
  v.state[kLast] = &kernel_.last;
  v.state[kTime] = &time_s_;
  v.state[kMax1] = &max_x1_;
  v.state[kMax2] = &max_x2_;
  v.state[kClips] = &kernel_.clips;
  for (std::size_t f = 0; f < kNumInvariant; ++f) v.in[f] = &in_[f];
  for (std::size_t src = 0; src < kNumSource; ++src) {
    v.noise[src] = source_on_[src] ? plan_of_(static_cast<Source>(src)) : nullptr;
  }
  v.order2 = config_.order == 2;
  v.settling = config_.enable_settling;
  v.bits = &kernel_.bits;
  v.ctx = this;
  v.settle_fn = &DeltaSigmaModulator::settle_cb_;
  v.metastable_fn = &DeltaSigmaModulator::metastable_cb_;
  return v;
}

std::uint32_t DeltaSigmaModulator::structure_key_() const noexcept {
  std::uint32_t key = (config_.order == 2 ? 1u : 0u) | (config_.enable_settling ? 2u : 0u);
  for (std::size_t s = 0; s < bankkernel::kNumSource; ++s) {
    if (source_on_[s]) key |= 4u << s;
  }
  return key;
}

void DeltaSigmaModulator::load_kernel_(double u) noexcept {
  in_[bankkernel::kG1U] = config_.loop.g1 * u;  // step_normalized's lc.g1 * u
  kernel_.d = static_cast<double>(bit_);
  kernel_.last = static_cast<double>(comparator_.last_decision());
  kernel_.clips = 0.0;  // per-block count, added to clip_count_ after
}

void DeltaSigmaModulator::store_kernel_() noexcept {
  bit_ = static_cast<int>(kernel_.d);
  comparator_.set_last_decision(static_cast<int>(kernel_.last));
  clip_count_ += static_cast<std::size_t>(kernel_.clips);
}

double DeltaSigmaModulator::settle_cb_(void* ctx, std::size_t /*slot*/,
                                       int stage, double v) {
  const auto& m = *static_cast<const DeltaSigmaModulator*>(ctx);
  return (stage == 1 ? m.opamp1_ : m.opamp2_).settle(v, m.dt_phase_s_);
}

double DeltaSigmaModulator::metastable_cb_(void* ctx, std::size_t /*slot*/,
                                           std::size_t clock) {
  auto& m = *static_cast<DeltaSigmaModulator*>(ctx);
  return static_cast<double>(m.comparator_.decide_metastable_at(clock));
}

void DeltaSigmaModulator::step_capacitive_block(double c_sense_f, double c_ref_f,
                                                int* bits_out, std::size_t n) {
  const CapacitiveInput in = capacitive_input_(c_sense_f, c_ref_f);
  bankkernel::PacketView view = kernel_view_();
  load_kernel_(in.u);
  while (n > 0) {
    const std::size_t frame = std::min<std::size_t>(n, kPlanFrame);
    fill_noise_plan_(frame, in.white1_sigma);
    kernel_.bits = bits_out;
    bankkernel::run_packets_scalar(&view, 1, frame);
    bits_out += frame;
    n -= frame;
  }
  store_kernel_();
}

std::vector<int> DeltaSigmaModulator::run_voltage(
    const std::function<double(double)>& vin_of_t, std::size_t n) {
  std::vector<int> bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double t = time_s_;
    if (config_.clock_jitter_rms_s > 0.0) {
      t += rng_.gaussian(0.0, config_.clock_jitter_rms_s);
    }
    bits.push_back(step_voltage(vin_of_t(t)));
  }
  return bits;
}

std::vector<int> DeltaSigmaModulator::run_capacitive(
    const std::function<double(double)>& c_sense_of_t, std::size_t n) {
  std::vector<int> bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double t = time_s_;
    if (config_.clock_jitter_rms_s > 0.0) {
      t += rng_.gaussian(0.0, config_.clock_jitter_rms_s);
    }
    bits.push_back(step_capacitive(c_sense_of_t(t)));
  }
  return bits;
}

void DeltaSigmaModulator::reset() {
  x1_ = 0.0;
  x2_ = 0.0;
  bit_ = 1;
  time_s_ = 0.0;
  max_x1_ = 0.0;
  max_x2_ = 0.0;
  clip_count_ = 0;
}

void DeltaSigmaModulator::serialize(CheckpointWriter& out) const {
  out.section("modulator");
  out.f64(config_.c_fb1_f);  // runtime-switchable via set_feedback_capacitor
  out.f64(x1_);
  out.f64(x2_);
  out.i64(bit_);
  out.f64(time_s_);
  out.f64(max_x1_);
  out.f64(max_x2_);
  out.size(clip_count_);
  rng_.serialize(out);
  flicker1_.serialize(out);
  flicker2_.serialize(out);
  comparator_.serialize(out);
}

void DeltaSigmaModulator::restore(CheckpointReader& in) {
  in.section("modulator");
  const double c_fb1_f = in.f64();
  if (!(c_fb1_f > 0.0)) {
    throw CheckpointError{"modulator checkpoint feedback capacitor is not > 0"};
  }
  config_.c_fb1_f = c_fb1_f;
  x1_ = in.f64();
  x2_ = in.f64();
  const std::int64_t bit = in.i64();
  if (bit != 1 && bit != -1) {
    throw CheckpointError{"modulator checkpoint output bit is not +1 or -1"};
  }
  bit_ = static_cast<int>(bit);
  time_s_ = in.f64();
  max_x1_ = in.f64();
  max_x2_ = in.f64();
  clip_count_ = in.size();
  rng_.restore(in);
  flicker1_.restore(in);
  flicker2_.restore(in);
  comparator_.restore(in);
}

namespace bankkernel {
namespace {

/// Width-1 policy: plain doubles, so each op is the scalar expression itself.
struct VecScalar {
  static constexpr std::size_t kW = 1;
  using D = double;
  using M = bool;

  static D load(const double* ptr) noexcept { return *ptr; }
  static void store(double* ptr, D v) noexcept { *ptr = v; }
  static D zero() noexcept { return 0.0; }
  static D one() noexcept { return 1.0; }
  static D add(D a, D b) noexcept { return a + b; }
  static D sub(D a, D b) noexcept { return a - b; }
  static D mul(D a, D b) noexcept { return a * b; }
  static D div(D a, D b) noexcept { return a / b; }
  static D abs(D a) noexcept { return std::abs(a); }
  static D neg(D a) noexcept { return -a; }
  /// mask ? a : b
  static D select(M mask, D a, D b) noexcept { return mask ? a : b; }
  static M cmp_lt(D a, D b) noexcept { return a < b; }
  static M cmp_ge(D a, D b) noexcept { return a >= b; }
  static M cmp_eq(D a, D b) noexcept { return a == b; }
  static M cmp_neq(D a, D b) noexcept { return a != b; }
  static M cmp_nle(D a, D b) noexcept { return !(a <= b); }
  static bool any(M mask) noexcept { return mask; }
  static unsigned mask(M m) noexcept { return m ? 1u : 0u; }
  static unsigned ctz(unsigned /*m*/) noexcept { return 0; }
};

}  // namespace

void run_packets_scalar(PacketView* packets, std::size_t n_packets,
                        std::size_t n_clocks) {
  run_packets<VecScalar>(packets, n_packets, n_clocks);
}

}  // namespace bankkernel
}  // namespace tono::analog
