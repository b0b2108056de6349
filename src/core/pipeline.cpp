#include "src/core/pipeline.hpp"

#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"
#include "src/common/fixed_point.hpp"

namespace tono::core {
namespace {

analog::MuxConfig mux_config_for(const ChipConfig& config) {
  analog::MuxConfig m = config.mux;
  m.rows = config.array.rows;
  m.cols = config.array.cols;
  m.excitation_v = config.modulator.vexc_v;
  return m;
}

}  // namespace

AcquisitionPipeline::AcquisitionPipeline(const ChipConfig& config)
    : config_(config),
      array_(config),
      mux_(mux_config_for(config)),
      modulator_(config.modulator),
      chain_(config.decimation),
      bit_scratch_(config.decimation.total_decimation) {
  // The modulator's reference branch is the chip's reference structure.
  last_capacitance_ = array_.reference_capacitance();
  mux_.note_preswitch_capacitance(last_capacitance_);
  auto& reg = metrics::Registry::global();
  frames_metric_ = &reg.counter(metrics::names::kPipelineFrames);
  frames_block_metric_ = &reg.counter(metrics::names::kPipelineFramesBlock);
  frames_scalar_metric_ = &reg.counter(metrics::names::kPipelineFramesScalar);
  mux_fallbacks_metric_ = &reg.counter(metrics::names::kPipelineMuxFallbacks);
  peak_state1_gauge_ = &reg.gauge(metrics::names::kModulatorPeakState1V);
  peak_state2_gauge_ = &reg.gauge(metrics::names::kModulatorPeakState2V);
  clip_count_gauge_ = &reg.gauge(metrics::names::kModulatorClipCount);
}

void AcquisitionPipeline::record_frame_(bool block_path) {
  frames_metric_->add(1);
  (block_path ? frames_block_metric_ : frames_scalar_metric_)->add(1);
  peak_state1_gauge_->record_max(modulator_.max_state1_v());
  peak_state2_gauge_->record_max(modulator_.max_state2_v());
  clip_count_gauge_->record_max(static_cast<double>(modulator_.clip_count()));
}

void AcquisitionPipeline::select(std::size_t row, std::size_t col) {
  if (row == mux_.selected_row() && col == mux_.selected_col()) return;
  mux_.note_preswitch_capacitance(last_capacitance_);
  mux_.select(row, col);
  last_switch_clock_ = clocks_;
}

std::optional<dsp::DecimatedSample> AcquisitionPipeline::clock(double contact_pressure_pa) {
  const auto& elem = array_.element(mux_.selected_row(), mux_.selected_col());
  const double c_target = elem.capacitance(contact_pressure_pa, temperature_k_);
  const double c_seen = mux_.observed_capacitance(c_target, since_switch_s_());
  last_capacitance_ = c_seen;
  const int bit = modulator_.step_capacitive(c_seen, array_.reference_capacitance());
  ++clocks_;
  auto sample = chain_.push(bit);
  if (sample) record_frame_(/*block_path=*/false);
  return sample;
}

dsp::DecimatedSample AcquisitionPipeline::clock_block(double contact_pressure_pa) {
  if (const auto fallback = begin_frame(contact_pressure_pa)) return *fallback;
  const std::size_t n = config_.decimation.total_decimation;
  modulator_.step_capacitive_block(last_capacitance_, array_.reference_capacitance(),
                                   bit_scratch_.data(), n);
  return end_frame({bit_scratch_.data(), n});
}

std::optional<dsp::DecimatedSample> AcquisitionPipeline::begin_frame(
    double contact_pressure_pa) {
  if (!mux_.is_settled(since_switch_s_())) {
    // Mux transient still decaying (only right after select() / reset()):
    // the per-clock blend matters, so run the frame through the scalar path.
    // Any `n` consecutive clocks contain exactly one output instant.
    std::optional<dsp::DecimatedSample> out;
    for (std::size_t i = 0; i < config_.decimation.total_decimation; ++i) {
      if (auto s = clock(contact_pressure_pa)) out = s;
    }
    mux_fallbacks_metric_->add(1);  // the frame itself was counted by clock()
    return *out;
  }
  const auto& elem = array_.element(mux_.selected_row(), mux_.selected_col());
  // Settled ⇒ observed_capacitance returns the target bit-for-bit every
  // clock, so the lookup hoists and the scalar path's last_capacitance_
  // tracking collapses to one store.
  last_capacitance_ = elem.capacitance(contact_pressure_pa, temperature_k_);
  return std::nullopt;
}

dsp::DecimatedSample AcquisitionPipeline::end_frame(std::span<const int> bits) {
  clocks_ += bits.size();
  const auto sample = chain_.push_frame(bits);
  record_frame_(/*block_path=*/true);
  return sample;
}

std::vector<dsp::DecimatedSample> AcquisitionPipeline::acquire(const ContactField& field,
                                                               std::size_t n_out) {
  const auto& pos = array_.element(mux_.selected_row(), mux_.selected_col()).position();
  std::vector<dsp::DecimatedSample> out;
  out.reserve(n_out);
  while (out.size() < n_out) {
    const double p = field(pos.x_m, pos.y_m, time_s());
    if (auto s = clock(p)) out.push_back(*s);
  }
  return out;
}

std::vector<dsp::DecimatedSample> AcquisitionPipeline::acquire_uniform(
    const std::function<double(double)>& pressure_pa_of_t, std::size_t n_out) {
  std::vector<dsp::DecimatedSample> out;
  out.reserve(n_out);
  while (out.size() < n_out) {
    if (auto s = clock(pressure_pa_of_t(time_s()))) out.push_back(*s);
  }
  return out;
}

std::vector<dsp::DecimatedSample> AcquisitionPipeline::acquire_block(const ContactField& field,
                                                                     std::size_t n_out) {
  const auto& pos = array_.element(mux_.selected_row(), mux_.selected_col()).position();
  std::vector<dsp::DecimatedSample> out;
  out.reserve(n_out);
  for (std::size_t i = 0; i < n_out; ++i) {
    const double p = field(pos.x_m, pos.y_m, time_s());
    out.push_back(clock_block(p));
  }
  return out;
}

std::vector<dsp::DecimatedSample> AcquisitionPipeline::acquire_uniform_block(
    const std::function<double(double)>& pressure_pa_of_t, std::size_t n_out) {
  std::vector<dsp::DecimatedSample> out;
  out.reserve(n_out);
  for (std::size_t i = 0; i < n_out; ++i) {
    out.push_back(clock_block(pressure_pa_of_t(time_s())));
  }
  return out;
}

void AcquisitionPipeline::reset() {
  modulator_.reset();
  chain_.reset();
  clocks_ = 0;
  last_switch_clock_ = 0;
  last_capacitance_ = array_.reference_capacitance();
}

double AcquisitionPipeline::set_feedback_capacitor(double c_fb1_f) {
  const double before = modulator_.full_scale_delta_c();
  modulator_.set_feedback_capacitor(c_fb1_f);
  config_.modulator.c_fb1_f = c_fb1_f;
  return modulator_.full_scale_delta_c() / before;
}

void AcquisitionPipeline::serialize(CheckpointWriter& out) const {
  out.section("pipeline");
  out.f64(config_.modulator.c_fb1_f);  // tracks set_feedback_capacitor
  array_.serialize(out);
  mux_.serialize(out);
  modulator_.serialize(out);
  chain_.serialize(out);
  out.u64(clocks_);
  out.u64(last_switch_clock_);
  out.f64(last_capacitance_);
  out.f64(temperature_k_);
}

void AcquisitionPipeline::restore(CheckpointReader& in) {
  in.section("pipeline");
  config_.modulator.c_fb1_f = in.f64();
  array_.restore(in);
  mux_.restore(in);
  modulator_.restore(in);
  chain_.restore(in);
  clocks_ = in.u64();
  last_switch_clock_ = in.u64();
  if (last_switch_clock_ > clocks_) {
    throw CheckpointError{"pipeline checkpoint switched the mux after its own clock"};
  }
  last_capacitance_ = in.f64();
  temperature_k_ = in.f64();
}

double AcquisitionPipeline::clock_rate_hz() const noexcept {
  return config_.modulator.sampling_rate_hz;
}

double AcquisitionPipeline::output_rate_hz() const noexcept {
  return chain_.output_rate_hz();
}

ArrayAcquisition::ArrayAcquisition(const ChipConfig& config)
    : config_(config),
      array_(config),
      bank_(config.modulator, array_.size()) {  // array_ initialized first
  const std::size_t lanes = bank_.lanes();
  chains_.reserve(lanes);
  for (std::size_t k = 0; k < lanes; ++k) chains_.emplace_back(config.decimation);
  c_sense_.resize(lanes);
  c_ref_.assign(lanes, array_.reference_capacitance());
  bit_scratch_.resize(lanes * config.decimation.total_decimation);
}

void ArrayAcquisition::acquire_frame(const ContactField& field,
                                     dsp::DecimatedSample* out) {
  const std::size_t lanes = bank_.lanes();
  const std::size_t n = config_.decimation.total_decimation;
  // Element health gates the lane mask: a dead membrane has nothing physical
  // to convert, so its lane is masked out of the bank (frozen — no stepping,
  // no noise draws) rather than left converting a meaningless fault
  // capacitance. The mask follows the array both ways, so a cleared fault
  // resumes the lane bit-identically from its frozen state. Healthy lanes
  // are unaffected either way: lanes never share draws.
  for (std::size_t k = 0; k < lanes; ++k) {
    const bool healthy = array_.element(k).is_healthy();
    if (healthy != bank_.lane_enabled(k)) bank_.set_lane_enabled(k, healthy);
    if (!healthy) continue;
    const auto& elem = array_.element(k);
    const auto& pos = elem.position();
    c_sense_[k] =
        elem.capacitance(field(pos.x_m, pos.y_m, time_s()), temperature_k_);
  }
  bank_.step_capacitive_block(c_sense_.data(), c_ref_.data(),
                              bit_scratch_.data(), n);
  clocks_ += n;
  for (std::size_t k = 0; k < lanes; ++k) {
    if (!bank_.lane_enabled(k)) {
      out[k] = dsp::DecimatedSample{};  // masked lane: no sample this frame
      continue;
    }
    out[k] = chains_[k].push_frame({bit_scratch_.data() + k * n, n});
    if (!flat_field_.empty()) {
      const int bits = config_.decimation.output_bits;
      out[k].code = saturate_to_bits(out[k].code - flat_field_[k], bits);
      out[k].value = dequantize_from_bits(out[k].code, bits);
    }
  }
}

void ArrayAcquisition::calibrate_flat_field(const ContactField& reference,
                                            std::size_t settle,
                                            std::size_t frames) {
  if (frames == 0) {
    throw std::invalid_argument{"ArrayAcquisition: flat field needs frames > 0"};
  }
  flat_field_.clear();  // the reference frames read raw codes
  const std::size_t lanes = bank_.lanes();
  std::vector<dsp::DecimatedSample> frame(lanes);
  for (std::size_t i = 0; i < settle; ++i) acquire_frame(reference, frame.data());
  std::vector<std::int64_t> sum(lanes, 0);
  for (std::size_t i = 0; i < frames; ++i) {
    acquire_frame(reference, frame.data());
    for (std::size_t k = 0; k < lanes; ++k) sum[k] += frame[k].code;
  }
  flat_field_.resize(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    flat_field_[k] = std::llround(static_cast<double>(sum[k]) /
                                  static_cast<double>(frames));
  }
}

std::vector<std::vector<dsp::DecimatedSample>> ArrayAcquisition::acquire_block(
    const ContactField& field, std::size_t n_out) {
  const std::size_t lanes = bank_.lanes();
  std::vector<std::vector<dsp::DecimatedSample>> out(lanes);
  for (auto& lane : out) lane.reserve(n_out);
  std::vector<dsp::DecimatedSample> frame(lanes);
  for (std::size_t i = 0; i < n_out; ++i) {
    acquire_frame(field, frame.data());
    for (std::size_t k = 0; k < lanes; ++k) out[k].push_back(frame[k]);
  }
  return out;
}

void ArrayAcquisition::reset() {
  bank_.reset();
  for (auto& chain : chains_) chain.reset();
  clocks_ = 0;
}

double ArrayAcquisition::output_rate_hz() const noexcept {
  return chains_.front().output_rate_hz();
}

void ArrayAcquisition::serialize(CheckpointWriter& out) const {
  out.section("array_acquisition");
  array_.serialize(out);
  bank_.serialize(out);
  out.size(chains_.size());
  for (const auto& chain : chains_) chain.serialize(out);
  out.u64(clocks_);
  out.f64(temperature_k_);
  out.size(flat_field_.size());
  for (const std::int64_t offset : flat_field_) out.i64(offset);
}

void ArrayAcquisition::restore(CheckpointReader& in) {
  in.section("array_acquisition");
  array_.restore(in);
  bank_.restore(in);
  if (in.size() != chains_.size()) {
    throw CheckpointError{"array acquisition checkpoint chain count mismatch"};
  }
  for (auto& chain : chains_) chain.restore(in);
  clocks_ = in.u64();
  temperature_k_ = in.f64();
  const std::size_t offsets = in.size();
  if (offsets != 0 && offsets != chains_.size()) {
    throw CheckpointError{"array acquisition checkpoint flat-field size mismatch"};
  }
  flat_field_.resize(offsets);
  for (auto& offset : flat_field_) offset = in.i64();
}

}  // namespace tono::core
