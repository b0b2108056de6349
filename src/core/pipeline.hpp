// pipeline.hpp — the complete on-chip signal path of Fig. 3.
//
// contact pressure → membrane capacitance → analog mux → ΔΣ modulator →
// (external) SINC³ + FIR decimation → 12-bit samples at 1 kS/s.
//
// The pipeline is clocked at the modulator rate (128 kHz); every
// `total_decimation` clocks one output sample emerges, exactly as on the
// FPGA-attached demonstrator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/analog/modulator.hpp"
#include "src/analog/modulator_bank.hpp"
#include "src/analog/mux.hpp"
#include "src/common/metrics.hpp"
#include "src/core/sensor_array.hpp"
#include "src/dsp/decimation.hpp"

namespace tono::core {

/// Contact pressure [Pa] at a point on the chip surface at a given time.
/// x/y are die coordinates relative to the array center.
using ContactField = std::function<double(double x_m, double y_m, double t_s)>;

class AcquisitionPipeline {
 public:
  explicit AcquisitionPipeline(const ChipConfig& config);

  /// Routes element (row, col) to the modulator (Fig. 4 row/column mux).
  void select(std::size_t row, std::size_t col);

  [[nodiscard]] std::size_t selected_row() const noexcept { return mux_.selected_row(); }
  [[nodiscard]] std::size_t selected_col() const noexcept { return mux_.selected_col(); }

  /// One modulator clock: samples the selected element under the given
  /// contact pressure. Returns a decimated sample every OSR clocks.
  [[nodiscard]] std::optional<dsp::DecimatedSample> clock(double contact_pressure_pa);

  /// One output frame — `total_decimation` modulator clocks — at a constant
  /// contact pressure; returns the frame's single output sample. Bit-identical
  /// to that many scalar clock() calls at the same pressure: the capacitance
  /// lookup, temperature response and mux settling check are hoisted out of
  /// the clock loop, the modulator runs its fused block step, and the
  /// decimation chain consumes the whole frame at once. The first frame after
  /// select() (mux transient still live) transparently falls back to the
  /// scalar path.
  [[nodiscard]] dsp::DecimatedSample clock_block(double contact_pressure_pa);

  /// Runs until `n_out` output samples are produced, evaluating the contact
  /// field at the selected element's position each clock.
  [[nodiscard]] std::vector<dsp::DecimatedSample> acquire(const ContactField& field,
                                                          std::size_t n_out);

  /// Same, with a spatially uniform pressure-vs-time function.
  [[nodiscard]] std::vector<dsp::DecimatedSample> acquire_uniform(
      const std::function<double(double)>& pressure_pa_of_t, std::size_t n_out);

  /// Block-mode acquire: evaluates the contact field once per output frame
  /// (piecewise-constant pressure over each 1 kHz output period) instead of
  /// once per 128 kHz clock. Several times faster than acquire(). For a
  /// field that only changes at frame boundaries — BloodPressureMonitor's
  /// contact field holds its physiology for the whole frame — the two are
  /// bit-identical; a field that moves within a frame differs by that
  /// sub-sample motion.
  [[nodiscard]] std::vector<dsp::DecimatedSample> acquire_block(const ContactField& field,
                                                                std::size_t n_out);

  /// Same, with a spatially uniform pressure-vs-time function.
  [[nodiscard]] std::vector<dsp::DecimatedSample> acquire_uniform_block(
      const std::function<double(double)>& pressure_pa_of_t, std::size_t n_out);

  /// Resets modulator, decimation filter and time (array state is static).
  void reset();

  [[nodiscard]] double clock_rate_hz() const noexcept;
  [[nodiscard]] double output_rate_hz() const noexcept;
  /// Modulator clocks since construction or reset(). Time is derived from
  /// this count, never accumulated, so it cannot drift over a long session.
  [[nodiscard]] std::uint64_t clocks() const noexcept { return clocks_; }
  /// Pipeline time [s]: clocks() / clock_rate_hz(), exactly.
  [[nodiscard]] double time_s() const noexcept {
    return static_cast<double>(clocks_) / clock_rate_hz();
  }

  /// Capacitance difference corresponding to a full-scale output.
  [[nodiscard]] double delta_c_full_scale() const noexcept {
    return modulator_.full_scale_delta_c();
  }

  /// Switches the modulator's feedback-capacitor bank (§4 resolution knob).
  /// Returns the ratio new/old full scale, which is also the factor an
  /// existing calibration gain must be multiplied by.
  double set_feedback_capacitor(double c_fb1_f);

  /// Runtime element-fault injection (fleet fault plans): the membrane at
  /// (row, col) fails mid-run. If the faulted element is the selected one,
  /// readout continues at its (now pressure-independent) fault capacitance
  /// until the caller re-routes via select().
  void inject_element_fault(std::size_t row, std::size_t col, ElementFault fault) {
    array_.inject_fault(row, col, fault);
  }

  /// Die temperature [K]; body contact warms the chip and drifts the
  /// membrane capacitance through its tempco.
  void set_temperature(double kelvin) noexcept { temperature_k_ = kelvin; }
  [[nodiscard]] double temperature_k() const noexcept { return temperature_k_; }

  [[nodiscard]] const SensorArray& array() const noexcept { return array_; }
  [[nodiscard]] analog::DeltaSigmaModulator& modulator() noexcept { return modulator_; }
  [[nodiscard]] const dsp::DecimationChain& decimation() const noexcept { return chain_; }
  [[nodiscard]] const ChipConfig& config() const noexcept { return config_; }

  /// Checkpointing: array fault state, mux, modulator (including a
  /// runtime-switched feedback capacitor), decimation chain, clock count and
  /// mux-transient bookkeeping. Per-frame scratch is transient.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  /// Frame-rate (1 kHz) instrumentation hook: counts the produced frame and
  /// publishes the modulator's saturation telemetry as gauges. Never called
  /// from the 128 kHz clock loop itself — only when a sample emerges.
  void record_frame_(bool block_path);

  /// Time since the last select() [s], from the integer clock counts.
  [[nodiscard]] double since_switch_s_() const noexcept {
    return static_cast<double>(clocks_ - last_switch_clock_) / clock_rate_hz();
  }

  ChipConfig config_;
  SensorArray array_;
  analog::AnalogMux mux_;
  analog::DeltaSigmaModulator modulator_;
  dsp::DecimationChain chain_;
  std::uint64_t clocks_{0};
  std::uint64_t last_switch_clock_{0};
  double last_capacitance_{0.0};
  double temperature_k_{300.0};
  std::vector<int> bit_scratch_;  ///< per-frame modulator bits for clock_block
  // Observability (resolved once at construction; lock-free updates at
  // frame rate). Shared across pipeline instances: the gauges aggregate as
  // process-wide peaks.
  metrics::Counter* frames_metric_;
  metrics::Counter* frames_block_metric_;
  metrics::Counter* frames_scalar_metric_;
  metrics::Counter* mux_fallbacks_metric_;
  metrics::Gauge* peak_state1_gauge_;
  metrics::Gauge* peak_state2_gauge_;
  metrics::Gauge* clip_count_gauge_;
};

/// Parallel readout of the whole array: one ΔΣ modulator lane per element
/// plus one decimation chain per lane, stepped in lockstep by a
/// ModulatorBank. This is the §4 scaling direction — replacing the Fig. 4
/// row/column mux with per-element converters — so unlike
/// AcquisitionPipeline there is no mux and no element switching: every
/// element converts continuously and a full array image emerges every output
/// period instead of every rows·cols periods.
///
/// Lane k reads element k (row-major). Per-lane modulator seeds are
/// decorrelated from ChipConfig::modulator.seed; lane 0 keeps it, so lane 0
/// is bit-identical to a single converter (modulator + decimation chain, no
/// mux) reading element 0. Pressure is evaluated per element at each frame
/// start and held for the frame, exactly like
/// AcquisitionPipeline::acquire_block.
class ArrayAcquisition {
 public:
  explicit ArrayAcquisition(const ChipConfig& config);

  /// One output frame for every element: `out` receives size() samples,
  /// element-indexed row-major.
  void acquire_frame(const ContactField& field, dsp::DecimatedSample* out);

  /// `n_out` frames; result[k][i] is element k's i-th output sample.
  [[nodiscard]] std::vector<std::vector<dsp::DecimatedSample>> acquire_block(
      const ContactField& field, std::size_t n_out);

  void reset();

  [[nodiscard]] std::size_t size() const noexcept { return bank_.lanes(); }
  [[nodiscard]] double clock_rate_hz() const noexcept {
    return config_.modulator.sampling_rate_hz;
  }
  [[nodiscard]] double output_rate_hz() const noexcept;
  [[nodiscard]] std::uint64_t clocks() const noexcept { return clocks_; }
  [[nodiscard]] double time_s() const noexcept {
    return static_cast<double>(clocks_) / clock_rate_hz();
  }
  void set_temperature(double kelvin) noexcept { temperature_k_ = kelvin; }
  [[nodiscard]] const SensorArray& array() const noexcept { return array_; }
  [[nodiscard]] analog::ModulatorBank& bank() noexcept { return bank_; }

  /// Runtime element-fault injection (fleet fault plans). A faulted
  /// element's lane is masked out of the bank on the next frame — frozen,
  /// emitting default samples — and resumes bit-identically if the fault is
  /// cleared (ElementFault::kNone). Healthy lanes are unaffected.
  void inject_element_fault(std::size_t row, std::size_t col, ElementFault fault) {
    array_.inject_fault(row, col, fault);
  }

  /// Checkpointing: array faults, every lane's modulator, every decimation
  /// chain, clock count and die temperature.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  ChipConfig config_;
  SensorArray array_;
  analog::ModulatorBank bank_;
  std::vector<dsp::DecimationChain> chains_;  ///< one per lane
  std::uint64_t clocks_{0};
  double temperature_k_{300.0};
  std::vector<double> c_sense_;  ///< per-lane scratch
  std::vector<double> c_ref_;
  std::vector<int> bit_scratch_;  ///< lane-major, lanes · total_decimation
};

}  // namespace tono::core
