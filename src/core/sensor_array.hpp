// sensor_array.hpp — the 2x2 (generalizable to NxM) transducer array with a
// fast capacitance lookup per element.
//
// The full Simpson-quadrature capacitance integral is too slow to evaluate
// once per 128 kHz modulator clock, so each element precomputes a cubic-
// spline C(p) table over the operating pressure range at construction
// (modelling error < 0.01 % of the capacitance swing, verified in tests).
// The quadrature runs once per membrane physics and range per process; an
// element scales that shared table by its own mismatch.
// Elements carry individual mismatch, mirroring a fabricated die; positions
// follow the 150 µm pitch so the bio lateral-sensitivity model can attach.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/interpolation.hpp"
#include "src/core/chip_config.hpp"
#include "src/mems/transducer.hpp"

namespace tono {
class CheckpointReader;
class CheckpointWriter;
}  // namespace tono

namespace tono::core {

/// Physical position of an element's center relative to the array center.
struct ElementPosition {
  double x_m{0.0};
  double y_m{0.0};
};

/// One array element: transducer physics + fast C(p) evaluation.
class ArrayElement {
 public:
  ArrayElement(const mems::TransducerConfig& config, ElementPosition position,
               double pressure_min_pa, double pressure_max_pa,
               ElementFault fault = ElementFault::kNone);

  /// Fast capacitance lookup [F] for a contact pressure [Pa]. The LUT is
  /// built at 300 K; the (small, linear) temperature coefficient is applied
  /// analytically on top, so body-contact warming drifts the baseline as on
  /// the real die.
  [[nodiscard]] double capacitance(double contact_pressure_pa,
                                   double temperature_k = 300.0) const noexcept;

  /// Exact (quadrature) capacitance, for validation.
  [[nodiscard]] double capacitance_exact(double contact_pressure_pa,
                                         double temperature_k = 300.0) const noexcept;

  [[nodiscard]] const ElementPosition& position() const noexcept { return position_; }
  [[nodiscard]] const mems::PressureTransducer& transducer() const noexcept {
    return transducer_;
  }
  [[nodiscard]] ElementFault fault() const noexcept { return fault_; }
  [[nodiscard]] bool is_healthy() const noexcept { return fault_ == ElementFault::kNone; }

  /// Changes the element's fault state at runtime — a membrane failing
  /// mid-run (fleet fault plans), not just a config-time yield defect. The
  /// fault capacitance is recomputed exactly as at construction.
  void set_fault(ElementFault fault) noexcept;

 private:
  mems::PressureTransducer transducer_;
  ElementPosition position_;
  CubicSpline lut_;
  ElementFault fault_{ElementFault::kNone};
  double fault_capacitance_{0.0};
};

class SensorArray {
 public:
  /// Builds rows × cols elements on the configured pitch, plus the
  /// unreleased reference structure. Pressure LUTs cover
  /// [lut_min_pa, lut_max_pa].
  SensorArray(const ChipConfig& config, double lut_min_pa = -30e3,
              double lut_max_pa = 60e3);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return elements_.size(); }

  [[nodiscard]] const ArrayElement& element(std::size_t row, std::size_t col) const;
  [[nodiscard]] const ArrayElement& element(std::size_t index) const;

  /// The on-chip reference capacitance [F] (§3: "a reference structure").
  [[nodiscard]] double reference_capacitance() const noexcept { return c_ref_; }

  /// Runtime fault injection: an element failing mid-run (fleet fault
  /// plans), as opposed to the config-time yield faults in
  /// ChipConfig::faults. Throws std::out_of_range on a bad coordinate.
  void inject_fault(std::size_t row, std::size_t col, ElementFault fault);

  /// Number of elements currently reporting ElementFault::kNone.
  [[nodiscard]] std::size_t healthy_count() const noexcept;

  /// Capacitance of element (row, col) under a contact pressure [Pa].
  [[nodiscard]] double capacitance(std::size_t row, std::size_t col,
                                   double contact_pressure_pa) const;

  /// Checkpointing: the runtime fault state of every element (restored via
  /// set_fault so fault capacitances are recomputed exactly as injected).
  /// Geometry and mismatch are config-derived and are not serialized.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<ArrayElement> elements_;
  double c_ref_{0.0};
};

}  // namespace tono::core
