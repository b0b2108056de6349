#include "src/core/sensor_array.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "src/common/checkpoint.hpp"
#include "src/common/rng.hpp"

namespace tono::core {
namespace {

constexpr std::size_t kLutPoints = 241;
/// Distinct membrane physics kept at once; a sweep past this starts over.
constexpr std::size_t kMaxCachedTables = 64;

double lut_knot(double lo_pa, double hi_pa, std::size_t i) {
  return lo_pa + (hi_pa - lo_pa) * static_cast<double>(i) / (kLutPoints - 1);
}

/// The plate, stack, electrode and load numbers behind
/// capacitance_at_pressure(p − backpressure) over the LUT range, bit for
/// bit. Mismatch and tempco are left out: at 300 K they are a final
/// multiply, applied per element.
std::vector<std::uint64_t> lut_key(const mems::TransducerConfig& tc, double lo_pa,
                                   double hi_pa) {
  std::vector<std::uint64_t> key;
  const auto add = [&key](double v) { key.push_back(std::bit_cast<std::uint64_t>(v)); };
  add(tc.plate.side_length_m);
  for (const auto& layer : tc.plate.stack.layers()) {
    add(layer.thickness_m);
    add(layer.material.youngs_modulus_pa);
    add(layer.material.poisson_ratio);
    add(layer.material.density_kg_m3);
    add(layer.material.residual_stress_pa);
  }
  add(tc.capacitor.gap_m);
  add(tc.capacitor.electrode_coverage);
  add(tc.capacitor.parasitic_f);
  add(tc.capacitor.gap_permittivity);
  add(tc.backpressure_pa);
  add(lo_pa);
  add(hi_pa);
  return key;
}

/// The membrane capacitances at the LUT knots before mismatch, computed
/// once per physics and range for the whole process: each is a quadrature
/// integral, and every element of every session with the same chip shares
/// them.
std::shared_ptr<const std::vector<double>> raw_capacitances(
    const mems::PressureTransducer& transducer, double lo_pa, double hi_pa) {
  static std::mutex mutex;
  static std::map<std::vector<std::uint64_t>, std::shared_ptr<const std::vector<double>>>
      tables;
  auto key = lut_key(transducer.config(), lo_pa, hi_pa);
  const std::lock_guard lock{mutex};
  if (const auto it = tables.find(key); it != tables.end()) return it->second;
  auto raw = std::make_shared<std::vector<double>>(kLutPoints);
  const double backpressure = transducer.config().backpressure_pa;
  for (std::size_t i = 0; i < kLutPoints; ++i) {
    (*raw)[i] = transducer.capacitor().capacitance_at_pressure(lut_knot(lo_pa, hi_pa, i) -
                                                              backpressure);
  }
  if (tables.size() >= kMaxCachedTables) tables.clear();
  tables.emplace(std::move(key), raw);
  return raw;
}

CubicSpline build_lut(const mems::PressureTransducer& transducer, double lo_pa,
                      double hi_pa) {
  const auto raw = raw_capacitances(transducer, lo_pa, hi_pa);
  const double mismatch = transducer.config().capacitance_mismatch;
  std::vector<double> ps(kLutPoints);
  std::vector<double> cs(kLutPoints);
  for (std::size_t i = 0; i < kLutPoints; ++i) {
    ps[i] = lut_knot(lo_pa, hi_pa, i);
    // PressureTransducer::capacitance at 300 K is c · mismatch · 1.0: the
    // same product, so the knots are bit-identical to exact calls.
    cs[i] = (*raw)[i] * mismatch;
  }
  return CubicSpline{ps, cs};
}

}  // namespace

ArrayElement::ArrayElement(const mems::TransducerConfig& config, ElementPosition position,
                           double pressure_min_pa, double pressure_max_pa,
                           ElementFault fault)
    : transducer_(config),
      position_(position),
      lut_(build_lut(transducer_, pressure_min_pa, pressure_max_pa)) {
  set_fault(fault);
}

void ArrayElement::set_fault(ElementFault fault) noexcept {
  fault_ = fault;
  switch (fault_) {
    case ElementFault::kNone:
      fault_capacitance_ = 0.0;
      break;
    case ElementFault::kNotReleased:
      // The sacrificial layer is still in place: the reference-structure
      // capacitance, pressure-independent.
      fault_capacitance_ = transducer_.reference_capacitance();
      break;
    case ElementFault::kStuckDown:
      // Collapsed membrane: the touch-down (gap-limited) capacitance.
      fault_capacitance_ =
          transducer_.capacitance(5e6);  // far past touch-down, clamped
      break;
  }
}

double ArrayElement::capacitance(double contact_pressure_pa,
                                 double temperature_k) const noexcept {
  const double drift = 1.0 + transducer_.config().capacitance_tempco_per_k *
                                 (temperature_k - 300.0);
  if (fault_ != ElementFault::kNone) return fault_capacitance_ * drift;
  return lut_(contact_pressure_pa) * drift;
}

double ArrayElement::capacitance_exact(double contact_pressure_pa,
                                       double temperature_k) const noexcept {
  return transducer_.capacitance(contact_pressure_pa, temperature_k);
}

SensorArray::SensorArray(const ChipConfig& config, double lut_min_pa, double lut_max_pa)
    : rows_(config.array.rows), cols_(config.array.cols) {
  if (rows_ == 0 || cols_ == 0) throw std::invalid_argument{"SensorArray: empty array"};
  if (lut_min_pa >= lut_max_pa) throw std::invalid_argument{"SensorArray: bad LUT range"};

  Rng rng = Rng{config.seed}.fork_named("array-mismatch");
  const double pitch = config.array.pitch_m;
  const double x0 = -0.5 * pitch * static_cast<double>(cols_ - 1);
  const double y0 = -0.5 * pitch * static_cast<double>(rows_ - 1);

  elements_.reserve(rows_ * cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      mems::TransducerConfig tc = config.transducer;
      tc.capacitance_mismatch =
          config.transducer.capacitance_mismatch *
          (1.0 + rng.gaussian(0.0, config.element_mismatch_sigma));
      const ElementPosition pos{x0 + pitch * static_cast<double>(c),
                                y0 + pitch * static_cast<double>(r)};
      ElementFault fault = ElementFault::kNone;
      for (const auto& spec : config.faults) {
        if (spec.row == r && spec.col == c) fault = spec.fault;
      }
      elements_.emplace_back(tc, pos, lut_min_pa, lut_max_pa, fault);
    }
  }
  // Reference structure: unreleased membrane, nominal mismatch.
  c_ref_ = mems::PressureTransducer{config.transducer}.reference_capacitance();
}

const ArrayElement& SensorArray::element(std::size_t row, std::size_t col) const {
  if (row >= rows_ || col >= cols_) throw std::out_of_range{"SensorArray::element"};
  return elements_[row * cols_ + col];
}

const ArrayElement& SensorArray::element(std::size_t index) const {
  if (index >= elements_.size()) throw std::out_of_range{"SensorArray::element"};
  return elements_[index];
}

void SensorArray::inject_fault(std::size_t row, std::size_t col, ElementFault fault) {
  if (row >= rows_ || col >= cols_) throw std::out_of_range{"SensorArray::inject_fault"};
  elements_[row * cols_ + col].set_fault(fault);
}

std::size_t SensorArray::healthy_count() const noexcept {
  std::size_t n = 0;
  for (const auto& e : elements_) {
    if (e.is_healthy()) ++n;
  }
  return n;
}

void SensorArray::serialize(CheckpointWriter& out) const {
  out.section("sensor_array");
  out.size(elements_.size());
  for (const auto& e : elements_) {
    out.u8(static_cast<std::uint8_t>(e.fault()));
  }
}

void SensorArray::restore(CheckpointReader& in) {
  in.section("sensor_array");
  if (in.size() != elements_.size()) {
    throw CheckpointError{"sensor array checkpoint element count mismatch"};
  }
  for (auto& e : elements_) {
    const std::uint8_t code = in.u8();
    if (code > static_cast<std::uint8_t>(ElementFault::kStuckDown)) {
      throw CheckpointError{"sensor array checkpoint has unknown fault code"};
    }
    e.set_fault(static_cast<ElementFault>(code));
  }
}

double SensorArray::capacitance(std::size_t row, std::size_t col,
                                double contact_pressure_pa) const {
  return element(row, col).capacitance(contact_pressure_pa);
}

}  // namespace tono::core
