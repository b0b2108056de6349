// validation.hpp — formal grading of estimated vs. ground-truth pressure.
//
// The paper shows one test person tracking a cuff (§3.2, Fig. 9); device
// standards ask for much more. This module scores a session's estimated
// per-beat pressures against the pulse generator's ground truth with the
// two classic protocols:
//
//   * AAMI-style: pass iff |mean error| <= 5 mmHg and error SD <= 8 mmHg,
//   * BHS-style letter grades from the cumulative-error bands
//     (A: >=60/85/95% of beats within 5/10/15 mmHg; B: 50/75/90;
//      C: 40/65/85; else D),
//
// plus Bland–Altman agreement stats (bias, limits of agreement) and
// transient-response metrics (rise time, settling time within an error
// band, steady-state error) against the session's scenario profile.
//
// Everything aggregates exactly: per-session accumulators merge into
// per-cohort and fleet accumulators (Welford merge), so a sharded fleet
// produces the same grades as a serial run. The JSONL export uses the
// ward-snapshot formatting conventions and is byte-stable across thread
// counts for identical inputs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/bio/scenario.hpp"
#include "src/common/statistics.hpp"

namespace tono::core {

/// Streaming paired-error accumulator for one quantity (estimate − truth).
/// Mergeable, so cohort/fleet grades are exact reductions of session
/// accumulators.
class ErrorAccumulator {
 public:
  void add(double estimate_mmhg, double truth_mmhg) noexcept;
  void merge(const ErrorAccumulator& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return diff_.count(); }
  /// Mean signed error (the Bland–Altman bias).
  [[nodiscard]] double mean_error_mmhg() const noexcept { return diff_.mean(); }
  /// Sample standard deviation of the signed error.
  [[nodiscard]] double error_sd_mmhg() const noexcept;
  [[nodiscard]] double mean_absolute_error_mmhg() const noexcept { return abs_.mean(); }
  [[nodiscard]] double max_absolute_error_mmhg() const noexcept { return abs_.max(); }
  /// Fraction of pairs with |error| <= 5 / 10 / 15 mmHg (0 when empty).
  [[nodiscard]] double within_5_mmhg() const noexcept;
  [[nodiscard]] double within_10_mmhg() const noexcept;
  [[nodiscard]] double within_15_mmhg() const noexcept;

 private:
  RunningStats diff_;
  RunningStats abs_;
  std::uint64_t within5_{0};
  std::uint64_t within10_{0};
  std::uint64_t within15_{0};
};

/// Bland–Altman agreement summary derived from an ErrorAccumulator.
struct BlandAltman {
  std::size_t n{0};
  double bias_mmhg{0.0};
  double sd_mmhg{0.0};
  double loa_low_mmhg{0.0};   ///< bias − 1.96·SD
  double loa_high_mmhg{0.0};  ///< bias + 1.96·SD
};

[[nodiscard]] BlandAltman bland_altman(const ErrorAccumulator& acc) noexcept;

enum class AamiVerdict : std::uint8_t { kPass, kFail, kInsufficientData };
enum class BhsGrade : std::uint8_t { kA, kB, kC, kD, kInsufficientData };

[[nodiscard]] const char* to_string(AamiVerdict v) noexcept;
[[nodiscard]] const char* to_string(BhsGrade g) noexcept;

/// AAMI-style verdict: pass iff |mean error| <= 5 mmHg and SD <= 8 mmHg.
/// Fewer than `min_pairs` pairs → kInsufficientData.
[[nodiscard]] AamiVerdict aami_verdict(const ErrorAccumulator& acc,
                                       std::size_t min_pairs = 30);

/// BHS-style letter grade from the cumulative error bands.
[[nodiscard]] BhsGrade bhs_grade(const ErrorAccumulator& acc, std::size_t min_pairs = 30);

/// Transient response of the systolic estimate to the scenario's largest
/// setpoint step. Individual metrics are negative when the response never
/// reached the corresponding threshold inside the analysis window.
struct TransientMetrics {
  bool valid{false};           ///< a step >= 10 mmHg existed and had estimates
  double step_time_s{0.0};     ///< step onset (stream time)
  double step_from_mmhg{0.0};
  double step_to_mmhg{0.0};
  double rise_time_s{-1.0};    ///< 10% → 90% of the step
  double settling_time_s{-1.0};  ///< step onset → stays within ±band of target
  double steady_state_error_mmhg{0.0};  ///< mean error over the window's last quarter
  double peak_error_mmhg{0.0};  ///< max |estimate − target| after first reaching 90%
};

/// One estimated beat, in session stream time.
struct EstimatedBeat {
  double time_s{0.0};
  double systolic_mmhg{0.0};
  double diastolic_mmhg{0.0};
};

struct ValidationConfig {
  /// Settling band for transient metrics [± mmHg].
  double settle_band_mmhg{5.0};
  /// Pairs below this → insufficient-data verdicts.
  std::size_t min_pairs{30};
};

/// Everything known about one graded session. Carries the raw accumulators
/// (not just derived grades) so cohort roll-ups merge exactly.
struct SessionValidationRecord {
  std::uint32_t session_id{0};
  std::string cohort;    ///< roll-up key ("" = ungrouped)
  std::string scenario;  ///< profile name
  std::uint64_t seed{0};
  double duration_s{0.0};
  std::size_t truth_beats{0};
  std::size_t estimate_beats{0};
  std::size_t matched_beats{0};
  ErrorAccumulator sys_error;
  ErrorAccumulator dia_error;
  ErrorAccumulator map_error;
  TransientMetrics transient;
  /// Why the session produced no grade (e.g. its admission failed); empty
  /// for a graded session. A failed session counts toward its cohort with
  /// no beat pairs.
  std::string failure;
};

/// Scores one session: feed ground-truth beats (pulse-generator clock) and
/// estimated beats (stream clock), then finalize. Pairing matches each
/// estimate to the truth beat whose [onset, onset+interval) span contains
/// the estimate's time; unmatched estimates are counted, not scored.
class SessionValidator {
 public:
  explicit SessionValidator(ValidationConfig config = {});

  /// Ground-truth beats. `clock_offset_s` is subtracted from every onset to
  /// convert the generator clock to stream time (PatientSession exposes the
  /// stream epoch; solo monitors use 0).
  void add_truth(std::span<const bio::BeatTruth> beats, double clock_offset_s = 0.0);

  /// One estimated beat (stream time) — e.g. a fleet beat event or a
  /// detected beat from a MonitoringReport.
  void add_estimate(double time_s, double systolic_mmhg, double diastolic_mmhg);

  /// Pairs estimates with truth, computes transient metrics against the
  /// profile (nullptr → transient invalid) and returns the session record.
  /// Also bumps the global validation.* metrics.
  [[nodiscard]] SessionValidationRecord finalize(std::uint32_t session_id,
                                                 std::string cohort, std::string scenario,
                                                 std::uint64_t seed,
                                                 const bio::ScenarioProfile* profile);

  [[nodiscard]] const ValidationConfig& config() const noexcept { return config_; }

 private:
  ValidationConfig config_;
  std::vector<bio::BeatTruth> truth_;
  std::vector<EstimatedBeat> estimates_;
};

/// Transient response of an estimate series against a profile's largest
/// systolic step (exposed for tests; SessionValidator::finalize uses it).
[[nodiscard]] TransientMetrics transient_response(std::span<const EstimatedBeat> estimates,
                                                  const bio::ScenarioProfile& profile,
                                                  double band_mmhg);

/// Per-cohort exact reduction of session records.
struct CohortValidation {
  std::string cohort;
  std::size_t sessions{0};
  std::size_t aami_pass_sessions{0};
  std::size_t failed_sessions{0};  ///< records with a failure
  ErrorAccumulator sys_error;
  ErrorAccumulator dia_error;
  ErrorAccumulator map_error;
};

/// Groups records by cohort (sorted by cohort name) and merges their
/// accumulators. Deterministic: depends only on the record set, not its
/// order.
[[nodiscard]] std::vector<CohortValidation> aggregate_by_cohort(
    std::span<const SessionValidationRecord> records, std::size_t min_pairs = 30);

/// JSONL artifact: one "validation_session" line per record (ordered by
/// session id), one "validation_cohort" line per cohort (ordered by name),
/// then one "validation_fleet" summary line. Formatting follows the ward
/// snapshot export (default ostream doubles, gated optional fields), so the
/// bytes are identical across repeated runs and thread counts for the same
/// records.
void export_validation_jsonl(std::span<const SessionValidationRecord> records,
                             std::ostream& os, std::size_t min_pairs = 30);

}  // namespace tono::core
