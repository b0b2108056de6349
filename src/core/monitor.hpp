// monitor.hpp — end-to-end continuous blood-pressure monitoring session.
//
// Drives the whole reproduction of §3.2 / Fig. 9: a synthetic wrist
// (arterial pulse + tissue coupling + artefacts) is pressed against the
// simulated chip; the monitor scans the array for the strongest element,
// takes a cuff reading for the two-point calibration, then streams a
// continuous calibrated waveform with per-beat features — something the
// cuff baseline fundamentally cannot do (§1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/bio/artifacts.hpp"
#include "src/bio/cuff.hpp"
#include "src/bio/pulse_generator.hpp"
#include "src/bio/scenario.hpp"
#include "src/bio/tissue.hpp"
#include "src/common/metrics.hpp"
#include "src/core/calibration.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/pwa.hpp"
#include "src/core/quality.hpp"
#include "src/core/scan.hpp"
#include "src/core/telemetry.hpp"

namespace tono::core {

/// The synthetic patient + sensor placement.
struct WristModel {
  bio::PulseConfig pulse{};
  bio::TissueConfig tissue{};
  bio::ArtifactConfig artifacts{};
  bool enable_artifacts{false};
  /// Hold-down pressure of the sensor against the skin [mmHg].
  double hold_down_mmhg{80.0};
  /// Vessel axis position in die coordinates (artery runs along y) [m].
  double vessel_x_m{0.0};
  /// Whole-device placement offset from the vessel [m] (adds to element x).
  double placement_offset_m{0.0};
  /// Body-contact warming: the die drifts from ambient toward skin
  /// temperature with this time constant, moving the membrane capacitance
  /// through its tempco (a §4 "stability" effect).
  bool enable_thermal_drift{false};
  double ambient_temperature_k{300.0};
  double skin_temperature_k{307.0};
  double thermal_tau_s{120.0};
  /// Optional time-varying physiology (exercise, hypotensive episode, …);
  /// overrides the static pulse setpoints as the session progresses.
  std::shared_ptr<const bio::ScenarioProfile> scenario;
};

/// The pressures an oscillometric cuff reads against (§3.2): the mean
/// systolic and diastolic of the patient's last ≤ 20 completed beats, or the
/// configured setpoints while fewer than 5 beats are on record. Reads the
/// generator's truth log without draining it. BloodPressureMonitor::calibrate
/// and fleet admission both take their cuff reading against it.
struct CuffTarget {
  double systolic_mmhg{0.0};
  double diastolic_mmhg{0.0};
};
[[nodiscard]] CuffTarget cuff_target(const bio::ArterialPulseGenerator& pulse,
                                     const bio::PulseConfig& setpoints);

/// Cuff-anchored calibration (§3.2) shared by BloodPressureMonitor::calibrate
/// and fleet admission: analyses the acquired calibration window once, gates
/// on that analysis's quality grade (when `enforce_quality`) and anchors its
/// per-beat extrema to `cuff`. An unusable window throws std::runtime_error
/// prefixed with `who` (counted on `rejections` when given); too few beats
/// for the fit throws TwoPointCalibration's error.
[[nodiscard]] TwoPointCalibration calibrate_on_window(
    std::span<const dsp::DecimatedSample> window, double sample_rate_hz,
    const bio::CuffReading& cuff, bool enforce_quality, const std::string& who,
    metrics::Counter* rejections = nullptr);

struct MonitoringReport {
  std::vector<double> time_s;            ///< at the output rate
  std::vector<double> waveform_mmhg;     ///< calibrated pressure
  BeatAnalysis beats;                    ///< detected on the calibrated stream
  QualityReport quality;                 ///< signal-quality index of the window
  PulseWaveSummary pulse_wave;           ///< per-beat morphology features
  // Ground truth over the same interval, for scoring:
  double truth_systolic_mmhg{0.0};
  double truth_diastolic_mmhg{0.0};
  double truth_map_mmhg{0.0};
  double truth_heart_rate_bpm{0.0};
  // Errors (estimate − truth):
  double systolic_error_mmhg{0.0};
  double diastolic_error_mmhg{0.0};
  double map_error_mmhg{0.0};
};

class BloodPressureMonitor {
 public:
  BloodPressureMonitor(const ChipConfig& chip, const WristModel& wrist);

  /// Scans the array and routes the strongest element (§2).
  [[nodiscard]] ScanResult localize(const ScanConfig& scan = {});

  /// Takes one cuff reading of the synthetic patient and fits the two-point
  /// calibration on a `window_s`-long acquisition (§3.2). Throws if the
  /// window has no usable pulse signal (bad placement, dead elements, or a
  /// converter range too coarse for the pulsation) unless `enforce_quality`
  /// is false — ablation studies of deliberately coarse ranges disable it.
  /// Returns the cuff reading used.
  [[nodiscard]] bio::CuffReading calibrate(double window_s = 15.0,
                                           const bio::CuffConfig& cuff = {},
                                           bool enforce_quality = true);

  /// Streams `duration_s` of continuous calibrated blood pressure.
  [[nodiscard]] MonitoringReport monitor(double duration_s);

  /// Simulates the device sliding on the wrist mid-session (strap slip,
  /// motion): subsequent samples see the new placement offset.
  void shift_placement(double new_offset_m) noexcept {
    wrist_.placement_offset_m = new_offset_m;
  }

  /// Adaptive monitoring (closed-loop reliability): streams in chunks,
  /// assesses signal quality after each, and re-runs the localization scan
  /// when the quality index falls below the threshold — recovering from
  /// placement shifts the way an unattended field device must.
  struct AdaptiveConfig {
    double chunk_s{10.0};
    double sqi_threshold{0.5};
    std::size_t max_rescans{3};
    ScanConfig scan{};
  };
  struct AdaptiveReport {
    std::vector<MonitoringReport> chunks;
    std::size_t rescans{0};
    std::vector<double> chunk_sqi;
  };
  [[nodiscard]] AdaptiveReport monitor_adaptive(double duration_s,
                                                const AdaptiveConfig& config);
  [[nodiscard]] AdaptiveReport monitor_adaptive(double duration_s) {
    return monitor_adaptive(duration_s, AdaptiveConfig{});
  }

  /// The contact field the chip sees (exposed for benches/tests). It holds
  /// the physiology for a whole output frame, so the scalar acquire() and
  /// acquire_block() read the same pressures.
  [[nodiscard]] ContactField contact_field();

  /// Link statistics of the simulated FPGA→host connection every monitor()
  /// call streams its 12-bit codes through (Fig. 3: decimation filter →
  /// USB → computer).
  [[nodiscard]] const LinkStats& link_stats() const noexcept {
    return link_decoder_.stats();
  }

  [[nodiscard]] AcquisitionPipeline& pipeline() noexcept { return pipeline_; }
  [[nodiscard]] const TwoPointCalibration& calibration() const noexcept {
    return calibration_;
  }
  [[nodiscard]] const bio::ArterialPulseGenerator& pulse() const noexcept { return *pulse_; }
  /// Mutable access so truth consumers can drain the bounded beat-truth log.
  [[nodiscard]] bio::ArterialPulseGenerator& pulse() noexcept { return *pulse_; }
  [[nodiscard]] const WristModel& wrist() const noexcept { return wrist_; }

  /// Checkpointing: the full session state — acquisition pipeline, patient
  /// physiology, artefacts, calibration, cached physiological state, the
  /// runtime placement offset and the simulated link's encoder/decoder.
  /// Tissue coupling and the scenario profile are config-static.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  /// Arterial pressure, artefacts, MAP reference, scenario and die
  /// temperature advanced to the output frame that contains time `t_s`.
  void advance_to(double t_s);
  void set_die_temperature_(double t_s);

  /// Runs the acquired 12-bit codes over the simulated FPGA→host frame
  /// protocol, feeding the telemetry instrumentation.
  void stream_over_link_(const std::vector<dsp::DecimatedSample>& samples);

  ChipConfig chip_;
  WristModel wrist_;
  AcquisitionPipeline pipeline_;
  std::unique_ptr<bio::ArterialPulseGenerator> pulse_;
  bio::TissueCoupling tissue_;
  std::unique_ptr<bio::ArtifactInjector> artifacts_;
  TwoPointCalibration calibration_;
  // Physiological state of the current output frame; one step per frame.
  std::uint64_t physiology_steps_{0};
  double arterial_mmhg_{0.0};
  double artifact_mmhg_{0.0};
  double map_estimate_mmhg_{0.0};
  double last_scenario_apply_s_{-1.0};
  // Simulated FPGA→host link (Fig. 3); exercised once per monitor() call.
  FrameEncoder link_encoder_;
  FrameDecoder link_decoder_;
  // Observability (resolved once at construction; session-rate updates).
  metrics::Counter* sessions_metric_;
  metrics::Counter* beats_metric_;
  metrics::Counter* quality_rejections_metric_;
  metrics::Counter* rescans_metric_;
  metrics::Timer* session_wall_;
};

}  // namespace tono::core
