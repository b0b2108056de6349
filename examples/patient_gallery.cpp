// patient_gallery — monitoring across clinical patient profiles.
//
// Runs the complete sensor chain against six synthetic patients (normal,
// hyper-/hypotensive, tachycardic, stiff-artery elderly, atrial
// fibrillation) and reports per-patient accuracy, signal quality and pulse
// wave analysis features — the kind of cohort sweep the paper's §4 "field
// tests" would produce.
#include <cstdio>

#include "src/core/monitor.hpp"
#include "src/core/hrv.hpp"
#include "src/core/pwa.hpp"

namespace {

struct Entry {
  const char* name;
  tono::bio::PulseConfig pulse;
};

}  // namespace

int main() {
  using namespace tono;

  const Entry patients[] = {
      {"normotensive", bio::PatientPresets::normotensive()},
      {"hypertensive", bio::PatientPresets::hypertensive()},
      {"hypotensive", bio::PatientPresets::hypotensive()},
      {"tachycardic", bio::PatientPresets::tachycardic()},
      {"elderly-stiff", bio::PatientPresets::elderly_stiff()},
      {"atrial-fib", bio::PatientPresets::atrial_fibrillation()},
  };

  std::printf("%-14s %9s %9s %7s %6s %7s %7s %7s %8s\n", "patient", "sys est",
              "dia est", "HR", "SQI", "dP/dt", "AIx", "errMAP", "rhythm");
  std::printf("%-14s %9s %9s %7s %6s %7s %7s %7s %8s\n", "", "[mmHg]", "[mmHg]",
              "[bpm]", "", "[mmHg/s]", "", "[mmHg]", "");

  for (const auto& p : patients) {
    core::WristModel wrist;
    wrist.pulse = p.pulse;
    core::BloodPressureMonitor mon{core::ChipConfig::paper_chip(), wrist};
    try {
      (void)mon.calibrate(12.0);
    } catch (const std::exception& e) {
      std::printf("%-14s calibration failed: %s\n", p.name, e.what());
      continue;
    }
    const auto rep = mon.monitor(30.0);

    const auto& q = rep.quality;

    core::PulseWaveAnalyzer pwa{1000.0};
    const auto features = pwa.analyze(rep.waveform_mmhg, rep.beats, rep.time_s.front());

    // Rhythm screening needs clean beat timing: gate on SQI (detection
    // jitter on a weak pulse inflates interval variability — the fix in a
    // deployed device is auto-ranging to a finer C_fb first).
    const auto rhythm = core::classify_rhythm(core::compute_hrv(rep.beats));
    const char* rhythm_label =
        q.sqi < 0.8 ? "n/a" : (rhythm.likely_af ? "AF?" : "sinus");
    std::printf("%-14s %9.1f %9.1f %7.1f %6.2f %7.0f %7s %7.2f %8s\n", p.name,
                rep.beats.mean_systolic, rep.beats.mean_diastolic,
                rep.beats.heart_rate_bpm, q.sqi, features.mean_dpdt_max,
                features.mean_augmentation_index
                    ? std::to_string(*features.mean_augmentation_index).substr(0, 5).c_str()
                    : "n/a",
                rep.map_error_mmhg, rhythm_label);
  }

  std::puts("\nNotes: the AF profile is flagged by HRV screening; the weak");
  std::puts("hypotensive pulse is below rhythm-screening quality (n/a) until");
  std::puts("auto-ranging picks a finer feedback capacitor. AIx rises for the");
  std::puts("stiff-artery profile; MAP error stays cuff-bounded throughout.");
  return 0;
}
