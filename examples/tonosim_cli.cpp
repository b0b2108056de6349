// tonosim_cli — command-line driver for the simulated sensor system.
//
//   tonosim_cli monitor --duration 30 --sys 120 --dia 80 --hr 72
//               [--artifacts] [--thermal] [--csv waveform.csv]
//   tonosim_cli adc --amp-dbfs -2 --freq 15.625
//   tonosim_cli membrane --pressure-kpa 10
//   tonosim_cli localize --offset-mm 0.3 --cols 8
//
// Each subcommand drives the same public API the examples use and prints a
// compact report; `monitor --csv` dumps the calibrated waveform for external
// plotting.
#include <cmath>
#include <fstream>
#include <iostream>
#include <numbers>
#include <string>

#include "src/common/cli.hpp"
#include "src/common/metrics.hpp"
#include "src/common/units.hpp"
#include "src/core/monitor.hpp"
#include "src/dsp/spectrum.hpp"

namespace {

using namespace tono;

/// Writes a JSONL snapshot of the full instrument catalogue to `path`
/// (no-op for an empty path). Pre-registering the standard set means the
/// snapshot covers every subsystem, zero-valued where the run did not
/// touch it — consumers can rely on the keys being present.
int write_metrics_snapshot(const std::string& path) {
  if (path.empty()) return 0;
  metrics::register_standard_instruments();
  if (!metrics::Registry::global().write_jsonl_file(path)) {
    std::cerr << "cannot write metrics to " << path << "\n";
    return 1;
  }
  std::cout << "wrote metrics snapshot to " << path << "\n";
  return 0;
}

int cmd_monitor(int argc, const char* const* argv) {
  ArgParser args{"tonosim_cli monitor", "run a full monitoring session"};
  args.add_double("duration", "monitoring duration [s]", 30.0);
  args.add_double("sys", "patient systolic [mmHg]", 120.0);
  args.add_double("dia", "patient diastolic [mmHg]", 80.0);
  args.add_double("hr", "heart rate [bpm]", 72.0);
  args.add_flag("artifacts", "enable motion artefacts");
  args.add_flag("thermal", "enable body-contact thermal drift");
  args.add_string("csv", "write the calibrated waveform to this CSV file", "");
  args.add_string("metrics", "write a JSONL runtime-metrics snapshot to this file", "");
  if (!args.parse(argc, argv)) {
    std::cerr << (args.help_requested() ? args.help_text() : args.error() + "\n");
    return args.help_requested() ? 0 : 2;
  }

  core::WristModel wrist;
  wrist.pulse.systolic_mmhg = args.double_value("sys");
  wrist.pulse.diastolic_mmhg = args.double_value("dia");
  wrist.pulse.heart_rate_bpm = args.double_value("hr");
  wrist.enable_artifacts = args.flag("artifacts");
  wrist.enable_thermal_drift = args.flag("thermal");

  core::BloodPressureMonitor mon{core::ChipConfig::paper_chip(), wrist};
  const auto scan = mon.localize();
  const auto cuff = mon.calibrate(12.0);
  const auto rep = mon.monitor(args.double_value("duration"));

  std::cout << "selected element: (" << scan.best_row << "," << scan.best_col << ")\n"
            << "cuff calibration: " << cuff.systolic_mmhg << "/" << cuff.diastolic_mmhg
            << " mmHg\n"
            << "beats: " << rep.beats.beats.size() << ", HR "
            << rep.beats.heart_rate_bpm << " bpm, SQI " << rep.quality.sqi << "\n"
            << "estimate: " << rep.beats.mean_systolic << "/"
            << rep.beats.mean_diastolic << " mmHg (MAP " << rep.beats.mean_map << ")\n"
            << "errors vs truth: sys " << rep.systolic_error_mmhg << ", dia "
            << rep.diastolic_error_mmhg << ", MAP " << rep.map_error_mmhg << " mmHg\n";

  const std::string csv = args.string_value("csv");
  if (!csv.empty()) {
    std::ofstream out{csv};
    if (!out) {
      std::cerr << "cannot open " << csv << "\n";
      return 1;
    }
    out << "time_s,pressure_mmhg\n";
    for (std::size_t i = 0; i < rep.waveform_mmhg.size(); ++i) {
      out << rep.time_s[i] << ',' << rep.waveform_mmhg[i] << '\n';
    }
    std::cout << "wrote " << rep.waveform_mmhg.size() << " samples to " << csv << "\n";
  }
  return write_metrics_snapshot(args.string_value("metrics"));
}

int cmd_adc(int argc, const char* const* argv) {
  ArgParser args{"tonosim_cli adc", "single-tone ADC characterization"};
  args.add_double("amp-dbfs", "input amplitude [dBFS]", -2.0);
  args.add_double("freq", "target input frequency [Hz]", 15.625);
  args.add_string("metrics", "write a JSONL runtime-metrics snapshot to this file", "");
  if (!args.parse(argc, argv)) {
    std::cerr << (args.help_requested() ? args.help_text() : args.error() + "\n");
    return args.help_requested() ? 0 : 2;
  }
  analog::ModulatorConfig mc;
  analog::DeltaSigmaModulator mod{mc};
  dsp::DecimationChain chain{dsp::DecimationConfig{}};
  const std::size_t n_out = 8192;
  const double f = dsp::coherent_frequency(args.double_value("freq"), 1000.0, n_out);
  const double amp = std::pow(10.0, args.double_value("amp-dbfs") / 20.0);
  const auto bits = mod.run_voltage(
      [&](double t) {
        return amp * mc.vref_v * std::sin(2.0 * std::numbers::pi * f * t);
      },
      (n_out + 300) * 128);
  std::vector<int> ints(bits.begin(), bits.end());
  const auto vals = chain.process_values(ints);
  std::vector<double> rec(vals.end() - static_cast<long>(n_out), vals.end());
  dsp::SpectrumConfig sc;
  sc.sample_rate_hz = 1000.0;
  const auto a = dsp::analyze_tone(rec, sc);
  std::cout << "f = " << a.fundamental_hz << " Hz @ " << a.fundamental_dbfs
            << " dBFS\nSNR " << a.snr_db << " dB | SNDR " << a.sndr_db << " dB | ENOB "
            << a.enob_bits << " bit | THD " << a.thd_db << " dB\n";
  return write_metrics_snapshot(args.string_value("metrics"));
}

int cmd_membrane(int argc, const char* const* argv) {
  ArgParser args{"tonosim_cli membrane", "transducer operating point"};
  args.add_double("pressure-kpa", "contact pressure [kPa]", 10.0);
  if (!args.parse(argc, argv)) {
    std::cerr << (args.help_requested() ? args.help_text() : args.error() + "\n");
    return args.help_requested() ? 0 : 2;
  }
  const mems::PressureTransducer t{mems::TransducerConfig{}};
  const double p = units::kpa_to_pa(args.double_value("pressure-kpa"));
  std::cout << "pressure: " << units::pa_to_mmhg(p) << " mmHg\n"
            << "deflection: " << t.deflection(p) * 1e9 << " nm\n"
            << "capacitance: " << units::f_to_ff(t.capacitance(p)) << " fF (rest "
            << units::f_to_ff(t.bias_capacitance()) << " fF)\n"
            << "sensitivity: " << t.sensitivity() * 1e18 << " aF/Pa\n";
  return 0;
}

int cmd_localize(int argc, const char* const* argv) {
  ArgParser args{"tonosim_cli localize", "array scan over a displaced artery"};
  args.add_double("offset-mm", "device placement offset [mm]", 0.0);
  args.add_int("cols", "array columns", 8, {.min = 1});
  args.add_string("metrics", "write a JSONL runtime-metrics snapshot to this file", "");
  if (!args.parse(argc, argv)) {
    std::cerr << (args.help_requested() ? args.help_text() : args.error() + "\n");
    return args.help_requested() ? 0 : 2;
  }
  auto chip = core::ChipConfig::paper_chip();
  chip.array.rows = 1;
  chip.array.cols = static_cast<std::size_t>(args.int_value("cols"));
  chip.mux.rows = 1;
  chip.mux.cols = chip.array.cols;
  core::WristModel wrist;
  wrist.placement_offset_m = args.double_value("offset-mm") * 1e-3;
  wrist.tissue.lateral_sigma_m = 0.5e-3;
  core::BloodPressureMonitor mon{chip, wrist};
  const auto scan = mon.localize();
  for (const auto& e : scan.elements) {
    std::cout << "col " << e.col << ": " << e.amplitude
              << (e.col == scan.best_col ? "  <= selected" : "") << "\n";
  }
  return write_metrics_snapshot(args.string_value("metrics"));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: tonosim_cli <monitor|adc|membrane|localize> [options]\n"
      "       tonosim_cli <subcommand> --help\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string cmd = argv[1];
  // Shift the subcommand out of the argument list.
  if (cmd == "monitor") return cmd_monitor(argc - 1, argv + 1);
  if (cmd == "adc") return cmd_adc(argc - 1, argv + 1);
  if (cmd == "membrane") return cmd_membrane(argc - 1, argv + 1);
  if (cmd == "localize") return cmd_localize(argc - 1, argv + 1);
  std::cerr << "unknown subcommand '" << cmd << "'\n" << usage;
  return 2;
}
