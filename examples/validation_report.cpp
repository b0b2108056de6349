// validation_report — population-scale AAMI/BHS validation of the simulated
// tonometer (docs/VALIDATION.md).
//
//   validation_report --seed 42 --population 16 --duration 60
//                     [--threads 0] [--output report.jsonl] [--min-pairs 30]
//                     [--artifacts]
//
// Draws a deterministic patient population (bio::PopulationGenerator), runs
// each member as a full vertical-slice PatientSession on a SweepRunner, and
// grades every session's estimated per-beat pressures against the pulse
// generator's ground truth: AAMI-style pass/fail, BHS-style letter grades,
// Bland–Altman agreement, transient-response metrics. Emits the
// fleet-aggregatable JSONL artifact (per-session, per-cohort, fleet lines)
// plus a human-readable cohort table. A member whose admission fails is
// graded as failed in both (a "failed" field, present only then) and the
// report still exits 0.
//
// Determinism contract: for fixed flags the JSONL bytes are identical
// across repeated runs and across --threads values — population members are
// pure functions of (seed, index), sessions are self-contained slices, and
// the cohort roll-up is an exact merge of per-session accumulators.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/bio/population.hpp"
#include "src/common/cli.hpp"
#include "src/core/sweep_runner.hpp"
#include "src/core/validation.hpp"
#include "src/fleet/patient_session.hpp"

using namespace tono;

namespace {

/// Runs one population member as a solo vertical slice and grades it.
core::SessionValidationRecord run_member(const bio::ScenarioConfig& member,
                                         double duration_s, std::size_t min_pairs) {
  fleet::SessionConfig config;
  config.seed = member.seed;
  config.scenario_profile = member.make_profile();
  config.wrist.pulse = member.pulse;
  config.wrist.artifacts = member.artifacts;
  config.wrist.enable_artifacts = member.enable_artifacts;

  fleet::PatientSession session{static_cast<std::uint32_t>(member.member_index), config};
  try {
    session.admit();
  } catch (const std::exception& e) {
    // A member whose calibration acquisition fails is graded as failed;
    // one patient must not take the whole report down.
    core::SessionValidationRecord failed;
    failed.session_id = static_cast<std::uint32_t>(member.member_index);
    failed.cohort = member.cohort;
    failed.scenario = bio::to_string(member.family);
    failed.seed = member.seed;
    failed.failure = std::string{"admission failed: "} + e.what();
    return failed;
  }

  core::ValidationConfig vconfig;
  vconfig.min_pairs = min_pairs;
  core::SessionValidator validator{vconfig};

  // Estimates and truth are scored on a common clock: the pipeline clock
  // (which the scenario profile also runs on). Beat events carry stream
  // time, so shift them by the monitoring epoch.
  const double epoch_s = session.stream_epoch_clock_s();
  const double rate_hz = session.output_rate_hz();
  const auto total_frames = static_cast<std::uint64_t>(duration_s * rate_hz);
  const std::uint64_t chunk_frames = 1024;

  fleet::FleetEvent event;
  std::int16_t code;
  for (std::uint64_t done = 0; done < total_frames;) {
    const std::uint64_t n = std::min(chunk_frames, total_frames - done);
    session.step(static_cast<std::size_t>(n));
    done += n;
    while (session.events().try_pop(event)) {
      if (event.kind == fleet::FleetEventKind::kBeat) {
        validator.add_estimate(event.time_s + epoch_s, event.value_a, event.value_b);
      }
    }
    while (session.codes().try_pop(code)) {
    }
  }

  // Ground truth: drain the bounded log; beats that ended before monitoring
  // started (the calibration acquisition) are not scored.
  for (const auto& beat : session.drain_beat_truth()) {
    if (beat.onset_s + beat.interval_s <= epoch_s) continue;
    validator.add_truth(std::span{&beat, 1}, 0.0);
  }

  return validator.finalize(static_cast<std::uint32_t>(member.member_index),
                            member.cohort, bio::to_string(member.family), member.seed,
                            config.scenario_profile.get());
}

void print_grade_row(std::ostream& os, const std::string& label,
                     const core::CohortValidation& c, std::size_t min_pairs) {
  const core::BlandAltman ba = core::bland_altman(c.sys_error);
  os << "  " << label << ": sessions=" << c.sessions << " aami_pass=" << c.aami_pass_sessions;
  if (c.failed_sessions > 0) os << " failed=" << c.failed_sessions;
  os << " sys_bias=" << ba.bias_mmhg << " sys_sd=" << ba.sd_mmhg
     << " aami=" << core::to_string(core::aami_verdict(c.sys_error, min_pairs))
     << " bhs=" << core::to_string(core::bhs_grade(c.sys_error, min_pairs)) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args{"validation_report",
                 "grade a simulated patient population against ground truth"};
  args.add_int("seed", "population base seed", 42);
  args.add_int("population", "number of population members to run", 16, {.min = 1});
  args.add_double("duration", "monitoring stream per session [s]", 60.0, {.above = 0.0});
  args.add_int("threads", "sweep worker threads (0 = hardware, 1 = serial)", 0, {.min = 0});
  args.add_string("output", "write the validation JSONL artifact to this file", "");
  args.add_int("min-pairs", "beat pairs below this give insufficient-data grades", 30,
               {.min = 1});
  args.add_flag("artifacts", "enable per-member motion/contact artefacts");
  if (!args.parse(argc, argv)) {
    std::cerr << (args.help_requested() ? args.help_text() : args.error() + "\n");
    return args.help_requested() ? 0 : 2;
  }
  const double duration_s = args.double_value("duration");
  const auto population = static_cast<std::size_t>(args.int_value("population"));
  const auto min_pairs = static_cast<std::size_t>(args.int_value("min-pairs"));

  bio::PopulationConfig pop_config;
  pop_config.seed = static_cast<std::uint64_t>(args.int_value("seed"));
  pop_config.scenario_duration_s = duration_s;
  pop_config.enable_artifacts = args.flag("artifacts");
  const bio::PopulationGenerator generator{pop_config};
  const auto members = generator.generate(population);

  core::SweepConfig sweep_config;
  sweep_config.threads = static_cast<std::size_t>(args.int_value("threads"));
  sweep_config.base_seed = pop_config.seed;
  sweep_config.stream_name = "validation";
  core::SweepRunner runner{sweep_config};

  const auto records = runner.map(members, [&](const bio::ScenarioConfig& member) {
    return run_member(member, duration_s, min_pairs);
  });

  std::ostringstream jsonl;
  core::export_validation_jsonl(records, jsonl, min_pairs);
  const std::string artifact = jsonl.str();
  const std::string output_path = args.string_value("output");
  if (!output_path.empty()) {
    std::ofstream out{output_path, std::ios::binary | std::ios::trunc};
    if (!out) {
      std::cerr << "cannot open --output file " << output_path << "\n";
      return 1;
    }
    out << artifact;
  } else {
    std::cout << artifact;
  }

  std::cout << "validation_report: population=" << population << " duration=" << duration_s
            << "s threads=" << runner.thread_count() << "\n";
  core::CohortValidation fleet_total;
  for (const auto& cohort : core::aggregate_by_cohort(records, min_pairs)) {
    print_grade_row(std::cout, "cohort " + cohort.cohort, cohort, min_pairs);
    fleet_total.sessions += cohort.sessions;
    fleet_total.aami_pass_sessions += cohort.aami_pass_sessions;
    fleet_total.failed_sessions += cohort.failed_sessions;
    fleet_total.sys_error.merge(cohort.sys_error);
  }
  print_grade_row(std::cout, "fleet", fleet_total, min_pairs);
  for (const auto& rec : records) {
    if (!rec.failure.empty()) {
      std::cout << "  member " << rec.session_id << " (" << rec.scenario
                << ") failed: " << rec.failure << "\n";
    }
  }
  return 0;
}
