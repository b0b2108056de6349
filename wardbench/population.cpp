// population.cpp — the admission_population workload.
//
// PopulationGenerator members at the generator's default 120 s scenario
// length, covering all six scenario families. Each member is admitted as a
// solo PatientSession on a two-thread SweepRunner, monitored for a short
// window in 64-frame steps and graded against the generator's beat truth.
// Admission — the 8 s cuff-anchored calibration acquisition — is most of
// the work, which every steady-state fixture hides.
#include <algorithm>
#include <array>

#include "bench.hpp"
#include "src/bio/population.hpp"
#include "src/core/sweep_runner.hpp"

namespace wardbench {
namespace {

/// Monitoring window per member: the streaming monitor emits its first
/// beats once its 8 s analysis window has filled.
constexpr double kMonitorSeconds = 10.0;
/// Re-admissions after a failed calibration window, the FleetScheduler's
/// default budget. Some members fail their first window on some seeds (see
/// CHANGES.md); they count in fleet.admission_first_try_ratio, not as
/// failures, unless the budget runs out.
constexpr int kMaxReadmits = 3;
/// Members resting below this rate are left out: an 8 s calibration window
/// then holds fewer than ~7 beats and fails the quality gate on every
/// re-admission for some seeds (see CHANGES.md).
constexpr double kMinHeartRateBpm = 55.0;

struct Member {
  bio::ScenarioConfig scenario;
  std::unique_ptr<fleet::PatientSession> session;
};

/// The first `count` admissible members, extended until every scenario
/// family is present.
std::vector<Member> make_members(std::uint64_t seed, std::size_t count) {
  bio::PopulationConfig config;
  config.seed = seed;
  const bio::PopulationGenerator generator{config};
  std::vector<Member> members;
  std::array<bool, bio::kScenarioFamilyCount> seen{};
  auto all_seen = [&seen] {
    for (bool s : seen) {
      if (!s) return false;
    }
    return true;
  };
  for (std::size_t i = 0; members.size() < count || !all_seen(); ++i) {
    Member m;
    fleet::SessionConfig session;
    {
      Scope span{"bio.population_member"};
      m.scenario = generator.member(i);
      session.scenario_profile = m.scenario.make_profile();
    }
    if (m.scenario.pulse.heart_rate_bpm < kMinHeartRateBpm) continue;
    seen[static_cast<std::size_t>(m.scenario.family)] = true;
    session.seed = m.scenario.seed;
    session.wrist.pulse = m.scenario.pulse;
    session.wrist.artifacts = m.scenario.artifacts;
    session.wrist.enable_artifacts = m.scenario.enable_artifacts;
    m.session = std::make_unique<fleet::PatientSession>(static_cast<std::uint32_t>(i),
                                                        std::move(session));
    members.push_back(std::move(m));
  }
  return members;
}

struct MemberRun {
  double admit_ms{0.0};  ///< every attempt until admitted
  bool admitted{false};
  int attempts{0};
  std::string error;
  std::vector<double> step_ms;
  double monitor_s{0.0};  ///< wall time of the monitoring steps
  std::uint64_t codes{0};
  std::uint64_t events{0};
  std::uint64_t code_drops{0};
  std::size_t checkpoint_bytes{0};
  SessionBeats beats;
};

MemberRun run_member(Member& member, std::size_t steps) {
  fleet::PatientSession& session = *member.session;
  MemberRun run;
  while (!run.admitted && run.attempts <= kMaxReadmits) {
    Scope span{"fleet.admit"};
    const std::int64_t t0 = now_ns();
    ++run.attempts;
    try {
      session.admit();
      run.admitted = true;
    } catch (const std::exception& e) {
      run.error = e.what();
    }
    run.admit_ms += static_cast<double>(now_ns() - t0) * 1e-6;
  }
  if (!run.admitted) return run;
  const double epoch_s = session.stream_epoch_clock_s();
  fleet::FleetEvent event;
  std::int16_t code = 0;
  run.step_ms.reserve(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    const std::int64_t t0 = now_ns();
    {
      Scope span{"fleet.session_step", kFramesPerBatch};
      session.step(kFramesPerBatch);
    }
    while (session.codes().try_pop(code)) ++run.codes;
    while (session.events().try_pop(event)) {
      ++run.events;
      if (event.kind == fleet::FleetEventKind::kBeat) {
        run.beats.estimates.push_back(
            core::EstimatedBeat{event.time_s + epoch_s, event.value_a, event.value_b});
      }
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    run.step_ms.push_back(ms);
    run.monitor_s += ms * 1e-3;
  }
  run.code_drops = session.codes().dropped();
  {
    Scope span{"fleet.checkpoint"};
    run.checkpoint_bytes = session.checkpoint().size();
  }
  run.beats.id = session.id();
  run.beats.epoch_s = epoch_s;
  run.beats.stream_s = session.stream_time_s();
  run.beats.truth = monitored_truth(session.drain_beat_truth(), epoch_s);
  return run;
}

}  // namespace

Result run_admission_population(const Options& options) {
  // At least 56 members: admit_ms_p80 needs ten samples above it.
  const auto per_second = static_cast<std::size_t>(7 * options.seconds);
  const std::size_t count = options.mini ? 12 : std::max<std::size_t>(56, per_second);
  Result result;

  // Set-up: draw the members, build their scenario profiles and sessions.
  std::vector<double> setup_s;
  std::vector<Member> members;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    members.clear();
    const std::int64_t t0 = now_ns();
    members = make_members(options.seed, count);
    setup_s.push_back(seconds_since(t0));
  }
  result.attempted = members.size();

  const double rate_hz = members.front().session->output_rate_hz();
  const std::uint64_t frames = frames_for(kMonitorSeconds, rate_hz);
  const std::size_t steps = frames / kFramesPerBatch;
  core::SweepConfig sweep;
  sweep.threads = kWorkers;
  sweep.base_seed = options.seed;
  core::SweepRunner runner{sweep};
  auto runs = runner.run(members.size(), [&members, steps](std::size_t i) {
    return run_member(members[i], steps);
  });

  std::vector<double> admit_ms, step_ms;
  std::vector<SessionBeats> graded;
  double monitor_s = 0.0, checkpoint_bytes = 0.0;
  std::uint64_t codes = 0, events = 0, drops = 0;
  std::size_t first_try = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    MemberRun& run = runs[i];
    admit_ms.push_back(run.admit_ms);
    if (!run.admitted) {
      result.session_failed(static_cast<std::uint32_t>(i),
                            "admission failed: " + run.error);
      continue;
    }
    if (run.attempts == 1) ++first_try;
    step_ms.insert(step_ms.end(), run.step_ms.begin(), run.step_ms.end());
    monitor_s += run.monitor_s;
    codes += run.codes;
    events += run.events;
    drops += run.code_drops;
    checkpoint_bytes += static_cast<double>(run.checkpoint_bytes);
    if (run.codes != frames) {
      result.session_failed(static_cast<std::uint32_t>(i),
                            std::to_string(run.codes) + " codes for " +
                                std::to_string(frames) + " frames");
    }
    graded.push_back(std::move(run.beats));
  }
  if (options.shift_truth) shift_truth_one_beat(graded);
  const FleetGrade grade = grade_fleet(graded, fleet::SessionConfig{}.streaming, result);

  result.put("realtime_patients_per_core", static_cast<double>(codes) / rate_hz / monitor_s,
             "patients/core", step_ms.size());
  put_percentile(result, "batch_ms_p50", step_ms, 0.5, "ms", options.mini);
  put_percentile(result, "batch_ms_p90", step_ms, 0.9, "ms", options.mini);
  put_percentile(result, "admit_ms_p50", admit_ms, 0.5, "ms", options.mini);
  put_percentile(result, "admit_ms_p80", admit_ms, 0.8, "ms", options.mini);
  put_accuracy(grade, result);
  const auto graded_n = static_cast<double>(std::max<std::size_t>(1, graded.size()));
  result.put("checkpoint_kb_per_session", checkpoint_bytes / 1024.0 / graded_n, "KB");
  result.put("setup_s", median(setup_s), "s", setup_s.size());
  result.put("fleet.codes_consumed", static_cast<double>(codes), "count");
  result.put("fleet.events_consumed", static_cast<double>(events), "count");
  result.put("fleet.code_drops", static_cast<double>(drops), "count");
  result.put("fleet.checkpoint_bytes", checkpoint_bytes, "bytes");
  result.put("fleet.admission_first_try_ratio",
             static_cast<double>(first_try) / static_cast<double>(runs.size()), "ratio");
  return result;
}

}  // namespace wardbench
