// Tests for the fleet serving layer (src/fleet/): the determinism contract
// (fleet session == solo session, bit for bit), metrics
// on/off bit-exactness, session lifecycle including quarantine crash
// isolation, and the ward aggregator's escalation policy. The Fleet and
// Ward suites run under the CI TSan job.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/bio/population.hpp"
#include "src/bio/pulse_generator.hpp"
#include "src/common/metrics.hpp"
#include "src/common/simd.hpp"
#include "src/fleet/fault_plan.hpp"
#include "src/fleet/fleet_scheduler.hpp"

namespace {

using namespace tono;
using fleet::FaultEvent;
using fleet::FaultKind;
using fleet::FaultPlanConfig;
using fleet::FleetConfig;
using fleet::FleetEvent;
using fleet::FleetEventKind;
using fleet::FleetScheduler;
using fleet::PatientSession;
using fleet::SessionConfig;
using fleet::SessionState;
using fleet::WardAggregator;
using fleet::WardAlarmLevel;
using fleet::WardConfig;

/// The mixed 3-session ward every determinism test runs: a quiet patient,
/// an alarm-worthy preset, a scenario-driven one.
SessionConfig mixed_config(std::size_t index) {
  SessionConfig config;
  if (index == 1) config.wrist.pulse = bio::PatientPresets::hypertensive();
  if (index == 2) config.scenario = "exercise";
  return config;
}

/// Runs a 3-session fleet for `duration_s` and returns the recorded code
/// stream of every session.
std::vector<std::vector<std::int16_t>> run_fleet(double duration_s) {
  WardConfig ward_config;
  ward_config.record_codes = true;
  WardAggregator ward{ward_config};
  FleetScheduler scheduler{FleetConfig{}, ward};
  for (std::size_t i = 0; i < 3; ++i) {
    (void)scheduler.admit(mixed_config(i));
  }
  scheduler.run(duration_s);
  std::vector<std::vector<std::int16_t>> codes;
  for (std::uint32_t id = 0; id < 3; ++id) {
    codes.push_back(ward.recorded_codes(id));
  }
  return codes;
}

TEST(Fleet, SessionSeedDependsOnlyOnBaseSeedStreamAndIndex) {
  WardAggregator ward_a, ward_b, ward_c;
  FleetConfig config;
  FleetScheduler a{config, ward_a};
  FleetScheduler b{config, ward_b};
  EXPECT_EQ(a.session_seed(0), b.session_seed(0));
  EXPECT_EQ(a.session_seed(7), b.session_seed(7));
  EXPECT_NE(a.session_seed(0), a.session_seed(1));
  config.stream_name = "other";
  FleetScheduler c{config, ward_c};
  EXPECT_NE(a.session_seed(0), c.session_seed(0));
}

TEST(Fleet, FleetSessionIsBitIdenticalToSoloRun) {
  const auto fleet_codes = run_fleet(1.0);

  // Reproduce each session solo: same derived seed, same config, same step
  // schedule — the fleet must be invisible to the session.
  WardAggregator ward;
  FleetScheduler seeder{FleetConfig{}, ward};
  for (std::uint32_t id = 0; id < 3; ++id) {
    SessionConfig config = mixed_config(id);
    config.seed = seeder.session_seed(id);
    PatientSession solo{id, std::move(config)};
    std::vector<std::int16_t> codes;
    while (solo.stream_time_s() < 1.0) {
      solo.step(FleetConfig{}.frames_per_step);
      solo.codes().pop_all(codes);
    }
    EXPECT_EQ(codes, fleet_codes[id]) << "session " << id << " diverged solo";
  }
}

TEST(Fleet, MetricsOnOffIsBitExact) {
  const auto with_metrics = run_fleet(0.5);
  metrics::set_enabled(false);
  const auto without_metrics = run_fleet(0.5);
  metrics::set_enabled(true);
  EXPECT_EQ(with_metrics, without_metrics);
}

TEST(Fleet, AdmitRejectsCodeRingSmallerThanOneBatch) {
  WardAggregator ward;
  FleetConfig config;
  config.frames_per_step = 64;
  FleetScheduler scheduler{config, ward};
  SessionConfig session;
  session.code_ring_capacity = 16;  // < frames_per_step: every batch would shed or regrow
  EXPECT_THROW((void)scheduler.admit(std::move(session)), std::invalid_argument);
}

TEST(Fleet, UnknownScenarioIsRejectedAtAdmission) {
  WardAggregator ward;
  FleetScheduler scheduler{FleetConfig{}, ward};
  SessionConfig session;
  session.scenario = "zombie-apocalypse";
  EXPECT_THROW((void)scheduler.admit(std::move(session)), std::invalid_argument);
}

TEST(Fleet, SlowHeartAdmitsOnFirstTry) {
  // In a slow heart's long diastole the secondary waves trigger the
  // detector more often than the beats do; the dicrotic rejection must
  // still keep only the beats, so both members admit on their first 8 s
  // window. The members are the first, in (seed 1–40, member) order, at the
  // generator's 45 bpm floor and in 53.5–54 bpm.
  struct Slow {
    std::uint64_t seed;
    std::size_t member;
    double rate_bpm;
  };
  for (const auto& [seed, index, rate_bpm] : {Slow{16, 22, 45.0}, Slow{3, 30, 53.88}}) {
    bio::PopulationConfig population;
    population.seed = seed;
    const auto member = bio::PopulationGenerator{population}.member(index);
    EXPECT_NEAR(member.pulse.heart_rate_bpm, rate_bpm, 0.05);
    SessionConfig config;
    config.seed = member.seed;
    config.scenario_profile = member.make_profile();
    config.wrist.pulse = member.pulse;
    config.wrist.artifacts = member.artifacts;
    config.wrist.enable_artifacts = member.enable_artifacts;
    PatientSession session{37, config};
    EXPECT_NO_THROW(session.admit()) << "seed " << seed;
    EXPECT_TRUE(session.admitted()) << "seed " << seed;
  }
}

TEST(Fleet, ThrowingSessionIsRetriedThenRetiredNotFatal) {
  WardAggregator ward;
  FleetConfig config;
  config.max_readmits = 1;
  FleetScheduler scheduler{config, ward};
  // A calibration window far too short to contain a usable pulse: admission
  // (which runs inside the first batch) throws on every attempt, so the
  // session burns through its readmission budget and retires — while every
  // other session keeps streaming.
  SessionConfig bad;
  bad.calibration_window_s = 0.25;
  const auto bad_id = scheduler.admit(std::move(bad));
  const auto good_id = scheduler.admit(SessionConfig{});

  scheduler.run(0.2);

  EXPECT_EQ(scheduler.state(bad_id), SessionState::kRetired);
  EXPECT_EQ(scheduler.strikes(bad_id), config.max_readmits + 1);
  EXPECT_FALSE(scheduler.quarantine_reason(bad_id).empty());
  EXPECT_EQ(scheduler.state(good_id), SessionState::kRunning);
  EXPECT_GT(ward.session(good_id)->codes, 0u);
  // The ward snapshot carries the reason as the session note plus the full
  // strike history in the fault log.
  EXPECT_EQ(ward.session(bad_id)->lifecycle, SessionState::kRetired);
  EXPECT_FALSE(ward.session(bad_id)->note.empty());
  EXPECT_EQ(ward.retired(), 1u);
  const auto& log = ward.session(bad_id)->fault_log;
  ASSERT_EQ(log.size(), 2u);
  EXPECT_NE(log[0].find("quarantined (strike 1/2)"), std::string::npos);
  EXPECT_NE(log[1].find("retired after 1 readmission(s)"), std::string::npos);
}

TEST(Fleet, TransientFaultIsReadmittedAndResumesStreaming) {
  WardAggregator ward;
  FleetScheduler scheduler{FleetConfig{}, ward};
  // A hand-written transient contact loss: throws exactly once (one strike),
  // then applies as a plain signal degradation on the readmission attempt.
  SessionConfig session;
  session.manual_faults.push_back(FaultEvent{.kind = FaultKind::kContactLoss,
                                             .at_s = 0.05,
                                             .duration_s = 0.10,
                                             .throw_count = 1});
  const auto id = scheduler.admit(std::move(session));

  scheduler.run(0.4);

  EXPECT_EQ(scheduler.state(id), SessionState::kRunning);
  EXPECT_EQ(scheduler.strikes(id), 1u);
  EXPECT_EQ(ward.recoveries(), 1u);
  EXPECT_EQ(ward.session(id)->recoveries, 1u);
  EXPECT_TRUE(ward.session(id)->note.empty()) << "stale quarantine note kept";
  // The session streamed to the end despite the mid-run quarantine.
  EXPECT_GE(scheduler.session(id)->stream_time_s(), 0.4);
  const auto& log = ward.session(id)->fault_log;
  ASSERT_EQ(log.size(), 4u);
  EXPECT_NE(log[0].find("injected: contact loss"), std::string::npos);
  EXPECT_NE(log[1].find("quarantined (strike 1/4)"), std::string::npos);
  EXPECT_NE(log[2].find("readmitted after strike 1"), std::string::npos);
  EXPECT_NE(log[3].find("applied: contact loss"), std::string::npos);
}

TEST(Fleet, UnrecoverableFaultStrikesOutToRetired) {
  WardAggregator ward;
  FleetConfig config;
  config.max_readmits = 2;
  FleetScheduler scheduler{config, ward};
  SessionConfig session;
  session.manual_faults.push_back(
      FaultEvent{.kind = FaultKind::kContactLoss,
                 .at_s = 0.05,
                 .duration_s = 0.10,
                 .throw_count = fleet::kUnrecoverableThrows});
  const auto id = scheduler.admit(std::move(session));

  scheduler.run(0.4);

  EXPECT_EQ(scheduler.state(id), SessionState::kRetired);
  EXPECT_EQ(scheduler.strikes(id), 3u);
  EXPECT_EQ(ward.retired(), 1u);
  EXPECT_EQ(ward.recoveries(), 0u);
  // Full history: one injection + one strike per attempt, then the verdict.
  const auto& log = ward.session(id)->fault_log;
  std::size_t injections = 0, strikes = 0;
  for (const auto& line : log) {
    injections += line.find("injected:") != std::string::npos;
    strikes += line.find("quarantined (strike") != std::string::npos;
  }
  EXPECT_EQ(injections, 3u);
  EXPECT_EQ(strikes, 2u) << "third strike is the retirement verdict";
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.back().find("retired after 2 readmission(s)"), std::string::npos);
  EXPECT_NE(log.back().find("(unrecoverable)"), std::string::npos);
}

/// A nonempty generated schedule whose onsets all land inside a 1 s run:
/// one transient contact loss (one quarantine + readmission), one link
/// corruption burst, one element fault per session.
FaultPlanConfig faulty_plan() {
  FaultPlanConfig plan;
  plan.contact_loss_events = 1;
  plan.link_bursts = 1;
  plan.element_faults = 1;
  plan.min_onset_s = 0.10;
  plan.horizon_s = 0.80;
  return plan;
}

struct FaultyRun {
  std::vector<std::vector<std::int16_t>> codes;
  std::uint64_t recoveries;
  std::uint64_t checkpoints_written;
  std::uint64_t checkpoints_restored;
  std::uint64_t checkpoints_rejected;
};

/// The 3-session mixed fleet with faulty_plan() active on every session.
FaultyRun run_faulty_fleet() {
  WardConfig ward_config;
  ward_config.record_codes = true;
  WardAggregator ward{ward_config};
  FleetScheduler scheduler{FleetConfig{}, ward};
  for (std::size_t i = 0; i < 3; ++i) {
    SessionConfig config = mixed_config(i);
    config.fault_plan = faulty_plan();
    (void)scheduler.admit(std::move(config));
  }
  scheduler.run(1.0);
  FaultyRun result;
  for (std::uint32_t id = 0; id < 3; ++id) {
    result.codes.push_back(ward.recorded_codes(id));
  }
  result.recoveries = ward.recoveries();
  result.checkpoints_written = scheduler.checkpoints_written();
  result.checkpoints_restored = scheduler.checkpoints_restored();
  result.checkpoints_rejected = scheduler.checkpoints_rejected();
  return result;
}

TEST(Fleet, FaultySessionSoloCatchRetryMatchesFleet) {
  const auto fleet = run_faulty_fleet();
  // Every session hits its transient contact loss and is readmitted.
  EXPECT_EQ(fleet.recoveries, 3u);
  // Every readmission went through the checkpoint path: the quarantined
  // object was dumped to a blob and a fresh session restored from it — and
  // the streams below still match the solo retry-in-place reference, which
  // is the resume-not-replay equivalence the checkpoint layer promises.
  EXPECT_EQ(fleet.checkpoints_written, 3u);
  EXPECT_EQ(fleet.checkpoints_restored, 3u);
  EXPECT_EQ(fleet.checkpoints_rejected, 0u);

  // Solo reproduction: same derived seed, same plan config; a bare try/step
  // loop is the solo analogue of quarantine + readmission. A throwing
  // attempt consumes no RNG draws and no stream time, so the retried stream
  // is bit-identical to the fleet's.
  WardAggregator ward;
  FleetScheduler seeder{FleetConfig{}, ward};
  for (std::uint32_t id = 0; id < 3; ++id) {
    SessionConfig config = mixed_config(id);
    config.seed = seeder.session_seed(id);
    config.fault_plan = faulty_plan();
    PatientSession solo{id, std::move(config)};
    std::vector<std::int16_t> codes;
    while (solo.stream_time_s() < 1.0) {
      try {
        solo.step(FleetConfig{}.frames_per_step);
      } catch (const std::exception&) {
        continue;
      }
      solo.codes().pop_all(codes);
    }
    solo.codes().pop_all(codes);
    EXPECT_EQ(codes, fleet.codes[id]) << "session " << id << " diverged solo";
    EXPECT_FALSE(solo.fault_log().empty());
  }
}

TEST(Fleet, EmptyFaultPlanLeavesStreamsUntouched) {
  // The fault machinery must be invisible until a plan asks for it: a
  // default (empty) plan produces the exact same codes as run_fleet, which
  // never mentions fault plans at all.
  const auto baseline = run_fleet(0.5);
  WardConfig ward_config;
  ward_config.record_codes = true;
  WardAggregator ward{ward_config};
  FleetScheduler scheduler{FleetConfig{}, ward};
  for (std::size_t i = 0; i < 3; ++i) {
    SessionConfig config = mixed_config(i);
    config.fault_plan = FaultPlanConfig{};  // explicit empty plan
    (void)scheduler.admit(std::move(config));
  }
  scheduler.run(0.5);
  for (std::uint32_t id = 0; id < 3; ++id) {
    EXPECT_EQ(ward.recorded_codes(id), baseline[id]);
    EXPECT_TRUE(ward.session(id)->fault_log.empty());
  }
  EXPECT_EQ(ward.recoveries(), 0u);
  EXPECT_EQ(ward.retired(), 0u);
}

TEST(Fleet, LifecyclePauseResumeDischarge) {
  WardAggregator ward;
  FleetScheduler scheduler{FleetConfig{}, ward};
  const auto id = scheduler.admit(SessionConfig{});
  EXPECT_EQ(scheduler.state(id), SessionState::kAdmitted);
  EXPECT_EQ(scheduler.active_sessions(), 1u);

  scheduler.pause(id);
  EXPECT_EQ(scheduler.state(id), SessionState::kPaused);
  EXPECT_EQ(scheduler.active_sessions(), 0u);
  EXPECT_EQ(scheduler.step_all(), 0u) << "paused sessions are skipped";

  scheduler.resume(id);
  EXPECT_EQ(scheduler.step_all(), 1u);
  EXPECT_EQ(scheduler.state(id), SessionState::kRunning);

  scheduler.discharge(id);
  EXPECT_EQ(scheduler.state(id), SessionState::kDischarged);
  EXPECT_EQ(scheduler.step_all(), 0u) << "discharged sessions never step";
  // Everything produced before discharge reached the ward.
  EXPECT_EQ(ward.session(id)->codes, scheduler.config().frames_per_step);
}

// --- Banked shard under churn ----------------------------------------------

/// The churn ward: ten sessions, so a serial cohort carries two 4-wide
/// packets plus 1-wide leftovers under AVX2, and every lifecycle path
/// re-points the bank. A 3 s analysis window with 0.5 s hops makes beat,
/// alarm and quality events flow within the 3.5 s run.
constexpr std::size_t kChurnSessions = 10;
constexpr double kChurnDuration = 3.5;
constexpr std::uint32_t kChurnQuarantined = 1;  ///< throws once, readmitted
constexpr std::uint32_t kChurnRerouted = 2;     ///< element fault → mux fallback
constexpr std::uint32_t kChurnPaused = 3;       ///< paused for batches 6–11
constexpr std::uint32_t kChurnDischarged = 4;   ///< discharged before batch 9
constexpr std::uint32_t kChurnExternal = 5;     ///< fed through ingest_codes
constexpr std::size_t kChurnDischargeSteps = 9;

SessionConfig churn_config(std::uint32_t id) {
  SessionConfig config = mixed_config(id % 3);
  config.streaming.window_s = 3.0;
  config.streaming.hop_s = 0.5;
  config.streaming.gate_on_quality = false;  // a 3 s window grades unusable
  if (id == kChurnQuarantined) {
    config.manual_faults.push_back(FaultEvent{.kind = FaultKind::kContactLoss,
                                              .at_s = 0.3,
                                              .duration_s = 0.2,
                                              .throw_count = 1});
  }
  if (id == kChurnRerouted) {
    // The readout element (0, 0) dies silently: the session re-routes and
    // its next frames take the pipeline's scalar mux-transient fallback.
    config.manual_faults.push_back(FaultEvent{.kind = FaultKind::kElementFault,
                                              .at_s = 0.5,
                                              .row = 0,
                                              .col = 0,
                                              .throw_count = 0});
  }
  if (id == kChurnExternal) config.external_ingest = true;
  return config;
}

/// The codes the external-ingest session is fed, 64 per batch: another
/// session's live stream.
std::vector<std::int16_t> churn_feed() {
  PatientSession source{99, churn_config(0)};
  std::vector<std::int16_t> codes;
  while (source.stream_time_s() < kChurnDuration) {
    source.step(FleetConfig{}.frames_per_step);
    source.codes().pop_all(codes);
  }
  return codes;
}

/// What the ward saw of one session's event stream (the ward consumes the
/// events, so this is their observable trace), plus its codes.
struct ChurnTrace {
  std::vector<std::int16_t> codes;
  std::uint64_t events{0};
  std::uint64_t beats{0};
  double last_systolic_mmhg{0.0};
  double last_diastolic_mmhg{0.0};
  double last_beat_s{0.0};
  double last_sqi{0.0};
  std::size_t alarms_active{0};
  bool operator==(const ChurnTrace&) const = default;
};

ChurnTrace churn_trace(const WardAggregator& ward, std::uint32_t id) {
  const auto* s = ward.session(id);
  return {ward.recorded_codes(id), s->events, s->beats, s->last_systolic_mmhg,
          s->last_diastolic_mmhg, s->last_beat_s, s->last_sqi, s->alarms_active};
}

/// Each session alone: PatientSession::step in a retry loop (the solo
/// analogue of quarantine + readmission), drained into its own ward.
std::vector<ChurnTrace> run_churn_solo(const std::vector<std::int16_t>& feed) {
  WardConfig ward_config;
  ward_config.record_codes = true;
  WardAggregator ward{ward_config};
  FleetScheduler seeder{FleetConfig{}, ward};
  const std::size_t frames = FleetConfig{}.frames_per_step;
  std::vector<std::unique_ptr<PatientSession>> sessions;
  for (std::uint32_t id = 0; id < kChurnSessions; ++id) {
    SessionConfig config = churn_config(id);
    config.seed = seeder.session_seed(id);
    sessions.push_back(std::make_unique<PatientSession>(id, std::move(config)));
    ward.attach(*sessions.back(), "");
  }
  for (std::uint32_t id = 0; id < kChurnSessions; ++id) {
    PatientSession& solo = *sessions[id];
    std::size_t steps = 0;
    std::size_t fed = 0;
    while (solo.stream_time_s() < kChurnDuration &&
           (id != kChurnDischarged || steps < kChurnDischargeSteps)) {
      try {
        solo.step(frames);
      } catch (const std::exception&) {
        continue;
      }
      ++steps;
      if (id == kChurnExternal) {
        solo.ingest_codes(std::span{feed}.subspan(fed, frames));
        fed += frames;
      }
      (void)ward.drain_once();
    }
  }
  std::vector<ChurnTrace> traces;
  for (std::uint32_t id = 0; id < kChurnSessions; ++id) {
    traces.push_back(churn_trace(ward, id));
  }
  return traces;
}

struct ChurnRun {
  std::vector<ChurnTrace> traces;
  std::string snapshot;
  std::uint64_t restored{0};
  std::uint64_t mux_fallbacks{0};
};

/// The churn schedule on one FleetScheduler, driven batch by batch.
ChurnRun run_churn_fleet(const std::vector<std::int16_t>& feed) {
  WardConfig ward_config;
  ward_config.record_codes = true;
  WardAggregator ward{ward_config};
  FleetScheduler scheduler{FleetConfig{}, ward};
  for (std::uint32_t id = 0; id < kChurnSessions; ++id) {
    (void)scheduler.admit(churn_config(id));
  }
  auto& fallbacks = metrics::Registry::global().counter(metrics::names::kPipelineMuxFallbacks);
  const std::uint64_t fallbacks_before = fallbacks.value();
  const std::size_t frames = scheduler.config().frames_per_step;
  std::size_t fed = 0;
  for (std::size_t batch = 0;; ++batch) {
    if (batch == 6) scheduler.pause(kChurnPaused);
    if (batch == 12) scheduler.resume(kChurnPaused);
    if (batch == kChurnDischargeSteps) scheduler.discharge(kChurnDischarged);
    const std::size_t stepped = scheduler.step_all(kChurnDuration);
    // The external session's first step admitted it; feed one batch of
    // codes per step at the barrier, as a gateway pump would.
    PatientSession& external = *scheduler.session(kChurnExternal);
    if (fed == 0 || external.stream_time_s() < kChurnDuration) {
      external.ingest_codes(std::span{feed}.subspan(fed, frames));
      fed += frames;
    }
    if (stepped == 0 && !scheduler.recovery_pending(kChurnDuration) &&
        scheduler.state(kChurnPaused) != SessionState::kPaused) {
      break;
    }
  }
  (void)ward.drain_once();
  ward.settle();
  ChurnRun run;
  for (std::uint32_t id = 0; id < kChurnSessions; ++id) {
    run.traces.push_back(churn_trace(ward, id));
  }
  std::ostringstream os;
  ward.export_jsonl(os);
  run.snapshot = os.str();
  run.restored = scheduler.checkpoints_restored();
  run.mux_fallbacks = fallbacks.value() - fallbacks_before;
  EXPECT_EQ(scheduler.state(kChurnQuarantined), SessionState::kRunning);
  EXPECT_EQ(scheduler.state(kChurnDischarged), SessionState::kDischarged);
  bool rerouted = false;
  for (const auto& line : scheduler.session(kChurnRerouted)->fault_log()) {
    rerouted |= line.find("rerouted readout") != std::string::npos;
  }
  EXPECT_TRUE(rerouted);
  return run;
}

TEST(Fleet, BankedShardUnderChurnMatchesSoloSessions) {
  const auto feed = churn_feed();
  const auto solo = run_churn_solo(feed);
  const simd::Level ambient = simd::active_level();
  std::vector<ChurnRun> runs;
  for (const simd::Level level : {simd::Level::kScalar, simd::runtime_level()}) {
    simd::force_active_level(level);  // the scheduler's banks resolve at construction
    runs.push_back(run_churn_fleet(feed));
    simd::force_active_level(ambient);
  }
  for (const auto& run : runs) {
    EXPECT_EQ(run.restored, 1u) << "the quarantined session resumes as a fresh object";
    EXPECT_GT(run.mux_fallbacks, 0u) << "the re-route ran frames on the scalar fallback";
    for (std::uint32_t id = 0; id < kChurnSessions; ++id) {
      ASSERT_FALSE(run.traces[id].codes.empty()) << "session " << id;
      EXPECT_EQ(run.traces[id], solo[id]) << "session " << id << " diverged from solo";
    }
    EXPECT_EQ(run.snapshot, runs.front().snapshot);
  }
  EXPECT_GT(solo[0].beats, 0u) << "the run must carry beat events";
}

// --- Ward aggregator unit tests: fabricated events through real rings -----

/// A session used purely as a ring carrier (never admitted or stepped);
/// the test plays producer.
class WardHarness : public ::testing::Test {
 protected:
  WardHarness() : session_{0, SessionConfig{}} {}

  void attach(WardConfig config) {
    ward_ = std::make_unique<WardAggregator>(config);
    ward_->attach(session_, "harness");
  }

  /// Advances the ward's inferred stream clock: time = codes / output rate.
  void push_codes(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      (void)session_.codes().push(0, BackpressurePolicy::kBlock);
    }
  }

  void push_alarm(core::AlarmKind kind, bool active, double t_s) {
    (void)session_.events().push(
        FleetEvent{.kind = FleetEventKind::kAlarm,
                   .session_id = 0,
                   .alarm_kind = kind,
                   .flag = active,
                   .time_s = t_s},
        BackpressurePolicy::kBlock);
  }

  PatientSession session_;
  std::unique_ptr<WardAggregator> ward_;
};

TEST_F(WardHarness, AlarmRaiseClearTracksActiveCount) {
  attach(WardConfig{});
  push_alarm(core::AlarmKind::kSystolicHigh, true, 0.0);
  (void)ward_->drain_once();
  EXPECT_EQ(ward_->alarms_active(), 1u);
  EXPECT_EQ(ward_->alarm_queue().front().level, WardAlarmLevel::kNotice);
  EXPECT_EQ(ward_->session(0)->alarms_active, 1u);

  push_alarm(core::AlarmKind::kSystolicHigh, false, 1.0);
  (void)ward_->drain_once();
  EXPECT_EQ(ward_->alarms_active(), 0u);
  EXPECT_EQ(ward_->session(0)->alarms_active, 0u);
  EXPECT_EQ(ward_->escalations(), 0u);
}

TEST_F(WardHarness, UnresolvedAlarmEscalatesToUrgent) {
  WardConfig config;
  config.escalate_after_s = 0.05;
  attach(config);
  push_alarm(core::AlarmKind::kRateHigh, true, 0.0);
  (void)ward_->drain_once();
  ward_->settle();
  EXPECT_EQ(ward_->alarm_queue().front().level, WardAlarmLevel::kNotice);

  // Nobody resolves it while the session streams on: notice → urgent once
  // the inferred stream time passes escalate_after_s. Time-based escalation
  // runs at settle() (the batch barrier), never inside drain_once().
  push_codes(static_cast<std::size_t>(0.1 * session_.output_rate_hz()));
  (void)ward_->drain_once();
  EXPECT_EQ(ward_->escalations(), 0u) << "mid-batch drains must not escalate";
  ward_->settle();
  EXPECT_EQ(ward_->alarm_queue().front().level, WardAlarmLevel::kUrgent);
  EXPECT_EQ(ward_->escalations(), 1u);

  // Urgent is terminal for time-based escalation: no double counting.
  push_codes(static_cast<std::size_t>(0.1 * session_.output_rate_hz()));
  (void)ward_->drain_once();
  ward_->settle();
  EXPECT_EQ(ward_->escalations(), 1u);
}

TEST_F(WardHarness, MultiVitalDeteriorationGoesStraightToCritical) {
  attach(WardConfig{});  // critical_active_kinds == 2
  push_alarm(core::AlarmKind::kSystolicLow, true, 0.0);
  push_alarm(core::AlarmKind::kRateHigh, true, 0.1);
  (void)ward_->drain_once();
  ASSERT_EQ(ward_->alarm_queue().size(), 2u);
  EXPECT_EQ(ward_->alarm_queue()[0].level, WardAlarmLevel::kNotice);
  EXPECT_EQ(ward_->alarm_queue()[1].level, WardAlarmLevel::kCritical)
      << "second distinct active kind on one patient is critical";
  EXPECT_EQ(ward_->escalations(), 1u);
}

/// Minimal JSON string unescape for the round-trip check below.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      default: out += s[i]; break;
    }
  }
  return out;
}

TEST_F(WardHarness, SnapshotRoundTripsControlCharactersInNotes) {
  attach(WardConfig{});
  // A quarantine reason carries arbitrary exception text; \r, \t and a raw
  // 0x01 must all survive the snapshot (escaped, never dropped).
  const std::string reason =
      std::string("bad\rnews:\tcode ") + '\x01' + " end";
  ward_->set_lifecycle(0, SessionState::kQuarantined, reason);
  ward_->note_fault(0, reason);
  std::ostringstream os;
  ward_->export_jsonl(os);
  const std::string snapshot = os.str();

  // No raw control byte may leak into the JSONL (newline separates lines).
  for (char c : snapshot) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte leaked";
  }
  EXPECT_NE(snapshot.find("\\r"), std::string::npos);
  EXPECT_NE(snapshot.find("\\t"), std::string::npos);
  EXPECT_NE(snapshot.find("\\u0001"), std::string::npos);

  // Round-trip: un-escaping the note field yields the original reason.
  const std::string key = "\"note\":\"";
  const auto start = snapshot.find(key);
  ASSERT_NE(start, std::string::npos);
  const auto value_start = start + key.size();
  const auto value_end = snapshot.find('"', value_start);
  ASSERT_NE(value_end, std::string::npos);
  EXPECT_EQ(json_unescape(snapshot.substr(value_start, value_end - value_start)),
            reason);
}

TEST_F(WardHarness, DropAccountingMirrorsTheRings) {
  attach(WardConfig{});
  // Overflow the codes ring (drop-oldest): capacity survives, the rest drop.
  const std::size_t capacity = session_.codes().capacity();
  push_codes(capacity);
  for (std::size_t i = 0; i < 100; ++i) {
    (void)session_.codes().push(1, BackpressurePolicy::kDropOldest);
  }
  (void)ward_->drain_once();
  EXPECT_EQ(ward_->session(0)->code_drops, 100u);
  EXPECT_EQ(ward_->session(0)->codes, capacity);
  EXPECT_EQ(ward_->total_drops(), 100u);
  EXPECT_EQ(ward_->event_drops(), 0u) << "event ring never dropped";
}

}  // namespace
