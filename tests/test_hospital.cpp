// Hospital sharding tests (src/fleet/hospital_scheduler.hpp and friends):
// the determinism contract (sharded == unsharded == plain fleet == solo,
// snapshot bytes included, fault plans active), the totals gauges, and the
// snapshots written at epoch barriers. The Hospital suite runs under the CI
// TSan job.
#include "src/fleet/hospital_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/common/checkpoint.hpp"

namespace {

using namespace tono;
using fleet::FaultPlanConfig;
using fleet::FleetConfig;
using fleet::FleetScheduler;
using fleet::HospitalConfig;
using fleet::HospitalScheduler;
using fleet::PatientSession;
using fleet::SessionConfig;
using fleet::SessionState;
using fleet::WardAggregator;
using fleet::WardConfig;
using fleet::WardSnapshot;

constexpr std::size_t kSessions = 5;  // uneven across 3 shards on purpose

/// Same mix as test_fleet (sessions 0–2 are its 3-session ward, seeds
/// included): quiet, alarm-worthy, scenario-driven. A 3-shard run steps
/// them on three threads, so it is also the parallel == serial check.
SessionConfig mixed_config(std::size_t index) {
  SessionConfig config;
  if (index % 3 == 1) config.wrist.pulse = bio::PatientPresets::hypertensive();
  if (index % 3 == 2) config.scenario = "exercise";
  return config;
}

/// Transient-heavy plan whose onsets land inside a 1 s run (mirrors
/// test_fleet's faulty_plan so recovery behaviour is directly comparable).
FaultPlanConfig faulty_plan() {
  FaultPlanConfig plan;
  plan.contact_loss_events = 1;
  plan.link_bursts = 1;
  plan.element_faults = 1;
  plan.min_onset_s = 0.10;
  plan.horizon_s = 0.80;
  return plan;
}

struct HospitalRun {
  std::vector<std::vector<std::int16_t>> codes;
  std::string snapshot;
  std::uint64_t recoveries;
};

/// Runs a kSessions hospital with the given shard layout and returns every
/// session's recorded code stream plus the merged snapshot bytes.
HospitalRun run_hospital(std::size_t shards, double duration_s, bool faults) {
  HospitalConfig config;
  config.shards = shards;
  config.ward.record_codes = true;
  HospitalScheduler hospital{config};
  for (std::size_t i = 0; i < kSessions; ++i) {
    SessionConfig session = mixed_config(i);
    if (faults) session.fault_plan = faulty_plan();
    (void)hospital.admit(std::move(session));
  }
  hospital.run(duration_s);
  HospitalRun result;
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    result.codes.push_back(
        hospital.ward(hospital.shard_of(id)).recorded_codes(id));
  }
  std::ostringstream os;
  hospital.export_jsonl(os);
  result.snapshot = os.str();
  result.recoveries = hospital.snapshot().recoveries;
  return result;
}

/// The plain (pre-hospital) fleet running the same sessions — the serial
/// reference the whole sharding layer must be invisible against.
HospitalRun run_plain_fleet(double duration_s, bool faults) {
  WardConfig ward_config;
  ward_config.record_codes = true;
  WardAggregator ward{ward_config};
  FleetScheduler scheduler{FleetConfig{}, ward};
  for (std::size_t i = 0; i < kSessions; ++i) {
    SessionConfig session = mixed_config(i);
    if (faults) session.fault_plan = faulty_plan();
    (void)scheduler.admit(std::move(session));
  }
  scheduler.run(duration_s);
  HospitalRun result;
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    result.codes.push_back(ward.recorded_codes(id));
  }
  std::ostringstream os;
  ward.export_jsonl(os);
  result.snapshot = os.str();
  result.recoveries = ward.recoveries();
  return result;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Hospital, SeedAndShardAssignmentArePureFunctionsOfSessionId) {
  WardAggregator ward;
  FleetScheduler fleet{FleetConfig{}, ward};
  HospitalConfig config;
  config.shards = 3;
  HospitalScheduler hospital{config};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(hospital.session_seed(i), fleet.session_seed(i))
        << "seed of session " << i << " depends on the shard layout";
    EXPECT_EQ(hospital.shard_of(static_cast<std::uint32_t>(i)), i % 3);
  }
  // Admission order == global id, round-robin over shards.
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(hospital.admit(SessionConfig{}), i);
  }
  EXPECT_EQ(hospital.size(), 7u);
  for (std::uint32_t id = 0; id < 7; ++id) {
    EXPECT_EQ(hospital.state(id), SessionState::kAdmitted);
    EXPECT_EQ(hospital.strikes(id), 0u);
  }
  EXPECT_EQ(hospital.shard(0).size() + hospital.shard(1).size() +
                hospital.shard(2).size(),
            7u);
}

TEST(Hospital, RejectsZeroShards) {
  HospitalConfig config;
  config.shards = 0;
  EXPECT_THROW(HospitalScheduler{config}, std::invalid_argument);
}

TEST(Hospital, RejectsThreadsPerShardOtherThanOne) {
  // A shard is one thread; parallelism comes from more shards.
  HospitalConfig config;
  EXPECT_EQ(config.threads_per_shard, 1u);
  for (const std::size_t threads : {0u, 2u, 4u}) {
    config.threads_per_shard = threads;
    EXPECT_THROW(HospitalScheduler{config}, std::invalid_argument) << threads;
  }
  config.threads_per_shard = 1;
  EXPECT_NO_THROW(HospitalScheduler{config});
}

TEST(Hospital, ShardedIsBitIdenticalToUnshardedAndPlainFleet) {
  const auto sharded = run_hospital(3, 0.5, /*faults=*/false);
  const auto unsharded = run_hospital(1, 0.5, /*faults=*/false);
  const auto plain = run_plain_fleet(0.5, /*faults=*/false);
  ASSERT_EQ(sharded.codes.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    ASSERT_FALSE(plain.codes[i].empty()) << "session " << i << " produced no codes";
    EXPECT_EQ(sharded.codes[i], plain.codes[i]) << "session " << i << " diverged";
    EXPECT_EQ(unsharded.codes[i], plain.codes[i]) << "session " << i << " diverged";
  }
  // Snapshot bytes are shard-count-invariant, including vs the pre-hospital
  // single-ward export format.
  EXPECT_EQ(sharded.snapshot, plain.snapshot);
  EXPECT_EQ(unsharded.snapshot, plain.snapshot);
}

TEST(Hospital, FaultPlanRecoveryIsBitIdenticalAcrossShardLayoutsAndSolo) {
  const auto sharded = run_hospital(3, 1.0, /*faults=*/true);
  const auto unsharded = run_hospital(1, 1.0, /*faults=*/true);
  const auto plain = run_plain_fleet(1.0, /*faults=*/true);
  // Every session hits its transient contact loss and is readmitted; the
  // quarantine → backoff → readmit schedule is in shard-local batch counts,
  // so it cannot depend on the shard layout.
  EXPECT_EQ(sharded.recoveries, kSessions);
  EXPECT_EQ(unsharded.recoveries, kSessions);
  EXPECT_EQ(plain.recoveries, kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    ASSERT_FALSE(plain.codes[i].empty()) << "session " << i << " produced no codes";
    EXPECT_EQ(sharded.codes[i], plain.codes[i]) << "session " << i << " diverged";
    EXPECT_EQ(unsharded.codes[i], plain.codes[i]) << "session " << i << " diverged";
  }
  EXPECT_EQ(sharded.snapshot, plain.snapshot);
  EXPECT_EQ(unsharded.snapshot, plain.snapshot);

  // Solo catch-retry: the single-session analogue of quarantine +
  // readmission reproduces each sharded session bit for bit.
  WardAggregator ward;
  FleetScheduler seeder{FleetConfig{}, ward};
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    SessionConfig config = mixed_config(id);
    config.seed = seeder.session_seed(id);
    config.fault_plan = faulty_plan();
    PatientSession solo{id, std::move(config)};
    std::vector<std::int16_t> codes;
    while (solo.stream_time_s() < 1.0) {
      try {
        solo.step(FleetConfig{}.frames_per_step);
      } catch (const std::exception&) {
        // retry: a transient fault consumes its throw budget and passes
      }
      solo.codes().pop_all(codes);
    }
    solo.codes().pop_all(codes);
    EXPECT_EQ(codes, sharded.codes[id]) << "session " << id << " diverged solo";
  }
}

TEST(Hospital, SessionsSurviveShardsOutnumberingThem) {
  HospitalConfig config;
  config.shards = 4;
  HospitalScheduler hospital{config};
  (void)hospital.admit(SessionConfig{});
  (void)hospital.admit(SessionConfig{});
  hospital.run(0.2);  // two shards work, two are empty the whole run
  const WardSnapshot snap = hospital.snapshot();
  ASSERT_EQ(snap.sessions.size(), 2u);
  EXPECT_GT(snap.codes_consumed, 0u);
  EXPECT_EQ(hospital.state(0), SessionState::kRunning);
  EXPECT_EQ(hospital.state(1), SessionState::kRunning);
  EXPECT_GE(hospital.epochs(), 1u);
}

// The hospital totals gauges are summed from the parked wards at the end of
// run(): they must equal the merged snapshot's totals at any shard count.
TEST(Hospital, TotalsGaugesMatchMergedSnapshotAfterRun) {
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  auto& reg = metrics::Registry::global();
  for (const std::size_t shards : {1u, 3u}) {
    HospitalConfig config;
    config.shards = shards;
    HospitalScheduler hospital{config};
    for (std::size_t i = 0; i < kSessions; ++i) (void)hospital.admit(mixed_config(i));
    hospital.run(0.3);
    const WardSnapshot snap = hospital.snapshot();
    EXPECT_GT(snap.codes_consumed, 0u);
    EXPECT_EQ(reg.gauge(metrics::names::kHospitalCodesConsumed).value(),
              static_cast<double>(snap.codes_consumed))
        << shards << " shard(s)";
    EXPECT_EQ(reg.gauge(metrics::names::kHospitalAlarmsActive).value(),
              static_cast<double>(snap.alarms_active))
        << shards << " shard(s)";
  }
  metrics::set_enabled(was_enabled);
}

TEST(Hospital, EpochSnapshotsLandOnDiskShardCountInvariant) {
  const std::string path3 = temp_path("hospital_snap3.jsonl");
  const std::string path1 = temp_path("hospital_snap1.jsonl");
  for (const auto& [shards, path] :
       std::vector<std::pair<std::size_t, std::string>>{{3, path3}, {1, path1}}) {
    HospitalConfig config;
    config.shards = shards;
    config.epoch_batches = 2;  // several epochs in a 0.3 s run
    config.snapshot_path = path;
    config.snapshot_every_epochs = 1;
    HospitalScheduler hospital{config};
    for (std::size_t i = 0; i < 3; ++i) (void)hospital.admit(mixed_config(i));
    hospital.run(0.3);
    // One snapshot per epoch barrier plus the final exact one, none lost;
    // the file must equal the in-memory merged export.
    EXPECT_GE(hospital.epochs(), 2u);
    EXPECT_EQ(hospital.snapshots_written(), hospital.epochs() + 1);
    EXPECT_EQ(hospital.snapshot_failures(), 0u);
    std::ostringstream os;
    hospital.export_jsonl(os);
    EXPECT_EQ(read_file(path), os.str());
  }
  EXPECT_EQ(read_file(path3), read_file(path1))
      << "snapshot bytes depend on the shard count";
  std::remove(path3.c_str());
  std::remove(path1.c_str());
}

TEST(Hospital, CheckpointResumeMatchesContinuingTheSameProcess) {
  const std::string path = temp_path("hospital_resume.ckpt");
  std::remove(path.c_str());

  auto admit_all = [](HospitalScheduler& hospital) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      SessionConfig session = mixed_config(i);
      session.fault_plan = faulty_plan();  // recovery state must survive too
      (void)hospital.admit(std::move(session));
    }
  };
  auto make_config = [&](const std::string& checkpoint_path) {
    HospitalConfig config;
    config.shards = 2;
    config.ward.record_codes = true;
    config.checkpoint_path = checkpoint_path;
    return config;
  };

  // Reference: one process that pauses at 0.5 s and continues to 1.0 s on
  // the same objects — the behaviour resume must be indistinguishable from.
  std::string continued;
  {
    HospitalScheduler hospital{make_config("")};
    admit_all(hospital);
    hospital.run(0.5);
    hospital.run(1.0);
    std::ostringstream os;
    hospital.export_jsonl(os);
    continued = os.str();
  }

  // "Killed" process: runs to 0.5 s and leaves its end-of-run checkpoint.
  std::uint64_t epochs_at_stop = 0;
  {
    HospitalScheduler hospital{make_config(path)};
    admit_all(hospital);
    hospital.run(0.5);
    epochs_at_stop = hospital.epochs();
    EXPECT_GE(hospital.checkpoints_saved(), 1u);
  }

  // Restarted process: identical admissions, restore, continue. The final
  // snapshot must be byte-identical to never having stopped.
  {
    HospitalScheduler hospital{make_config(path)};
    admit_all(hospital);
    ASSERT_TRUE(hospital.try_restore_checkpoint());
    EXPECT_EQ(hospital.epochs(), epochs_at_stop);
    hospital.run(1.0);
    std::ostringstream os;
    hospital.export_jsonl(os);
    EXPECT_EQ(os.str(), continued) << "resumed run diverged from the reference";
  }
  std::remove(path.c_str());
}

TEST(Hospital, CheckpointRestoreRejectsMismatchAndMissingFileIsFreshStart) {
  const std::string path = temp_path("hospital_mismatch.ckpt");
  std::remove(path.c_str());

  auto make = [&](std::size_t shards, std::size_t sessions) {
    HospitalConfig config;
    config.shards = shards;
    config.checkpoint_path = path;
    auto hospital = std::make_unique<HospitalScheduler>(config);
    for (std::size_t i = 0; i < sessions; ++i) {
      (void)hospital->admit(mixed_config(i));
    }
    return hospital;
  };

  {
    auto fresh = make(2, 3);
    EXPECT_FALSE(fresh->try_restore_checkpoint()) << "no file yet";
    fresh->run(0.2);  // leaves the end-of-run checkpoint behind
    EXPECT_GE(fresh->checkpoints_saved(), 1u);
  }
  // Wrong shard count and wrong admission count both fail loudly instead of
  // silently restarting the ward from zero. The shard-count error names
  // both counts, since --shards defaults to the host's core count.
  try {
    (void)make(3, 3)->try_restore_checkpoint();
    ADD_FAILURE() << "a 3-shard hospital restored a 2-shard checkpoint";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("has 2 shards"), std::string::npos) << what;
    EXPECT_NE(what.find("has 3 (pass --shards 2)"), std::string::npos) << what;
  }
  EXPECT_THROW((void)make(2, 2)->try_restore_checkpoint(), CheckpointError);
  {
    // A matching hospital restores fine from the same file.
    auto match = make(2, 3);
    EXPECT_TRUE(match->try_restore_checkpoint());
    EXPECT_GE(match->epochs(), 1u);
  }
  {
    // Corrupt the file: resume must throw, not half-restore.
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << "definitely not a TCKP blob";
  }
  EXPECT_THROW((void)make(2, 3)->try_restore_checkpoint(), CheckpointError);
  std::remove(path.c_str());
}

TEST(Hospital, SnapshotPeriodZeroWritesOnlyTheFinalSnapshot) {
  const std::string path = temp_path("hospital_snap_final.jsonl");
  HospitalConfig config;
  config.shards = 2;
  config.epoch_batches = 2;
  config.snapshot_path = path;
  HospitalScheduler hospital{config};
  for (std::size_t i = 0; i < 3; ++i) (void)hospital.admit(mixed_config(i));
  hospital.run(0.3);
  EXPECT_GE(hospital.epochs(), 2u);
  EXPECT_EQ(hospital.snapshots_written(), 1u);
  std::ostringstream os;
  hospital.export_jsonl(os);
  EXPECT_EQ(read_file(path), os.str());
  std::remove(path.c_str());
}

// A snapshot write that fails is counted, leaves the run untouched and never
// stalls a barrier: every due write is attempted and the streams finish.
TEST(Hospital, UnwritableSnapshotPathIsCountedAndTheRunCompletes) {
  HospitalConfig config;
  config.shards = 2;
  config.epoch_batches = 2;
  config.snapshot_path = "/nonexistent-dir/snap.jsonl";
  config.snapshot_every_epochs = 1;
  HospitalScheduler hospital{config};
  for (std::size_t i = 0; i < 3; ++i) (void)hospital.admit(mixed_config(i));
  hospital.run(0.3);
  EXPECT_GE(hospital.epochs(), 2u);
  EXPECT_EQ(hospital.snapshots_written(), 0u);
  EXPECT_EQ(hospital.snapshot_failures(), hospital.epochs() + 1);

  HospitalConfig plain = config;
  plain.snapshot_path.clear();
  HospitalScheduler reference{plain};
  for (std::size_t i = 0; i < 3; ++i) (void)reference.admit(mixed_config(i));
  reference.run(0.3);
  std::ostringstream got, want;
  hospital.export_jsonl(got);
  reference.export_jsonl(want);
  EXPECT_EQ(got.str(), want.str()) << "a failed snapshot write changed the run";
  EXPECT_GT(hospital.snapshot().codes_consumed, 0u);
}

}  // namespace
