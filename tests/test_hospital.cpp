// Hospital sharding tests (src/fleet/hospital_scheduler.hpp and friends):
// the determinism contract (sharded == unsharded == plain fleet == solo,
// snapshot bytes included, fault plans active), the lock-free aggregation
// tree, and the double-buffered async snapshot writer. The Hospital /
// Aggregation / Snapshot suites run under the CI TSan job.
#include "src/fleet/hospital_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/common/checkpoint.hpp"
#include "src/fleet/aggregation_tree.hpp"
#include "src/fleet/snapshot_writer.hpp"

namespace {

using namespace tono;
using fleet::AggregationTree;
using fleet::AsyncSnapshotWriter;
using fleet::FaultPlanConfig;
using fleet::FleetConfig;
using fleet::FleetScheduler;
using fleet::HospitalConfig;
using fleet::HospitalScheduler;
using fleet::PatientSession;
using fleet::SessionConfig;
using fleet::SessionState;
using fleet::ShardStats;
using fleet::WardAggregator;
using fleet::WardConfig;
using fleet::WardSessionState;
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

TEST(Hospital, LiveStatsMatchSnapshotAtQuiescence) {
  HospitalConfig config;
  config.shards = 2;
  HospitalScheduler hospital{config};
  for (std::size_t i = 0; i < 3; ++i) (void)hospital.admit(mixed_config(i));
  hospital.run(0.3);
  const WardSnapshot snap = hospital.snapshot();
  const ShardStats stats = hospital.stats();
  EXPECT_EQ(stats[fleet::kShardCodes], snap.codes_consumed);
  EXPECT_EQ(stats[fleet::kShardEvents], snap.events_consumed);
  EXPECT_EQ(stats[fleet::kShardEventDrops], snap.event_drops);
  EXPECT_EQ(stats[fleet::kShardAlarmsActive], snap.alarms_active);
  EXPECT_EQ(stats[fleet::kShardRecoveries], snap.recoveries);
  EXPECT_EQ(stats[fleet::kShardActiveSessions], 3u);
}

TEST(Hospital, AsyncEpochSnapshotsLandOnDiskShardCountInvariant) {
  const std::string path3 = temp_path("hospital_snap3.jsonl");
  const std::string path1 = temp_path("hospital_snap1.jsonl");
  std::string expected;
  for (const auto& [shards, path] :
       std::vector<std::pair<std::size_t, std::string>>{{3, path3}, {1, path1}}) {
    HospitalConfig config;
    config.shards = shards;
    config.snapshot_path = path;
    config.snapshot_every_epochs = 1;
    HospitalScheduler hospital{config};
    for (std::size_t i = 0; i < 3; ++i) (void)hospital.admit(mixed_config(i));
    hospital.run(0.3);
    // run() submits a final exact snapshot and flushes; the file must equal
    // the in-memory merged export.
    EXPECT_GE(hospital.snapshots_written(), 1u);
    std::ostringstream os;
    hospital.export_jsonl(os);
    EXPECT_EQ(read_file(path), os.str());
    if (expected.empty()) expected = os.str();
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

// ---------------------------------------------------------------------------
// AggregationTree

ShardStats stats_with(std::uint64_t base) {
  ShardStats s;
  for (std::size_t f = 0; f < fleet::kShardFieldCount; ++f) {
    s[f] = base + f;
  }
  return s;
}

TEST(Aggregation, ReduceMatchesLinearSumAcrossIncrementalPublishes) {
  AggregationTree tree{5};  // non-power-of-two: exercises padding leaves
  EXPECT_EQ(tree.leaf_count(), 5u);
  for (std::uint64_t round = 1; round <= 4; ++round) {
    for (std::size_t leaf = 0; leaf < 5; ++leaf) {
      if ((leaf + round) % 2 == 0) continue;  // partial publishes per round
      tree.publish(leaf, stats_with(round * 100 + leaf));
    }
    const ShardStats cached = tree.reduce();
    const ShardStats linear = tree.sum();
    for (std::size_t f = 0; f < fleet::kShardFieldCount; ++f) {
      EXPECT_EQ(cached[f], linear[f]) << "field " << f << " round " << round;
    }
  }
}

TEST(Aggregation, RepublishingOneLeafOnlyChangesItsContribution) {
  AggregationTree tree{4};
  for (std::size_t leaf = 0; leaf < 4; ++leaf) tree.publish(leaf, stats_with(10));
  const std::uint64_t before = tree.reduce()[fleet::kShardCodes];
  ShardStats update = stats_with(10);
  update[fleet::kShardCodes] += 7;
  tree.publish(2, update);
  EXPECT_EQ(tree.reduce()[fleet::kShardCodes], before + 7);
}

// Concurrent single-writer-per-leaf publishes with a live lock-free reader —
// the hospital's steady state, under TSan in CI.
TEST(Aggregation, ConcurrentPublishersAndLiveReaderAreRaceFree) {
  constexpr std::size_t kLeaves = 4;
  constexpr std::uint64_t kRounds = 2000;
  AggregationTree tree{kLeaves};
  std::atomic<bool> stop{false};
  std::thread reader{[&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const ShardStats live = tree.sum();
      // Per-field monotonicity: every publisher only increases its value.
      EXPECT_GE(live[fleet::kShardCodes], last);
      last = live[fleet::kShardCodes];
    }
  }};
  std::vector<std::thread> publishers;
  for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
    publishers.emplace_back([&tree, leaf] {
      for (std::uint64_t round = 1; round <= kRounds; ++round) {
        ShardStats s;
        s[fleet::kShardCodes] = round;
        s[fleet::kShardBatches] = round;
        tree.publish(leaf, s);
      }
    });
  }
  for (auto& t : publishers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  const ShardStats total = tree.reduce();
  EXPECT_EQ(total[fleet::kShardCodes], kLeaves * kRounds);
  EXPECT_EQ(total[fleet::kShardBatches], kLeaves * kRounds);
}

// ---------------------------------------------------------------------------
// AsyncSnapshotWriter

WardSnapshot tiny_snapshot(std::uint32_t tag) {
  WardSnapshot snap;
  WardSessionState s;
  s.id = tag;
  s.label = "session-" + std::to_string(tag);
  s.codes = 10ull * tag;
  snap.sessions.push_back(std::move(s));
  snap.codes_consumed = 10ull * tag;
  return snap;
}

std::string serialized(const WardSnapshot& snap) {
  std::ostringstream os;
  fleet::export_jsonl(snap, os);
  return os.str();
}

TEST(Snapshot, WriterWritesSubmittedSnapshotVerbatim) {
  const std::string path = temp_path("writer_basic.jsonl");
  AsyncSnapshotWriter writer{path};
  writer.submit(tiny_snapshot(3));
  writer.flush();
  EXPECT_EQ(writer.written(), 1u);
  EXPECT_EQ(writer.failures(), 0u);
  EXPECT_EQ(read_file(path), serialized(tiny_snapshot(3)));
  std::remove(path.c_str());
}

TEST(Snapshot, LatestWinsAccountingIsExactAndFileHoldsTheLast) {
  const std::string path = temp_path("writer_latest.jsonl");
  constexpr std::uint32_t kSubmitted = 200;
  {
    AsyncSnapshotWriter writer{path};
    for (std::uint32_t i = 1; i <= kSubmitted; ++i) writer.submit(tiny_snapshot(i));
    writer.flush();
    // Double-buffer contract: every snapshot is either written or counted
    // as superseded — nothing vanishes silently — and the file always ends
    // at the newest one.
    EXPECT_EQ(writer.written() + writer.skipped(), kSubmitted);
    EXPECT_GE(writer.written(), 1u);
  }
  EXPECT_EQ(read_file(path), serialized(tiny_snapshot(kSubmitted)));
  std::remove(path.c_str());
}

TEST(Snapshot, DestructorFlushesThePendingSnapshot) {
  const std::string path = temp_path("writer_dtor.jsonl");
  {
    AsyncSnapshotWriter writer{path};
    writer.submit(tiny_snapshot(9));
    // no flush(): the destructor must drain the pending slot
  }
  EXPECT_EQ(read_file(path), serialized(tiny_snapshot(9)));
  std::remove(path.c_str());
}

TEST(Snapshot, UnwritablePathCountsFailuresWithoutWedging) {
  AsyncSnapshotWriter writer{"/nonexistent-dir/snap.jsonl"};
  writer.submit(tiny_snapshot(1));
  writer.flush();
  EXPECT_EQ(writer.written(), 0u);
  EXPECT_EQ(writer.failures(), 1u);
  writer.submit(tiny_snapshot(2));
  writer.flush();  // still alive after a failure
  EXPECT_EQ(writer.failures(), 2u);
}

}  // namespace
