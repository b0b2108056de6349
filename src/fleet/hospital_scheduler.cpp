#include "src/fleet/hospital_scheduler.hpp"

#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/common/checkpoint.hpp"

namespace tono::fleet {

HospitalScheduler::HospitalScheduler(HospitalConfig config)
    : config_(std::move(config)), tree_(config_.shards) {
  if (config_.shards == 0) {
    throw std::invalid_argument{"HospitalScheduler: shards must be >= 1"};
  }
  if (config_.threads_per_shard != 1) {
    throw std::invalid_argument{
        "HospitalScheduler: threads_per_shard must be 1 (a shard is one thread; "
        "add shards for parallelism)"};
  }
  if (config_.epoch_batches == 0) {
    throw std::invalid_argument{"HospitalScheduler: epoch_batches must be >= 1"};
  }
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    Shard shard;
    shard.ward = std::make_unique<WardAggregator>(config_.ward);
    FleetConfig fleet;
    fleet.base_seed = config_.base_seed;
    fleet.stream_name = config_.stream_name;
    fleet.frames_per_step = config_.frames_per_step;
    fleet.max_readmits = config_.max_readmits;
    fleet.readmit_backoff_batches = config_.readmit_backoff_batches;
    fleet.session_id_offset = static_cast<std::uint32_t>(s);
    fleet.session_id_stride = static_cast<std::uint32_t>(config_.shards);
    shard.scheduler = std::make_unique<FleetScheduler>(std::move(fleet), *shard.ward);
    shards_.push_back(std::move(shard));
  }
  if (!config_.snapshot_path.empty()) {
    writer_ = std::make_unique<AsyncSnapshotWriter>(config_.snapshot_path);
  }
  auto& reg = metrics::Registry::global();
  epochs_metric_ = &reg.counter(metrics::names::kHospitalEpochs);
  publishes_metric_ = &reg.counter(metrics::names::kShardMirrorPublishes);
  shards_active_gauge_ = &reg.gauge(metrics::names::kHospitalShardsActive);
  codes_gauge_ = &reg.gauge(metrics::names::kHospitalCodesConsumed);
  alarms_gauge_ = &reg.gauge(metrics::names::kHospitalAlarmsActive);
  epoch_wall_ = &reg.timer(metrics::names::kShardEpochWall);
}

HospitalScheduler::~HospitalScheduler() = default;

std::uint64_t HospitalScheduler::session_seed(std::size_t session_id) const {
  // Every shard shares (base_seed, stream_name); shard 0 answers for all.
  return shards_.front().scheduler->session_seed(session_id);
}

std::uint32_t HospitalScheduler::admit(SessionConfig config, std::string label) {
  // Round-robin by admission order; with (offset=s, stride=shards) inside
  // each shard this yields global id == hospital admission index, and
  // shard_of(id) == id % shards by construction.
  const std::size_t s = admitted_ % shards_.size();
  const std::uint32_t id =
      shards_[s].scheduler->admit(std::move(config), std::move(label));
  ++admitted_;
  return id;
}

std::size_t HospitalScheduler::size() const noexcept { return admitted_; }

std::size_t HospitalScheduler::active_sessions() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard.scheduler->active_sessions();
  return n;
}

SessionState HospitalScheduler::state(std::uint32_t id) const {
  return shards_[shard_of(id)].scheduler->state(id);
}

std::size_t HospitalScheduler::strikes(std::uint32_t id) const {
  return shards_[shard_of(id)].scheduler->strikes(id);
}

const std::string& HospitalScheduler::quarantine_reason(std::uint32_t id) const {
  return shards_[shard_of(id)].scheduler->quarantine_reason(id);
}

WardSnapshot HospitalScheduler::merge_snapshot_() const {
  std::vector<WardSnapshot> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) parts.push_back(shard.ward->snapshot());
  return merge_snapshots(std::move(parts));
}

WardSnapshot HospitalScheduler::snapshot() const { return merge_snapshot_(); }

void HospitalScheduler::export_jsonl(std::ostream& os) const {
  fleet::export_jsonl(merge_snapshot_(), os);
}

std::uint64_t HospitalScheduler::snapshots_written() const {
  return writer_ ? writer_->written() : 0;
}

std::uint64_t HospitalScheduler::snapshots_skipped() const {
  return writer_ ? writer_->skipped() : 0;
}

std::vector<std::uint8_t> HospitalScheduler::checkpoint() const {
  CheckpointWriter out;
  out.section("hospital");
  out.u64(epochs_.load(std::memory_order_relaxed));
  out.size(admitted_);
  out.size(shards_.size());
  for (const auto& shard : shards_) {
    shard.scheduler->serialize(out);
    shard.ward->serialize(out);
  }
  return out.finish(kHospitalCheckpointVersion);
}

void HospitalScheduler::restore_checkpoint(const std::vector<std::uint8_t>& blob) {
  CheckpointReader in{blob};
  in.require_version(kHospitalCheckpointVersion);
  in.section("hospital");
  const std::uint64_t epochs = in.u64();
  if (in.size() != admitted_) {
    throw CheckpointError{"hospital checkpoint admission count mismatch"};
  }
  if (const std::size_t shards = in.size(); shards != shards_.size()) {
    throw CheckpointError{"hospital checkpoint has " + std::to_string(shards) +
                          " shards, this hospital has " +
                          std::to_string(shards_.size()) + " (pass --shards " +
                          std::to_string(shards) + ")"};
  }
  for (auto& shard : shards_) {
    shard.scheduler->restore(in);
    shard.ward->restore(in);
  }
  in.expect_end();
  // Committed only after the whole blob validated — a throw above leaves the
  // epoch counter (and, because shard restores validate shape before
  // touching sessions, most state) untouched.
  epochs_.store(epochs, std::memory_order_relaxed);
}

bool HospitalScheduler::save_checkpoint() {
  if (config_.checkpoint_path.empty()) return false;
  const auto blob = checkpoint();
  if (!atomic_write_file(config_.checkpoint_path, blob.data(), blob.size())) {
    return false;  // previous complete checkpoint stays in place
  }
  ++checkpoints_saved_;
  return true;
}

bool HospitalScheduler::try_restore_checkpoint() {
  if (config_.checkpoint_path.empty()) return false;
  std::vector<std::uint8_t> blob;
  try {
    blob = read_file_bytes(config_.checkpoint_path);
  } catch (const CheckpointError&) {
    return false;  // no checkpoint yet — fresh start
  }
  // A corrupt or mismatched blob throws out of here: failing loudly beats
  // silently restarting a monitored patient from zero.
  restore_checkpoint(blob);
  return true;
}

void HospitalScheduler::publish_shard_(std::size_t s) {
  const Shard& shard = shards_[s];
  const WardAggregator& ward = *shard.ward;
  ShardStats stats;
  stats[kShardCodes] = ward.codes_consumed();
  stats[kShardEvents] = ward.events_consumed();
  const std::uint64_t event_drops = ward.event_drops();
  stats[kShardCodeDrops] = ward.total_drops() - event_drops;
  stats[kShardEventDrops] = event_drops;
  stats[kShardBlocks] = ward.total_blocks();
  stats[kShardAlarmsActive] = ward.alarms_active();
  stats[kShardEscalations] = ward.escalations();
  stats[kShardRecoveries] = ward.recoveries();
  stats[kShardRetired] = ward.retired();
  stats[kShardActiveSessions] = shard.scheduler->active_sessions();
  stats[kShardBatches] = shard.scheduler->batches();
  tree_.publish(s, stats);
  publishes_metric_->add(1);
}

void HospitalScheduler::on_epoch_() {
  // Runs on exactly one driver thread per phase with every other shard
  // parked at the barrier (or permanently done) — the quiescence point
  // where merged reads are exact. Phases are sequential, satisfying
  // reduce()'s single-reader contract.
  const std::uint64_t epoch = epochs_.fetch_add(1, std::memory_order_relaxed) + 1;
  epochs_metric_->add(1);
  const ShardStats& total = tree_.reduce();
  codes_gauge_->set(static_cast<double>(total[kShardCodes]));
  alarms_gauge_->set(static_cast<double>(total[kShardAlarmsActive]));
  shards_active_gauge_->set(
      static_cast<double>(live_shards_.load(std::memory_order_relaxed)));
  if (writer_ && config_.snapshot_every_epochs > 0 &&
      epoch % config_.snapshot_every_epochs == 0) {
    // Copy ward state and hand it off; serialization and the file write
    // happen on the writer thread, never inside this barrier.
    writer_->submit(merge_snapshot_());
  }
  if (!config_.checkpoint_path.empty() && config_.checkpoint_every_epochs > 0 &&
      epoch % config_.checkpoint_every_epochs == 0) {
    // Every shard is parked at the barrier (or done and drained), every
    // batch ended with a full drain — the rings are quiescent and the blob
    // is a clean batch-boundary cut. The atomic write means a kill at any
    // instant leaves a complete checkpoint on disk.
    (void)save_checkpoint();
  }
}

void HospitalScheduler::shard_loop_(std::size_t s, double until_s,
                                    std::barrier<EpochTick>& epoch) {
  Shard& shard = shards_[s];
  for (;;) {
    bool done = false;
    {
      metrics::TraceSpan span{*epoch_wall_};
      for (std::size_t b = 0; b < config_.epoch_batches; ++b) {
        // Same termination rule as FleetScheduler::run(): an empty batch
        // with a quarantined session still waiting out its backoff is a
        // tick, not the end.
        if (shard.scheduler->step_all(until_s) == 0 &&
            !shard.scheduler->recovery_pending(until_s)) {
          done = true;
          break;
        }
      }
    }
    if (done) {
      // Mirror FleetScheduler::run()'s epilogue so a 1-shard hospital is
      // byte-identical to the plain fleet.
      (void)shard.ward->drain_once();
      shard.ward->settle();
    }
    publish_shard_(s);
    if (done) {
      live_shards_.fetch_sub(1, std::memory_order_relaxed);
      epoch.arrive_and_drop();
      return;
    }
    epoch.arrive_and_wait();
  }
}

void HospitalScheduler::run(double duration_s) {
  live_shards_.store(shards_.size(), std::memory_order_relaxed);
  shards_active_gauge_->set(static_cast<double>(shards_.size()));
  std::barrier<EpochTick> epoch{static_cast<std::ptrdiff_t>(shards_.size()),
                                EpochTick{this}};
  std::vector<std::thread> drivers;
  drivers.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    drivers.emplace_back(
        [this, s, duration_s, &epoch] { shard_loop_(s, duration_s, epoch); });
  }
  for (auto& driver : drivers) driver.join();
  // Every shard joined: the roll-up below is exact, not merely field-exact.
  const ShardStats& total = tree_.reduce();
  codes_gauge_->set(static_cast<double>(total[kShardCodes]));
  alarms_gauge_->set(static_cast<double>(total[kShardAlarmsActive]));
  shards_active_gauge_->set(0.0);
  if (writer_) {
    writer_->submit(merge_snapshot_());
    writer_->flush();
  }
  // Final checkpoint after the epilogue drain: a completed run leaves a blob
  // a restarted process can resume (or verify) from.
  (void)save_checkpoint();
}

}  // namespace tono::fleet
