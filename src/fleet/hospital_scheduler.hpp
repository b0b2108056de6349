// hospital_scheduler.hpp — sharded fleet serving: one hospital, N wards.
//
// FleetScheduler runs every session in one lockstep batch, so a single slow
// session (or the batch barrier itself) gates the whole fleet — measured
// flat scaling at 64+ sessions. The hospital splits the fleet into
// independent ward shards: shard s owns its own FleetScheduler,
// WardAggregator, code/event rings and seed domain, and one driver thread
// steps its whole batch. Shards are the only parallelism of the serving
// path: a shard is one thread. Shards only meet at *epoch* boundaries (every
// `epoch_batches` batches), where a std::barrier completion step aggregates
// telemetry and hands snapshots to the async writer. Between epochs the
// shards share nothing mutable — the cross-shard roll-up flows through the
// lock-free AggregationTree mirrors (aggregation_tree.hpp), and JSONL
// serialization runs on the AsyncSnapshotWriter thread (snapshot_writer.hpp)
// so it never stalls a barrier.
//
// Determinism contract (docs/FLEET.md "Sharding"): shard assignment is a
// pure function of session id — `id % shards` — and session ids equal
// hospital admission order. Shard s's FleetScheduler maps its n-th
// admission to global id s + n·shards and derives the seed from that global
// id, so a session's seed, stream, fault plan and recovery schedule are all
// bit-identical whether it runs solo, in an unsharded fleet, or in any
// shard layout. Per-shard batch/backoff counters advance exactly as the
// equivalent S-sessions-in-one-fleet run's do, so quarantine → readmit →
// retire timing (PR 5) is preserved; merged snapshots re-sort sessions by
// global id and are byte-identical across shard counts.
//
// Threading contract: construct, admit() every session, then run(); admit
// and the exact accessors (snapshot/export_jsonl) must not race run().
// stats() is the exception — it reads the lock-free mirrors and is safe
// (and approximate, field-exact) at any time.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/fleet/aggregation_tree.hpp"
#include "src/fleet/fleet_scheduler.hpp"
#include "src/fleet/snapshot_writer.hpp"
#include "src/fleet/ward_aggregator.hpp"

namespace tono::fleet {

struct HospitalConfig {
  /// Ward shards, one driver thread each; 1 reproduces the plain
  /// FleetScheduler byte-for-byte.
  std::size_t shards{1};
  /// Must be 1 (the constructor throws otherwise): a shard is one thread.
  /// Kept only because wardbench/ward.cpp still assigns it.
  std::size_t threads_per_shard{1};
  std::uint64_t base_seed{0x70A05EEDull};
  std::string stream_name{"fleet"};
  std::size_t frames_per_step{64};
  std::size_t max_readmits{3};
  std::size_t readmit_backoff_batches{2};
  /// Batches every shard runs between epoch barriers. Larger → less
  /// synchronization, coarser aggregation granularity. Purely an
  /// orchestration knob: it cannot affect results, only when the hospital
  /// observes them.
  std::size_t epoch_batches{16};
  WardConfig ward{};
  /// When non-empty, run() writes JSONL snapshots here through the async
  /// writer: one at every `snapshot_every_epochs`-th epoch (0 = final
  /// snapshot only) and always one exact snapshot at the end of run().
  std::string snapshot_path{};
  std::size_t snapshot_every_epochs{0};
  /// When non-empty, run() writes a resumable binary checkpoint here —
  /// crash-safe (tmp + fsync + rename, see atomic_write_file) — at every
  /// `checkpoint_every_epochs`-th epoch barrier and once more at the end of
  /// run(). A restarted process re-admits the identical session mix, calls
  /// try_restore_checkpoint() and continues run(): the completed stream is
  /// bit-identical to one that was never interrupted.
  std::string checkpoint_path{};
  /// 0 disables the periodic writes (the end-of-run checkpoint still lands).
  std::size_t checkpoint_every_epochs{0};
};

/// Schema version of the whole-hospital checkpoint blob (embeds every
/// shard's scheduler, session and ward sections).
inline constexpr std::uint32_t kHospitalCheckpointVersion = 3;

class HospitalScheduler {
 public:
  explicit HospitalScheduler(HospitalConfig config);
  ~HospitalScheduler();

  HospitalScheduler(const HospitalScheduler&) = delete;
  HospitalScheduler& operator=(const HospitalScheduler&) = delete;

  /// Same derivation as FleetScheduler::session_seed — global session id in,
  /// seed out, shard-layout independent.
  [[nodiscard]] std::uint64_t session_seed(std::size_t session_id) const;

  /// The shard a session id lives on: id % shards. Pure, stateless.
  [[nodiscard]] std::size_t shard_of(std::uint32_t id) const noexcept {
    return id % shards_.size();
  }

  /// Admits the next session (round-robin over shards by global id).
  /// Returns the global id (== hospital admission index).
  std::uint32_t admit(SessionConfig config, std::string label = "");

  /// Runs every shard to `duration_s` of per-session stream time on its own
  /// driver thread, epoch-synchronized; drains, settles and publishes each
  /// shard before it parks. When snapshot_path is set, hands the writer a
  /// final exact snapshot and flushes before returning.
  void run(double duration_s);

  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t active_sessions() const;
  [[nodiscard]] const HospitalConfig& config() const noexcept { return config_; }

  /// Per-session lookups, routed to the owning shard.
  [[nodiscard]] SessionState state(std::uint32_t id) const;
  [[nodiscard]] std::size_t strikes(std::uint32_t id) const;
  [[nodiscard]] const std::string& quarantine_reason(std::uint32_t id) const;

  /// Direct shard access (tests; recorded_codes and friends).
  [[nodiscard]] FleetScheduler& shard(std::size_t s) { return *shards_[s].scheduler; }
  [[nodiscard]] WardAggregator& ward(std::size_t s) { return *shards_[s].ward; }

  /// Exact merged snapshot (not during run() — see the threading contract).
  /// Byte-compatible with a single ward's snapshot: shard-count-invariant.
  [[nodiscard]] WardSnapshot snapshot() const;
  void export_jsonl(std::ostream& os) const;

  /// Live lock-free roll-up of the shard mirrors; callable any time, from
  /// any thread. Field-exact, cross-field cut may lag one batch per shard.
  [[nodiscard]] ShardStats stats() const noexcept { return tree_.sum(); }

  [[nodiscard]] std::uint64_t epochs() const noexcept {
    return epochs_.load(std::memory_order_relaxed);
  }
  /// Async writer accounting (0/0 when no snapshot_path configured).
  [[nodiscard]] std::uint64_t snapshots_written() const;
  [[nodiscard]] std::uint64_t snapshots_skipped() const;

  /// Full-hospital checkpoint: the epoch counter plus every shard's
  /// scheduler (batch counters, slot lifecycles, complete session dumps)
  /// and ward (vitals, alarm queue, fault logs). Call only at quiescence —
  /// between run() calls or from the epoch barrier, never concurrently
  /// with stepping shards.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const;

  /// Restores from a checkpoint() blob. Expects a hospital constructed with
  /// the same shard count and the same sessions admitted in the same order
  /// as when the blob was captured; throws CheckpointError on any mismatch.
  void restore_checkpoint(const std::vector<std::uint8_t>& blob);

  /// checkpoint() → atomic replace of config.checkpoint_path. Returns false
  /// (and leaves any previous checkpoint intact) without a configured path
  /// or on a write failure.
  bool save_checkpoint();

  /// Resume hook: restores from config.checkpoint_path if the file exists.
  /// Returns false on no path / no file (fresh start); a corrupt or
  /// mismatched blob throws CheckpointError — it never half-restores.
  bool try_restore_checkpoint();

  /// Checkpoints successfully written to checkpoint_path so far.
  [[nodiscard]] std::uint64_t checkpoints_saved() const noexcept {
    return checkpoints_saved_;
  }

 private:
  struct Shard {
    std::unique_ptr<WardAggregator> ward;
    std::unique_ptr<FleetScheduler> scheduler;
  };
  /// std::barrier completion functor: runs the epoch aggregation step on
  /// exactly one driver thread per phase, with every shard parked (or
  /// permanently done) — the quiescence point that makes merged reads exact.
  struct EpochTick {
    HospitalScheduler* hospital;
    void operator()() noexcept { hospital->on_epoch_(); }
  };

  void shard_loop_(std::size_t s, double until_s, std::barrier<EpochTick>& epoch);
  void publish_shard_(std::size_t s);
  void on_epoch_();
  [[nodiscard]] WardSnapshot merge_snapshot_() const;

  HospitalConfig config_;
  std::vector<Shard> shards_;
  AggregationTree tree_;
  std::unique_ptr<AsyncSnapshotWriter> writer_;  ///< null without snapshot_path
  std::size_t admitted_{0};
  std::uint64_t checkpoints_saved_{0};
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::size_t> live_shards_{0};
  // Observability (resolved once at construction).
  metrics::Counter* epochs_metric_;
  metrics::Counter* publishes_metric_;
  metrics::Gauge* shards_active_gauge_;
  metrics::Gauge* codes_gauge_;
  metrics::Gauge* alarms_gauge_;
  metrics::Timer* epoch_wall_;
};

}  // namespace tono::fleet
