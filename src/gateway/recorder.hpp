// recorder.hpp — binary session record & replay (docs/GATEWAY.md).
//
// The validation story for a continuous-BP pipeline needs reproducible
// input corpora: record what actually crossed the wire, then replay it —
// paced like the 1 kS/s hardware, or time-compressed as fast as the host
// allows. The recorder taps the demux's on_envelope hook, so a session
// file holds exactly the CRC-validated frames the ward *consumed* (a lossy
// wire's drops are simply absent, and replaying reproduces the same
// decoder-side gap accounting).
//
// Per-session record file `session_<id>.rec`:
//
//   header:  'T' 'G' 'W' 'R' | u32 record version | u32 session id
//   record:  u32 payload length | u16 n_codes | u16 reserved(0)
//            u64 FNV-1a(payload) | payload (one FrameEncoder frame)
//
// All fields little-endian. Records are append-only; a crash mid-append
// leaves at most one torn record at the tail, which the replayer detects
// (short read or checksum mismatch) and truncates — every fully-written
// record before it replays byte-identically. The checksum covers only the
// payload, so the replayer also ends the stream at a record whose header
// disagrees with its frame: a length other than the frame's wire size for
// n_codes, an n_codes other than the frame's own count, or a nonzero
// reserved field.
//
// The index (`index.ckpt`) is a framed checkpoint blob (magic, version,
// FNV-1a — src/common/checkpoint.hpp) carrying the run parameters needed
// to rebuild the identical hospital (base seed, session count,
// frames_per_step, duration) plus per-session totals. It is written once,
// at finalize(), via atomic_write_file: a killed recording has no index,
// and the replayer falls back to flags + tail-truncated session files.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/metrics.hpp"

namespace tono::gateway {

inline constexpr std::uint32_t kRecordFileVersion = 1;
inline constexpr std::uint32_t kRecordIndexVersion = 1;

class RecorderError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Run parameters a replay needs to rebuild the identical hospital.
struct RecordMeta {
  std::uint64_t base_seed{0};
  std::uint64_t sessions{0};
  std::uint64_t frames_per_step{0};
  double duration_s{0.0};
};

struct RecordedSessionInfo {
  std::uint32_t id{0};
  std::uint64_t frames{0};
  std::uint64_t codes{0};
  std::uint64_t bytes{0};  ///< payload bytes (frame wire bytes, not framing overhead)
};

struct RecordIndex {
  RecordMeta meta;
  std::vector<RecordedSessionInfo> sessions;
};

class SessionRecorder {
 public:
  /// Creates `dir` (and parents) if needed; throws RecorderError on failure.
  explicit SessionRecorder(std::string dir);
  ~SessionRecorder();

  SessionRecorder(const SessionRecorder&) = delete;
  SessionRecorder& operator=(const SessionRecorder&) = delete;

  /// Opens (truncates) the session's record file and writes its header.
  /// Call for every session before any record() — not thread-safe against
  /// concurrent record() calls.
  void open_session(std::uint32_t id);

  /// Appends one record. Thread-safe across *different* sessions (each id
  /// owns its stream; per-shard gateway pumps never share a session).
  void record(std::uint32_t id, std::span<const std::uint8_t> frame,
              std::uint16_t n_codes);

  /// Flushes every session file and atomically writes the index. Returns
  /// false when any write failed (session data already on disk stays).
  [[nodiscard]] bool finalize(const RecordMeta& meta);

  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_recorded() const noexcept {
    return frames_recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  [[nodiscard]] static std::string session_file(const std::string& dir,
                                                std::uint32_t id);
  [[nodiscard]] static std::string index_file(const std::string& dir);

 private:
  struct Rec {
    std::ofstream out;
    RecordedSessionInfo info;
  };

  std::string dir_;
  std::map<std::uint32_t, Rec> sessions_;
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> frames_recorded_{0};
  metrics::Counter* recorder_bytes_metric_;
};

/// Streams one session's records back, validating each checksum. A torn or
/// corrupt tail record ends the stream cleanly (truncated() reports it);
/// everything before it is returned byte-identical to what was recorded.
class SessionReplayer {
 public:
  SessionReplayer(const std::string& dir, std::uint32_t id);

  /// Next valid record; false at end-of-stream (clean or truncated).
  bool next(std::vector<std::uint8_t>& frame, std::uint16_t& n_codes);

  [[nodiscard]] std::uint32_t session_id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t frames_read() const noexcept { return frames_read_; }
  [[nodiscard]] std::uint64_t codes_read() const noexcept { return codes_read_; }
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  struct Totals {
    std::uint64_t frames{0};
    std::uint64_t codes{0};
    std::uint64_t bytes{0};
    bool torn{false};
  };
  /// Whole-file pass without retaining payloads (replay planning).
  [[nodiscard]] static Totals scan(const std::string& dir, std::uint32_t id);

  /// Session ids with a record file in `dir`, ascending.
  [[nodiscard]] static std::vector<std::uint32_t> list_sessions(
      const std::string& dir);

 private:
  std::ifstream in_;
  std::uint32_t id_;
  std::uint64_t frames_read_{0};
  std::uint64_t codes_read_{0};
  bool truncated_{false};
  bool done_{false};
};

/// Reads the finalize()-written index; nullopt when absent (killed or
/// unfinalized recording). Throws CheckpointError on a corrupt blob —
/// atomic_write_file makes that a real error, never a torn write.
[[nodiscard]] std::optional<RecordIndex> read_record_index(const std::string& dir);

}  // namespace tono::gateway
