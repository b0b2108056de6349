#include "src/gateway/recorder.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <utility>

#include "src/common/checkpoint.hpp"
#include "src/core/telemetry.hpp"

namespace tono::gateway {
namespace {

constexpr std::array<char, 4> kRecordMagic{'T', 'G', 'W', 'R'};
constexpr std::size_t kFileHeaderBytes = 4 + 4 + 4;
constexpr std::size_t kRecordHeaderBytes = 4 + 2 + 2 + 8;

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::string SessionRecorder::session_file(const std::string& dir, std::uint32_t id) {
  return dir + "/session_" + std::to_string(id) + ".rec";
}

std::string SessionRecorder::index_file(const std::string& dir) {
  return dir + "/index.ckpt";
}

SessionRecorder::SessionRecorder(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec && !std::filesystem::is_directory(dir_)) {
    throw RecorderError{"SessionRecorder: cannot create '" + dir_ +
                        "': " + ec.message()};
  }
  recorder_bytes_metric_ =
      &metrics::Registry::global().counter(metrics::names::kGatewayRecorderBytes);
}

SessionRecorder::~SessionRecorder() = default;

void SessionRecorder::open_session(std::uint32_t id) {
  auto [it, inserted] = sessions_.try_emplace(id);
  if (!inserted) return;
  Rec& rec = it->second;
  rec.info.id = id;
  rec.out.open(session_file(dir_, id), std::ios::binary | std::ios::trunc);
  if (!rec.out) {
    sessions_.erase(it);
    throw RecorderError{"SessionRecorder: cannot open record file for session " +
                        std::to_string(id)};
  }
  std::uint8_t header[kFileHeaderBytes];
  header[0] = static_cast<std::uint8_t>(kRecordMagic[0]);
  header[1] = static_cast<std::uint8_t>(kRecordMagic[1]);
  header[2] = static_cast<std::uint8_t>(kRecordMagic[2]);
  header[3] = static_cast<std::uint8_t>(kRecordMagic[3]);
  put_u32(header + 4, kRecordFileVersion);
  put_u32(header + 8, id);
  rec.out.write(reinterpret_cast<const char*>(header), sizeof(header));
  // Header on disk before any record: a kill right after open still leaves
  // a parseable (empty) session file.
  rec.out.flush();
}

void SessionRecorder::record(std::uint32_t id, std::span<const std::uint8_t> frame,
                             std::uint16_t n_codes) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw RecorderError{"SessionRecorder: session " + std::to_string(id) +
                        " not opened"};
  }
  Rec& rec = it->second;
  std::uint8_t header[kRecordHeaderBytes];
  put_u32(header + 0, static_cast<std::uint32_t>(frame.size()));
  put_u16(header + 4, n_codes);
  put_u16(header + 6, 0);
  put_u64(header + 8, checkpoint_fnv1a(frame.data(), frame.size()));
  rec.out.write(reinterpret_cast<const char*>(header), sizeof(header));
  rec.out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
  // Record-granular durability for the kill-and-replay story: an OS kill
  // (SIGKILL, the CI smoke) cannot lose a flushed record, only tear the
  // one mid-write — which the replayer truncates.
  rec.out.flush();
  ++rec.info.frames;
  rec.info.codes += n_codes;
  rec.info.bytes += frame.size();
  frames_recorded_.fetch_add(1, std::memory_order_relaxed);
  const auto total = sizeof(header) + frame.size();
  bytes_written_.fetch_add(total, std::memory_order_relaxed);
  recorder_bytes_metric_->add(total);
}

bool SessionRecorder::finalize(const RecordMeta& meta) {
  bool ok = true;
  CheckpointWriter out;
  out.section("gateway_record_index");
  out.u64(meta.base_seed);
  out.u64(meta.sessions);
  out.u64(meta.frames_per_step);
  out.f64(meta.duration_s);
  out.size(sessions_.size());
  for (auto& [id, rec] : sessions_) {
    rec.out.flush();
    if (!rec.out) ok = false;
    out.u32(rec.info.id);
    out.u64(rec.info.frames);
    out.u64(rec.info.codes);
    out.u64(rec.info.bytes);
  }
  if (!ok) return false;
  const auto blob = out.finish(kRecordIndexVersion);
  return atomic_write_file(index_file(dir_), blob.data(), blob.size());
}

SessionReplayer::SessionReplayer(const std::string& dir, std::uint32_t id)
    : in_(SessionRecorder::session_file(dir, id), std::ios::binary), id_(id) {
  if (!in_) {
    throw RecorderError{"SessionReplayer: cannot open record for session " +
                        std::to_string(id)};
  }
  std::uint8_t header[kFileHeaderBytes];
  in_.read(reinterpret_cast<char*>(header), sizeof(header));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(header)) ||
      header[0] != static_cast<std::uint8_t>(kRecordMagic[0]) ||
      header[1] != static_cast<std::uint8_t>(kRecordMagic[1]) ||
      header[2] != static_cast<std::uint8_t>(kRecordMagic[2]) ||
      header[3] != static_cast<std::uint8_t>(kRecordMagic[3]) ||
      get_u32(header + 4) != kRecordFileVersion || get_u32(header + 8) != id) {
    throw RecorderError{"SessionReplayer: bad record header for session " +
                        std::to_string(id)};
  }
}

bool SessionReplayer::next(std::vector<std::uint8_t>& frame, std::uint16_t& n_codes) {
  if (done_) return false;
  std::uint8_t header[kRecordHeaderBytes];
  in_.read(reinterpret_cast<char*>(header), sizeof(header));
  if (in_.gcount() == 0) {
    done_ = true;  // clean end-of-stream
    return false;
  }
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    truncated_ = true;  // torn record header at the tail
    done_ = true;
    return false;
  }
  // The checksum covers only the payload, so the header must agree with
  // the one frame it describes: the wire size of a frame of n_codes codes,
  // and a zero reserved field.
  const std::uint32_t length = get_u32(header + 0);
  const std::uint16_t codes = get_u16(header + 4);
  if (codes == 0 || codes > core::kMaxSamplesPerFrame || get_u16(header + 6) != 0 ||
      length != core::frame_wire_bytes(codes)) {
    truncated_ = true;  // implausible header: corrupt tail
    done_ = true;
    return false;
  }
  frame.resize(length);
  in_.read(reinterpret_cast<char*>(frame.data()), length);
  if (in_.gcount() != static_cast<std::streamsize>(length)) {
    truncated_ = true;  // torn payload
    done_ = true;
    return false;
  }
  // The frame's own sample count (its last header byte) must be n_codes.
  if (checkpoint_fnv1a(frame.data(), frame.size()) != get_u64(header + 8) ||
      frame[core::kFrameHeaderBytes - 1] != codes) {
    truncated_ = true;  // corrupt record — stop, never hand out wrong bytes
    done_ = true;
    return false;
  }
  n_codes = codes;
  ++frames_read_;
  codes_read_ += n_codes;
  return true;
}

SessionReplayer::Totals SessionReplayer::scan(const std::string& dir,
                                              std::uint32_t id) {
  SessionReplayer replayer{dir, id};
  Totals totals;
  std::vector<std::uint8_t> frame;
  std::uint16_t n_codes = 0;
  while (replayer.next(frame, n_codes)) {
    ++totals.frames;
    totals.codes += n_codes;
    totals.bytes += frame.size();
  }
  totals.torn = replayer.truncated();
  return totals;
}

std::vector<std::uint32_t> SessionReplayer::list_sessions(const std::string& dir) {
  std::vector<std::uint32_t> ids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator{dir, ec}) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view prefix = "session_";
    constexpr std::string_view suffix = ".rec";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    ids.push_back(static_cast<std::uint32_t>(std::stoul(digits)));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<RecordIndex> read_record_index(const std::string& dir) {
  const std::string path = SessionRecorder::index_file(dir);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  const auto blob = read_file_bytes(path);
  CheckpointReader in{blob};
  in.require_version(kRecordIndexVersion);
  in.section("gateway_record_index");
  RecordIndex index;
  index.meta.base_seed = in.u64();
  index.meta.sessions = in.u64();
  index.meta.frames_per_step = in.u64();
  index.meta.duration_s = in.f64();
  index.sessions.resize(in.size());
  for (auto& s : index.sessions) {
    s.id = in.u32();
    s.frames = in.u64();
    s.codes = in.u64();
    s.bytes = in.u64();
  }
  in.expect_end();
  return index;
}

}  // namespace tono::gateway
