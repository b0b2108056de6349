#include "src/fleet/ward_aggregator.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "src/common/checkpoint.hpp"

namespace tono::fleet {
namespace {

/// JSON string escape (labels and notes are simulator-generated, but a
/// quarantine reason carries arbitrary exception text). Control characters
/// below 0x20 without a shorthand become \u00XX — dropping them, as this
/// once did, silently corrupts quarantine reasons in snapshots.
std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u >= 0x20) {
          out += c;
        } else {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xF];
        }
      }
    }
  }
  return out;
}

}  // namespace

std::string to_string(WardAlarmLevel level) {
  switch (level) {
    case WardAlarmLevel::kNotice: return "notice";
    case WardAlarmLevel::kUrgent: return "urgent";
    case WardAlarmLevel::kCritical: return "critical";
  }
  return "unknown";
}

WardAggregator::WardAggregator(WardConfig config) : config_(config) {
  auto& reg = metrics::Registry::global();
  codes_metric_ = &reg.counter(metrics::names::kWardCodesConsumed);
  events_metric_ = &reg.counter(metrics::names::kWardEventsConsumed);
  drops_metric_ = &reg.counter(metrics::names::kFleetRingDrops);
  blocks_metric_ = &reg.counter(metrics::names::kFleetRingBlocks);
  escalations_metric_ = &reg.counter(metrics::names::kWardEscalations);
  alarms_active_gauge_ = &reg.gauge(metrics::names::kWardAlarmsActive);
}

void WardAggregator::attach(PatientSession& session, std::string label) {
  WardSessionState state;
  state.id = session.id();
  state.label = label.empty() ? "session-" + std::to_string(session.id())
                              : std::move(label);
  sessions_.push_back(std::move(state));
  entries_.push_back(Entry{.codes = &session.codes(),
                           .events = &session.events(),
                           .output_rate_hz = session.output_rate_hz(),
                           .code_log = {}});
}

void WardAggregator::reattach(PatientSession& session) {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i].id != session.id()) continue;
    entries_[i].codes = &session.codes();
    entries_[i].events = &session.events();
    entries_[i].output_rate_hz = session.output_rate_hz();
    return;
  }
  throw std::out_of_range{"WardAggregator::reattach: unknown session id"};
}

void WardAggregator::set_lifecycle(std::uint32_t session_id, SessionState state,
                                   std::string note) {
  for (auto& s : sessions_) {
    if (s.id == session_id) {
      if (s.lifecycle == SessionState::kRecovering && state == SessionState::kRunning) {
        // A completed readmission; the stale quarantine reason comes off the
        // snapshot (the fault log keeps the history).
        ++s.recoveries;
        ++recoveries_;
        s.note.clear();
      }
      if (state == SessionState::kRetired && s.lifecycle != SessionState::kRetired) {
        ++retired_;
      }
      s.lifecycle = state;
      if (!note.empty()) s.note = std::move(note);
      return;
    }
  }
}

void WardAggregator::note_fault(std::uint32_t session_id, std::string entry) {
  for (auto& s : sessions_) {
    if (s.id == session_id) {
      s.fault_log.push_back(std::move(entry));
      return;
    }
  }
}

const WardSessionState* WardAggregator::session(std::uint32_t session_id) const {
  for (const auto& s : sessions_) {
    if (s.id == session_id) return &s;
  }
  return nullptr;
}

std::size_t WardAggregator::drain_once() {
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    WardSessionState& state = sessions_[i];

    code_scratch_.clear();
    const std::size_t n_codes = entry.codes->pop_all(code_scratch_);
    if (n_codes > 0) {
      state.codes += n_codes;
      state.last_code = code_scratch_.back();
      if (config_.record_codes) {
        entry.code_log.insert(entry.code_log.end(), code_scratch_.begin(),
                              code_scratch_.end());
      }
      codes_consumed_ += n_codes;
      codes_metric_->add(n_codes);
    }

    event_scratch_.clear();
    const std::size_t n_events = entry.events->pop_all(event_scratch_);
    for (const auto& e : event_scratch_) consume_event_(state, e);
    if (n_events > 0) {
      state.events += n_events;
      events_consumed_ += n_events;
      events_metric_->add(n_events);
    }

    // Mirror ring-loss accounting; counters in the registry advance by the
    // delta since the last drain.
    const std::uint64_t code_drops = entry.codes->dropped();
    const std::uint64_t event_drops = entry.events->dropped();
    const std::uint64_t blocks =
        entry.codes->block_events() + entry.events->block_events();
    drops_metric_->add((code_drops - state.code_drops) +
                       (event_drops - state.event_drops));
    blocks_metric_->add(blocks - state.block_events);
    state.code_drops = code_drops;
    state.event_drops = event_drops;
    state.block_events = blocks;

    consumed += n_codes + n_events;
  }
  return consumed;
}

void WardAggregator::settle() {
  run_escalations_();
  alarms_active_gauge_->set(static_cast<double>(alarms_active()));
}

void WardAggregator::consume_event_(WardSessionState& state, const FleetEvent& event) {
  switch (event.kind) {
    case FleetEventKind::kBeat:
      ++state.beats;
      state.last_systolic_mmhg = event.value_a;
      state.last_diastolic_mmhg = event.value_b;
      state.last_beat_s = event.time_s;
      break;
    case FleetEventKind::kQuality:
      state.last_sqi = event.value_a;
      state.sqi_usable = event.flag;
      break;
    case FleetEventKind::kAlarm:
      if (event.flag) {
        WardAlarm alarm{.session_id = event.session_id,
                        .kind = event.alarm_kind,
                        .level = WardAlarmLevel::kNotice,
                        .raised_s = event.time_s,
                        .value = event.value_a,
                        .active = true};
        // Multi-vital deterioration: enough distinct kinds active at once
        // on one patient escalates straight to critical.
        std::size_t active_kinds = 1;
        for (const auto& a : alarm_queue_) {
          if (a.active && a.session_id == event.session_id && a.kind != event.alarm_kind) {
            ++active_kinds;
          }
        }
        if (active_kinds >= config_.critical_active_kinds) {
          alarm.level = WardAlarmLevel::kCritical;
          ++escalations_;
          escalations_metric_->add(1);
        }
        alarm_queue_.push_back(alarm);
        ++state.alarms_active;
      } else {
        for (auto it = alarm_queue_.rbegin(); it != alarm_queue_.rend(); ++it) {
          if (it->active && it->session_id == event.session_id &&
              it->kind == event.alarm_kind) {
            it->active = false;
            break;
          }
        }
        if (state.alarms_active > 0) --state.alarms_active;
      }
      break;
  }
}

void WardAggregator::run_escalations_() {
  for (auto& alarm : alarm_queue_) {
    if (!alarm.active || alarm.level != WardAlarmLevel::kNotice) continue;
    // Session stream time inferred from consumed codes — the aggregator
    // never reads session objects while workers may be stepping them.
    std::size_t index = 0;
    while (index < sessions_.size() && sessions_[index].id != alarm.session_id) ++index;
    if (index == sessions_.size()) continue;
    const double stream_s =
        static_cast<double>(sessions_[index].codes) / entries_[index].output_rate_hz;
    if (stream_s - alarm.raised_s >= config_.escalate_after_s) {
      alarm.level = WardAlarmLevel::kUrgent;
      ++escalations_;
      escalations_metric_->add(1);
    }
  }
}

std::size_t WardAggregator::alarms_active() const noexcept {
  std::size_t n = 0;
  for (const auto& a : alarm_queue_) {
    if (a.active) ++n;
  }
  return n;
}

std::uint64_t WardAggregator::total_drops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.code_drops + s.event_drops;
  return n;
}

std::uint64_t WardAggregator::event_drops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.event_drops;
  return n;
}

std::uint64_t WardAggregator::total_blocks() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.block_events;
  return n;
}

WardSnapshot WardAggregator::snapshot() const {
  WardSnapshot snap;
  snap.sessions = sessions_;
  snap.codes_consumed = codes_consumed_;
  snap.events_consumed = events_consumed_;
  snap.alarms_active = alarms_active();
  snap.alarms_total = alarm_queue_.size();
  snap.escalations = escalations_;
  snap.drops = total_drops();
  snap.event_drops = event_drops();
  snap.recoveries = recoveries_;
  snap.retired = retired_;
  return snap;
}

WardSnapshot merge_snapshots(std::vector<WardSnapshot> parts) {
  WardSnapshot out;
  for (auto& part : parts) {
    out.sessions.insert(out.sessions.end(),
                        std::make_move_iterator(part.sessions.begin()),
                        std::make_move_iterator(part.sessions.end()));
    out.codes_consumed += part.codes_consumed;
    out.events_consumed += part.events_consumed;
    out.alarms_active += part.alarms_active;
    out.alarms_total += part.alarms_total;
    out.escalations += part.escalations;
    out.drops += part.drops;
    out.event_drops += part.event_drops;
    out.recoveries += part.recoveries;
    out.retired += part.retired;
  }
  // Global session-id order: round-robin shard assignment interleaves ids,
  // so a merged snapshot re-sorts to match the equivalent single-ward run.
  std::sort(out.sessions.begin(), out.sessions.end(),
            [](const WardSessionState& a, const WardSessionState& b) {
              return a.id < b.id;
            });
  return out;
}

const std::vector<std::int16_t>& WardAggregator::recorded_codes(
    std::uint32_t session_id) const {
  if (!config_.record_codes) {
    throw std::logic_error{"WardAggregator: code recording is disabled"};
  }
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i].id == session_id) return entries_[i].code_log;
  }
  throw std::out_of_range{"WardAggregator: unknown session id"};
}

void WardAggregator::export_jsonl(std::ostream& os) const {
  fleet::export_jsonl(snapshot(), os);
}

namespace {

void serialize_session_state(CheckpointWriter& out, const WardSessionState& s) {
  out.u32(s.id);
  out.str(s.label);
  out.u8(static_cast<std::uint8_t>(s.lifecycle));
  out.str(s.note);
  out.u64(s.codes);
  out.u64(s.events);
  out.u64(s.beats);
  out.i64(s.last_code);
  out.f64(s.last_systolic_mmhg);
  out.f64(s.last_diastolic_mmhg);
  out.f64(s.last_beat_s);
  out.f64(s.last_sqi);
  out.boolean(s.sqi_usable);
  out.u64(s.code_drops);
  out.u64(s.event_drops);
  out.u64(s.block_events);
  out.size(s.alarms_active);
  out.u64(s.recoveries);
  out.size(s.fault_log.size());
  for (const auto& line : s.fault_log) out.str(line);
}

void restore_session_state(CheckpointReader& in, WardSessionState& s) {
  const std::uint32_t id = in.u32();
  if (id != s.id) {
    throw CheckpointError{"ward checkpoint session id " + std::to_string(id) +
                          " does not match attached id " + std::to_string(s.id)};
  }
  s.label = in.str();
  const std::uint8_t lifecycle = in.u8();
  if (lifecycle > static_cast<std::uint8_t>(SessionState::kRetired)) {
    throw CheckpointError{"ward checkpoint has unknown lifecycle state"};
  }
  s.lifecycle = static_cast<SessionState>(lifecycle);
  s.note = in.str();
  s.codes = in.u64();
  s.events = in.u64();
  s.beats = in.u64();
  s.last_code = static_cast<std::int16_t>(in.i64());
  s.last_systolic_mmhg = in.f64();
  s.last_diastolic_mmhg = in.f64();
  s.last_beat_s = in.f64();
  s.last_sqi = in.f64();
  s.sqi_usable = in.boolean();
  s.code_drops = in.u64();
  s.event_drops = in.u64();
  s.block_events = in.u64();
  s.alarms_active = in.size();
  s.recoveries = in.u64();
  s.fault_log.resize(in.size());
  for (auto& line : s.fault_log) line = in.str();
}

}  // namespace

void WardAggregator::serialize(CheckpointWriter& out) const {
  out.section("ward_aggregator");
  out.size(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    serialize_session_state(out, sessions_[i]);
    out.boolean(config_.record_codes);
    if (config_.record_codes) {
      out.size(entries_[i].code_log.size());
      for (std::int16_t code : entries_[i].code_log) out.i64(code);
    }
  }
  out.size(alarm_queue_.size());
  for (const auto& a : alarm_queue_) {
    out.u32(a.session_id);
    out.u8(static_cast<std::uint8_t>(a.kind));
    out.u8(static_cast<std::uint8_t>(a.level));
    out.f64(a.raised_s);
    out.f64(a.value);
    out.boolean(a.active);
  }
  out.u64(escalations_);
  out.u64(recoveries_);
  out.u64(retired_);
  out.u64(codes_consumed_);
  out.u64(events_consumed_);
}

void WardAggregator::restore(CheckpointReader& in) {
  in.section("ward_aggregator");
  if (in.size() != sessions_.size()) {
    throw CheckpointError{"ward checkpoint session count mismatch"};
  }
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    restore_session_state(in, sessions_[i]);
    if (in.boolean() != config_.record_codes) {
      throw CheckpointError{"ward checkpoint record_codes mismatch"};
    }
    if (config_.record_codes) {
      entries_[i].code_log.resize(in.size());
      for (auto& code : entries_[i].code_log) {
        code = static_cast<std::int16_t>(in.i64());
      }
    }
  }
  alarm_queue_.resize(in.size());
  for (auto& a : alarm_queue_) {
    a.session_id = in.u32();
    const std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(core::AlarmKind::kRateHigh)) {
      throw CheckpointError{"ward checkpoint has unknown alarm kind"};
    }
    a.kind = static_cast<core::AlarmKind>(kind);
    const std::uint8_t level = in.u8();
    if (level > static_cast<std::uint8_t>(WardAlarmLevel::kCritical)) {
      throw CheckpointError{"ward checkpoint has unknown alarm level"};
    }
    a.level = static_cast<WardAlarmLevel>(level);
    a.raised_s = in.f64();
    a.value = in.f64();
    a.active = in.boolean();
  }
  escalations_ = in.u64();
  recoveries_ = in.u64();
  retired_ = in.u64();
  codes_consumed_ = in.u64();
  events_consumed_ = in.u64();
}

void export_jsonl(const WardSnapshot& snapshot, std::ostream& os) {
  for (const auto& s : snapshot.sessions) {
    os << "{\"type\":\"session\",\"id\":" << s.id << ",\"label\":\""
       << json_escape(s.label) << "\",\"state\":\"" << to_string(s.lifecycle)
       << "\",\"codes\":" << s.codes << ",\"beats\":" << s.beats
       << ",\"systolic_mmhg\":" << s.last_systolic_mmhg
       << ",\"diastolic_mmhg\":" << s.last_diastolic_mmhg << ",\"sqi\":" << s.last_sqi
       << ",\"sqi_usable\":" << (s.sqi_usable ? "true" : "false")
       << ",\"alarms_active\":" << s.alarms_active << ",\"code_drops\":" << s.code_drops
       << ",\"event_drops\":" << s.event_drops << ",\"blocks\":" << s.block_events;
    // Fault-plan fields only appear once the machinery engaged, keeping
    // clean-run snapshots byte-identical to pre-fault-plan builds.
    if (s.recoveries > 0) os << ",\"recoveries\":" << s.recoveries;
    if (!s.fault_log.empty()) {
      os << ",\"fault_log\":[";
      for (std::size_t i = 0; i < s.fault_log.size(); ++i) {
        if (i > 0) os << ',';
        os << '"' << json_escape(s.fault_log[i]) << '"';
      }
      os << ']';
    }
    if (!s.note.empty()) os << ",\"note\":\"" << json_escape(s.note) << "\"";
    os << "}\n";
  }
  os << "{\"type\":\"ward\",\"sessions\":" << snapshot.sessions.size()
     << ",\"codes_consumed\":" << snapshot.codes_consumed
     << ",\"events_consumed\":" << snapshot.events_consumed
     << ",\"alarms_active\":" << snapshot.alarms_active
     << ",\"alarms_total\":" << snapshot.alarms_total
     << ",\"escalations\":" << snapshot.escalations
     << ",\"drops\":" << snapshot.drops
     << ",\"event_drops\":" << snapshot.event_drops;
  if (snapshot.recoveries > 0 || snapshot.retired > 0) {
    os << ",\"recoveries\":" << snapshot.recoveries
       << ",\"retired\":" << snapshot.retired;
  }
  os << "}\n";
}

}  // namespace tono::fleet
