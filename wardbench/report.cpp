// report.cpp — span store, percentiles and the result record.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"

namespace wardbench {
namespace {

struct ThreadSpans {
  std::uint64_t thread_index{0};
  std::uint64_t next{0};
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  ///< ids of the spans open on this thread
};

std::mutex g_threads_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by g_threads_mutex

ThreadSpans& this_thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard lock{g_threads_mutex};
    g_threads.push_back(std::make_unique<ThreadSpans>());
    mine = g_threads.back().get();
    mine->thread_index = g_threads.size();
    mine->spans.reserve(1 << 14);
  }
  return *mine;
}

std::uint64_t next_id(ThreadSpans& t) { return (t.thread_index << 40) | ++t.next; }

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t items) {
  if (!on_) return;
  ThreadSpans& t = this_thread_spans();
  const std::uint64_t parent = t.open.empty() ? 0 : t.open.back();
  t.spans.push_back(Span{next_id(t), parent, name, start_ns, end_ns, items});
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard lock{g_threads_mutex};
  std::vector<Span> all;
  for (const auto& t : g_threads) all.insert(all.end(), t->spans.begin(), t->spans.end());
  return all;
}

Scope::Scope(const char* name, std::uint64_t items) : name_(name), items_(items) {
  if (!Tracer::global().on()) return;
  ThreadSpans& t = this_thread_spans();
  id_ = next_id(t);
  parent_ = t.open.empty() ? 0 : t.open.back();
  t.open.push_back(id_);
  start_ns_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  ThreadSpans& t = this_thread_spans();
  t.open.pop_back();
  t.spans.push_back(Span{id_, parent_, name_, start_ns_, end, items_});
}

std::map<std::string, LayerTotals> aggregate(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans) {
    LayerTotals& l = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const auto it = child_ns.find(s.id);
    l.spans += 1;
    l.items += s.items;
    l.total_ns += dur;
    l.self_ns += dur - (it == child_ns.end() ? 0.0 : it->second);
  }
  return out;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out{path, std::ios::trunc};
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << (s.end_ns - s.start_ns)
        << ",\"items\":" << s.items << "}\n";
  }
  out.flush();
  return out.good();
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

void Result::session_failed(std::uint32_t id, const std::string& why) {
  ++failed;
  ++sessions_failed;
  problems.push_back("session " + std::to_string(id) + ": " + why);
}

void Result::operation_failed(const std::string& why) {
  ++failed;
  problems.push_back(why);
}

void Result::put(std::string name, double value, std::string unit, std::size_t samples) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

const Metric* Result::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double percentile(std::vector<double> values, double p, const char* what) {
  if (values.empty()) throw std::runtime_error{std::string{what} + ": no samples"};
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t above = values.size() - 1 - lo;
  if (above < 10) {
    throw std::runtime_error{std::string{what} + ": only " + std::to_string(above) +
                             " of " + std::to_string(values.size()) +
                             " samples above the percentile (need 10)"};
  }
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

void put_percentile(Result& result, const std::string& name,
                    const std::vector<double>& values, double p, const std::string& unit,
                    bool mini) {
  try {
    result.put(name, percentile(values, p, name.c_str()), unit, values.size());
  } catch (const std::runtime_error&) {
    if (!mini) throw;
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t fnv_codes(std::uint64_t h, const std::int16_t* codes, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::uint16_t>(codes[i]);
    h = (h ^ (u & 0xFFu)) * 0x100000001b3ull;
    h = (h ^ (u >> 8)) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace wardbench
