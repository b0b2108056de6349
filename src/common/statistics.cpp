#include "src/common/statistics.hpp"

#include <algorithm>
#include <cmath>

namespace tono {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  sum_sq_ += x * x;
}

void RunningStats::add(std::span<const double> xs) noexcept {
  for (double x : xs) add(x);
}

double RunningStats::variance() const noexcept {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::rms() const noexcept {
  return n_ > 0 ? std::sqrt(sum_sq_ / static_cast<double>(n_)) : 0.0;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  sum_sq_ += other.sum_sq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double mean(std::span<const double> xs) noexcept {
  RunningStats s;
  s.add(xs);
  return s.mean();
}

double variance(std::span<const double> xs) noexcept {
  RunningStats s;
  s.add(xs);
  return s.variance();
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double rms(std::span<const double> xs) noexcept {
  RunningStats s;
  s.add(xs);
  return s.rms();
}

double min_value(std::span<const double> xs) noexcept {
  RunningStats s;
  s.add(xs);
  return s.min();
}

double max_value(std::span<const double> xs) noexcept {
  RunningStats s;
  s.add(xs);
  return s.max();
}

double peak_to_peak(std::span<const double> xs) noexcept {
  RunningStats s;
  s.add(xs);
  return s.max() - s.min();
}

namespace {

/// Rank of the q-th percentile among n sorted values.
double percentile_rank(double q, std::size_t n) {
  return std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
}

/// The q-th percentile of `values`, a copy of the data whose elements from
/// index `from` on are exactly its largest n − from values, in any order
/// (all of them for from = 0), with from at or below q's rank. Selects the
/// two order statistics a full sort would put at ranks lo and lo + 1: the
/// first by nth_element, then the least of the partition above it.
double select_percentile(std::vector<double>& values, std::size_t from, double q) {
  const double rank = percentile_rank(q, values.size());
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const auto nth = values.begin() + static_cast<long>(lo);
  std::nth_element(values.begin() + static_cast<long>(from), nth, values.end());
  const double at_lo = *nth;
  const double at_hi = lo + 1 < values.size() ? *std::min_element(nth + 1, values.end()) : at_lo;
  return at_lo + frac * (at_hi - at_lo);
}

}  // namespace

double percentile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> values(xs.begin(), xs.end());
  return select_percentile(values, 0, q);
}

std::pair<double, double> percentiles(std::span<const double> xs, double qa, double qb) {
  if (xs.empty()) return {0.0, 0.0};
  if (qb < qa) {
    const auto [b, a] = percentiles(xs, qb, qa);
    return {a, b};
  }
  std::vector<double> values(xs.begin(), xs.end());
  const double a = select_percentile(values, 0, qa);
  // Everything from qa's rank on is now the top of the data: qb's selection
  // only partitions that.
  const auto from = static_cast<std::size_t>(percentile_rank(qa, values.size()));
  return {a, select_percentile(values, from, qb)};
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double pearson_correlation(std::span<const double> a, std::span<const double> b) noexcept {
  if (a.size() != b.size() || a.empty()) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0;
  double da = 0.0;
  double db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double xa = a[i] - ma;
    const double xb = b[i] - mb;
    num += xa * xb;
    da += xa * xa;
    db += xb * xb;
  }
  if (da == 0.0 || db == 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

double rmse(std::span<const double> a, std::span<const double> b) noexcept {
  if (a.size() != b.size() || a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

double mae(std::span<const double> a, std::span<const double> b) noexcept {
  if (a.size() != b.size() || a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

}  // namespace tono
