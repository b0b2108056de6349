// statistics.hpp — streaming and batch statistics used by metrics, tests
// and benchmark reporting.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace tono {

/// Single-pass accumulator for mean/variance/extrema (Welford's algorithm).
/// Numerically stable for long sample streams (minutes of 128 kHz data).
class RunningStats {
 public:
  void add(double x) noexcept;
  void add(std::span<const double> xs) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by n).
  [[nodiscard]] double variance() const noexcept;
  /// Sample variance (divides by n-1); 0 for n < 2.
  [[nodiscard]] double sample_variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  /// Root-mean-square of all samples added so far.
  [[nodiscard]] double rms() const noexcept;

  /// Merges another accumulator (parallel reduction support).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};       // sum of squared deviations from the mean
  double sum_sq_{0.0};   // raw sum of squares, for rms()
  double min_{0.0};
  double max_{0.0};
};

/// Batch helpers on spans. All return 0 for empty input unless noted.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;
[[nodiscard]] double variance(std::span<const double> xs) noexcept;
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;
[[nodiscard]] double rms(std::span<const double> xs) noexcept;
[[nodiscard]] double min_value(std::span<const double> xs) noexcept;
[[nodiscard]] double max_value(std::span<const double> xs) noexcept;
[[nodiscard]] double peak_to_peak(std::span<const double> xs) noexcept;

/// q-th percentile (q in [0,100]) by linear interpolation between closest
/// ranks. Copies the input and selects the two bracketing order statistics
/// (O(n)); the result is bit-identical to interpolating a sorted copy.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

/// {percentile(xs, qa), percentile(xs, qb)}, bit for bit, from one copy:
/// the second selection only partitions what lies above the first rank.
[[nodiscard]] std::pair<double, double> percentiles(std::span<const double> xs, double qa,
                                                    double qb);

/// Median (50th percentile).
[[nodiscard]] double median(std::span<const double> xs);

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0 when either series has zero variance or sizes mismatch.
[[nodiscard]] double pearson_correlation(std::span<const double> a,
                                         std::span<const double> b) noexcept;

/// Root-mean-square error between two equal-length series.
[[nodiscard]] double rmse(std::span<const double> a, std::span<const double> b) noexcept;

/// Mean absolute error between two equal-length series.
[[nodiscard]] double mae(std::span<const double> a, std::span<const double> b) noexcept;

}  // namespace tono
