#include "src/core/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace tono::core {

SweepRunner::SweepRunner(SweepConfig config)
    : config_(std::move(config)),
      threads_(config_.threads != 0
                   ? config_.threads
                   : std::max<std::size_t>(std::thread::hardware_concurrency(), 1)) {
  auto& reg = metrics::Registry::global();
  runs_metric_ = &reg.counter(metrics::names::kSweepRuns);
  trials_metric_ = &reg.counter(metrics::names::kSweepTrials);
  static constexpr double kStrandBounds[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                                             64.0, 128.0, 256.0, 1024.0};
  trials_per_strand_ = &reg.histogram(metrics::names::kSweepTrialsPerStrand, kStrandBounds);
  run_wall_ = &reg.timer(metrics::names::kSweepRunWall);
}

Rng SweepRunner::trial_rng(std::size_t trial_index) const {
  // Re-derived from scratch on every call: the chain touches no shared
  // mutable state, so concurrent calls from different strands are safe and
  // the stream depends only on (base_seed, stream_name, trial_index).
  return Rng{config_.base_seed}
      .fork_named(config_.stream_name)
      .fork(static_cast<std::uint64_t>(trial_index));
}

std::uint64_t SweepRunner::trial_seed(std::size_t trial_index) const {
  return trial_rng(trial_index).next_u64();
}

void SweepRunner::run_indexed_(std::size_t n,
                               const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  runs_metric_->add(1);
  trials_metric_->add(n);
  metrics::TraceSpan span{*run_wall_};
  std::vector<std::exception_ptr> errors(n);
  // Each strand pulls the next unclaimed trial index. The claim order is
  // nondeterministic but harmless: trial i's randomness and result slot
  // depend only on i. With one strand this is the serial reference loop.
  std::atomic<std::size_t> next{0};
  const auto strand = [&] {
    std::size_t claimed = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      ++claimed;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    trials_per_strand_->observe(static_cast<double>(claimed));
  };
  {
    // strands − 1 threads plus the caller. jthreads join on scope exit, so a
    // failed spawn still joins the strands already started before it throws.
    const std::size_t strands = std::min(threads_, n);
    std::vector<std::jthread> helpers;
    helpers.reserve(strands - 1);
    for (std::size_t s = 1; s < strands; ++s) helpers.emplace_back(strand);
    strand();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace tono::core
