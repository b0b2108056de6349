// sweep_runner.hpp — deterministic parallel Monte-Carlo / parameter sweeps.
//
// Fans independent trials across strands — plain threads started per run,
// plus the calling thread — with one hard guarantee: the results are
// bit-identical to running the same trials serially, regardless of thread
// count or scheduling. Two rules buy that determinism:
//
//   1. every trial's randomness is a fresh stream derived from
//      (base_seed, stream_name, trial_index) alone — never from a shared RNG
//      whose draw order would depend on which thread got there first;
//   2. each trial writes into its own pre-allocated result slot, so
//      completion order cannot reorder the output.
//
// Exceptions thrown by a trial are captured per-index; after the sweep the
// lowest-index failure is rethrown, which is also what a serial loop that
// fails on that trial would do (later trials having run is unobservable for
// independent trials).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/common/rng.hpp"

namespace tono::core {

struct SweepConfig {
  /// Strands per run. 0 → std::thread::hardware_concurrency(); 1 → plain
  /// serial loop on the calling thread (the reference execution).
  std::size_t threads{0};
  std::uint64_t base_seed{0x70A05EEDull};
  /// Name of the sweep's RNG stream family; two sweeps with different names
  /// draw decorrelated randomness from the same base seed.
  std::string stream_name{"sweep"};
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config = {});

  /// The deterministic RNG stream of one trial. Depends only on
  /// (base_seed, stream_name, trial_index) — independent of thread count,
  /// scheduling, and of any other trial.
  [[nodiscard]] Rng trial_rng(std::size_t trial_index) const;

  /// A deterministic 64-bit seed for one trial, with the same
  /// (base_seed, stream_name, trial_index)-only dependence as trial_rng().
  /// For trials that build seeded components (ModulatorConfig::seed,
  /// ModulatorBank lanes) rather than drawing from an Rng directly: the
  /// component re-forks its internal streams from this seed, so two trials
  /// never share draws.
  [[nodiscard]] std::uint64_t trial_seed(std::size_t trial_index) const;

  /// SweepConfig::threads with 0 resolved to the hardware thread count.
  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_; }
  [[nodiscard]] const SweepConfig& config() const noexcept { return config_; }

  /// Runs fn over trial indices [0, n_trials), returning the results in
  /// trial order. `fn` is either fn(index, rng) or fn(index); it must be
  /// safe to call concurrently on distinct trials, and must take all its
  /// randomness from the passed Rng (a shared RNG would break determinism).
  template <typename Fn>
  auto run(std::size_t n_trials, Fn&& fn) {
    using R = decltype(invoke_trial_(fn, std::size_t{0}));
    std::vector<std::optional<R>> slots(n_trials);
    run_indexed_(n_trials,
                 [&](std::size_t i) { slots[i].emplace(invoke_trial_(fn, i)); });
    std::vector<R> out;
    out.reserve(n_trials);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  /// Maps fn over `inputs`, preserving order. `fn` is fn(input, rng) or
  /// fn(input); input i uses trial_rng(i).
  template <typename T, typename Fn>
  auto map(const std::vector<T>& inputs, Fn&& fn) {
    return run(inputs.size(), [&](std::size_t i, Rng& rng) {
      if constexpr (std::is_invocable_v<Fn&, const T&, Rng&>) {
        return fn(inputs[i], rng);
      } else {
        return fn(inputs[i]);
      }
    });
  }

 private:
  template <typename Fn>
  auto invoke_trial_(Fn& fn, std::size_t i) {
    if constexpr (std::is_invocable_v<Fn&, std::size_t, Rng&>) {
      Rng rng = trial_rng(i);
      return fn(i, rng);
    } else {
      return fn(i);
    }
  }

  /// Type-erased deterministic index loop: min(threads, n) strands — the
  /// caller and strands − 1 joined threads — pull an atomic counter. Captures
  /// per-trial exceptions and rethrows the lowest-index one after all
  /// strands finish.
  void run_indexed_(std::size_t n, const std::function<void(std::size_t)>& body);

  SweepConfig config_;
  std::size_t threads_;  ///< resolved strand count, >= 1
  // Observability (resolved once at construction; updated at sweep/strand
  // granularity only, never inside a trial).
  metrics::Counter* runs_metric_;
  metrics::Counter* trials_metric_;
  metrics::Histogram* trials_per_strand_;
  metrics::Timer* run_wall_;
};

}  // namespace tono::core
