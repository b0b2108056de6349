// ring_buffer.hpp — bounded lock-free ring buffer with explicit backpressure.
//
// The fleet serving layer (src/fleet/) multiplexes many patient sessions;
// each session is a producer of 12-bit codes and beat/alarm events, drained
// by the ward aggregator on another thread. The contract is single producer /
// single consumer per ring, but the *drop-oldest* backpressure policy makes
// the producer reclaim the oldest slot when the ring is full — so the
// dequeue cursor is contended by two threads. The implementation is
// therefore Vyukov's bounded queue (per-slot sequence numbers, CAS'd
// cursors): every payload access is ordered by an acquire/release on the
// slot's sequence, which keeps the reclaim path race-free (and TSan-clean,
// exercised by tests/test_ring_buffer.cpp under the CI TSan job) without a
// mutex anywhere.
//
// Backpressure policies (chosen per push, counted by the ring):
//   * kBlock      — producer spin-yields until the consumer frees a slot.
//                   Nothing is ever lost; use for alarms, where a dropped
//                   event is a clinical failure (see docs/FLEET.md).
//   * kDropOldest — producer discards the oldest unconsumed item to make
//                   room. Bounded staleness for high-rate telemetry: the
//                   newest data always gets in, and every loss is counted
//                   (drops == produced − consumed − still queued).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/checkpoint.hpp"

namespace tono {

enum class BackpressurePolicy {
  kBlock,       ///< wait for space; lossless
  kDropOldest,  ///< overwrite the oldest unconsumed item; counted
};

template <typename T>
class RingBuffer {
  static_assert(std::is_nothrow_copy_assignable_v<T>,
                "ring payloads must copy without throwing (slots are reused)");

 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit RingBuffer(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Non-blocking enqueue; false when the ring is full.
  bool try_push(const T& item) noexcept {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          slot.value = item;
          slot.seq.store(pos + 1, std::memory_order_release);
          pushed_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      } else if (dif < 0) {
        return false;  // the slot still holds an unconsumed item
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Non-blocking dequeue; false when the ring is empty.
  bool try_pop(T& out) noexcept {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          out = slot.value;
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          popped_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      } else if (dif < 0) {
        return false;  // nothing committed at the cursor yet
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Enqueue under the given policy. kBlock spin-yields until space frees
  /// up, so the consumer must be live or the ring must have room for every
  /// push before the next drain (the fleet scheduler sizes rings to a batch);
  /// kDropOldest reclaims the oldest item. Returns the number of items
  /// dropped to admit this one (always 0 under kBlock).
  std::size_t push(const T& item, BackpressurePolicy policy) noexcept {
    if (try_push(item)) return 0;
    if (policy == BackpressurePolicy::kBlock) {
      blocked_.fetch_add(1, std::memory_order_relaxed);
      while (!try_push(item)) std::this_thread::yield();
      return 0;
    }
    std::size_t dropped = 0;
    for (;;) {
      T discarded;
      if (try_pop(discarded)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        ++dropped;
      }
      if (try_push(item)) return dropped;
    }
  }

  /// Drains up to `max_items` into `out` (appending); returns count popped.
  std::size_t pop_all(std::vector<T>& out,
                      std::size_t max_items = static_cast<std::size_t>(-1)) {
    std::size_t n = 0;
    T item;
    while (n < max_items && try_pop(item)) {
      out.push_back(item);
      ++n;
    }
    return n;
  }

  [[nodiscard]] bool empty() const noexcept {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }
  /// Instantaneous occupancy (racy under concurrency; exact when quiescent).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    return h > t ? static_cast<std::size_t>(h - t) : 0;
  }

  // Accounting (relaxed counters; exact when the ring is quiescent).
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t popped() const noexcept {
    return popped_.load(std::memory_order_relaxed);
  }
  /// Items lost to the kDropOldest policy. Note a dropped item counts in
  /// both pushed() and popped() (the producer consumed it to reclaim the
  /// slot), so pushed − popped == size always holds when quiescent and
  /// drops are accounted separately.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Times a kBlock push found the ring full and had to wait.
  [[nodiscard]] std::uint64_t block_events() const noexcept {
    return blocked_.load(std::memory_order_relaxed);
  }

  /// Checkpointing, accounting only. Sessions checkpoint at batch barriers,
  /// where the ward has drained every ring — so a ring's restorable state is
  /// exactly its lifetime counters (the ward mirrors them as absolute values
  /// and meters deltas; fresh-zero counters after a restore would underflow
  /// the mirror). Quiescent-only: serialize requires the ring empty, restore
  /// requires it untouched (cursors at zero).
  void serialize_accounting(CheckpointWriter& out) const {
    out.section("ring");
    out.boolean(empty());
    out.u64(pushed());
    out.u64(popped());
    out.u64(dropped());
    out.u64(block_events());
  }
  void restore_accounting(CheckpointReader& in) {
    in.section("ring");
    if (!in.boolean()) {
      throw CheckpointError{
          "ring checkpoint was taken non-quiescent (ring not empty)"};
    }
    pushed_.store(in.u64(), std::memory_order_relaxed);
    popped_.store(in.u64(), std::memory_order_relaxed);
    dropped_.store(in.u64(), std::memory_order_relaxed);
    blocked_.store(in.u64(), std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::vector<Slot> slots_;
  std::size_t mask_{1};
  // Cursors on separate cache lines from each other and the slots.
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< enqueue cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< dequeue cursor
  alignas(64) std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> blocked_{0};
};

}  // namespace tono
