// ring_buffer.hpp — bounded single-threaded ring buffer with explicit
// backpressure.
//
// The fleet serving layer (src/fleet/) multiplexes many patient sessions;
// each session is a producer of 12-bit codes and beat/alarm events, drained
// by the ward aggregator at the batch barrier. A shard is one thread: the
// session pushes and the ward pops on that same thread, so the ring is plain
// single-threaded code — a power-of-two slot vector and two cursors, no
// atomics and no locks. It must not be shared across threads.
//
// Backpressure policies (chosen per push, counted by the ring):
//   * kBlock      — lossless. A full ring doubles its slots (FIFO order
//                   kept) and counts one block event; nothing is ever lost
//                   and no push ever waits. Use for alarms, where a dropped
//                   event is a clinical failure (see docs/FLEET.md).
//   * kDropOldest — producer discards the oldest unconsumed item to make
//                   room. Bounded staleness for high-rate telemetry: the
//                   newest data always gets in, and every loss is counted
//                   (drops == produced − consumed − still queued).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/checkpoint.hpp"

namespace tono {

enum class BackpressurePolicy {
  kBlock,       ///< grow when full; lossless
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
    slots_.resize(cap);
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Enqueue; false when the ring is full.
  bool try_push(const T& item) noexcept {
    if (size() == capacity()) return false;
    slots_[head_++ & mask_()] = item;
    ++pushed_;
    return true;
  }

  /// Dequeue; false when the ring is empty.
  bool try_pop(T& out) noexcept {
    if (empty()) return false;
    out = slots_[tail_++ & mask_()];
    ++popped_;
    return true;
  }

  /// Enqueue under the given policy. kBlock doubles a full ring (one block
  /// event) so the push always lands; kDropOldest reclaims the oldest item.
  /// Returns the number of items dropped to admit this one (always 0 under
  /// kBlock).
  std::size_t push(const T& item, BackpressurePolicy policy) {
    if (try_push(item)) return 0;
    if (policy == BackpressurePolicy::kBlock) {
      ++blocked_;
      grow_();
      (void)try_push(item);
      return 0;
    }
    T discarded;
    (void)try_pop(discarded);
    ++dropped_;
    (void)try_push(item);
    return 1;
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

  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(head_ - tail_);
  }

  // Lifetime accounting.
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  [[nodiscard]] std::uint64_t popped() const noexcept { return popped_; }
  /// Items lost to the kDropOldest policy. Note a dropped item counts in
  /// both pushed() and popped() (the producer consumed it to reclaim the
  /// slot), so pushed − popped == size always holds and drops are accounted
  /// separately.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Times a kBlock push found the ring full and grew it.
  [[nodiscard]] std::uint64_t block_events() const noexcept { return blocked_; }

  /// Checkpointing, accounting only. Sessions checkpoint at batch barriers,
  /// where the ward has drained every ring — so a ring's restorable state is
  /// exactly its lifetime counters (the ward mirrors them as absolute values
  /// and meters deltas; fresh-zero counters after a restore would underflow
  /// the mirror). Serialize requires the ring empty; restore rejects
  /// counters that an empty ring cannot have reached.
  void serialize_accounting(CheckpointWriter& out) const {
    out.section("ring");
    out.boolean(empty());
    out.u64(pushed_);
    out.u64(popped_);
    out.u64(dropped_);
    out.u64(blocked_);
  }
  void restore_accounting(CheckpointReader& in) {
    in.section("ring");
    if (!in.boolean()) {
      throw CheckpointError{
          "ring checkpoint was taken non-quiescent (ring not empty)"};
    }
    const std::uint64_t pushed = in.u64();
    const std::uint64_t popped = in.u64();
    const std::uint64_t dropped = in.u64();
    const std::uint64_t blocked = in.u64();
    if (pushed != popped) {
      throw CheckpointError{"ring checkpoint: pushed != popped on an empty ring"};
    }
    if (dropped > popped) {
      throw CheckpointError{"ring checkpoint: more drops than pops"};
    }
    if (blocked > pushed) {
      throw CheckpointError{"ring checkpoint: more block events than pushes"};
    }
    pushed_ = pushed;
    popped_ = popped;
    dropped_ = dropped;
    blocked_ = blocked;
  }

 private:
  [[nodiscard]] std::uint64_t mask_() const noexcept { return slots_.size() - 1; }

  /// Doubles the slot vector, moving the queued items to the front in FIFO
  /// order.
  void grow_() {
    std::vector<T> bigger(slots_.size() * 2);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      bigger[i] = std::move(slots_[(tail_ + i) & mask_()]);
    }
    slots_ = std::move(bigger);
    tail_ = 0;
    head_ = n;
  }

  std::vector<T> slots_;
  std::uint64_t head_{0};  ///< enqueue cursor
  std::uint64_t tail_{0};  ///< dequeue cursor
  std::uint64_t pushed_{0};
  std::uint64_t popped_{0};
  std::uint64_t dropped_{0};
  std::uint64_t blocked_{0};
};

}  // namespace tono
