// Tests for the bounded single-threaded ring buffer
// (src/common/ring_buffer.hpp): FIFO semantics, both backpressure policies
// with exact loss accounting, and checkpoint restore validation.
#include "src/common/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace {

using tono::BackpressurePolicy;
using tono::RingBuffer;

TEST(RingBuffer, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(RingBuffer<int>{1}.capacity(), 2u);
  EXPECT_EQ(RingBuffer<int>{2}.capacity(), 2u);
  EXPECT_EQ(RingBuffer<int>{3}.capacity(), 4u);
  EXPECT_EQ(RingBuffer<int>{4096}.capacity(), 4096u);
  EXPECT_EQ(RingBuffer<int>{4097}.capacity(), 8192u);
}

TEST(RingBuffer, FifoOrderSingleThread) {
  RingBuffer<int> ring{8};
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99)) << "ring should be full";
  EXPECT_EQ(ring.size(), 8u);

  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out)) << "ring should be empty";
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, WrapAroundReusesSlots) {
  RingBuffer<int> ring{4};
  int out = -1;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_push(round * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, round * 10 + i);
    }
  }
  EXPECT_EQ(ring.pushed(), 30u);
  EXPECT_EQ(ring.popped(), 30u);
}

TEST(RingBuffer, DropOldestKeepsNewestAndCountsEveryLoss) {
  RingBuffer<int> ring{8};
  const int total = 20;
  for (int i = 0; i < total; ++i) {
    (void)ring.push(i, BackpressurePolicy::kDropOldest);
  }
  // The newest `capacity` items survive; everything older was dropped.
  std::vector<int> drained;
  ring.pop_all(drained);
  ASSERT_EQ(drained.size(), ring.capacity());
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i], total - static_cast<int>(ring.capacity()) + static_cast<int>(i));
  }
  // drops == produced − consumed-by-the-ward. (A dropped item counts in
  // both pushed and popped — the producer pops it to reclaim the slot.)
  EXPECT_EQ(ring.dropped(), static_cast<std::uint64_t>(total) - drained.size());
  EXPECT_EQ(ring.pushed(), static_cast<std::uint64_t>(total));
  EXPECT_EQ(ring.pushed() - ring.dropped(), drained.size());
  EXPECT_EQ(ring.block_events(), 0u);
}

TEST(RingBuffer, BlockPolicyIsFreeWhenSpaceExists) {
  RingBuffer<int> ring{8};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ring.push(i, BackpressurePolicy::kBlock), 0u);
  }
  EXPECT_EQ(ring.block_events(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingBuffer, PopAllHonorsMaxItems) {
  RingBuffer<int> ring{16};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(ring.pop_all(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.pop_all(out), 6u);
  EXPECT_EQ(out.size(), 10u);
}

// A full kBlock ring grows instead of waiting: the consumer is the same
// thread and only runs after the push returns, so waiting would never end.
TEST(RingBuffer, BlockPolicyGrowsInsteadOfWaiting) {
  RingBuffer<int> ring{2};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.push(i, BackpressurePolicy::kBlock), 0u);
  }
  std::vector<int> drained;
  ring.pop_all(drained);
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.block_events(), 2u) << "2 -> 4 -> 8 slots";
  EXPECT_EQ(ring.capacity(), 8u);
}

// Wrap-around exactly at capacity under drop-oldest: filling the ring costs
// nothing, and the first push past capacity reclaims exactly one slot — the
// boundary where the head cursor laps the tail for the first time.
TEST(RingBuffer, DropOldestWrapsExactlyAtCapacity) {
  RingBuffer<int> ring{8};
  const int cap = static_cast<int>(ring.capacity());
  for (int i = 0; i < cap; ++i) {
    EXPECT_EQ(ring.push(i, BackpressurePolicy::kDropOldest), 0u)
        << "push " << i << " dropped before the ring was full";
  }
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.push(cap, BackpressurePolicy::kDropOldest), 1u)
      << "first push past capacity must reclaim exactly one slot";
  EXPECT_EQ(ring.dropped(), 1u);
  // Item 0 was the casualty; 1..cap survive in order.
  std::vector<int> drained;
  ring.pop_all(drained);
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(cap));
  for (int i = 0; i < cap; ++i) EXPECT_EQ(drained[i], i + 1);
}

// A restore either round-trips exactly or throws: an empty ring's counters
// satisfy pushed == popped, dropped <= popped and block_events <= pushed.
std::vector<std::uint8_t> ring_blob(bool empty, std::uint64_t pushed,
                                    std::uint64_t popped, std::uint64_t dropped,
                                    std::uint64_t blocked) {
  tono::CheckpointWriter out;
  out.section("ring");
  out.boolean(empty);
  out.u64(pushed);
  out.u64(popped);
  out.u64(dropped);
  out.u64(blocked);
  return out.finish(1);
}

void restore_into(RingBuffer<int>& ring, const std::vector<std::uint8_t>& blob) {
  tono::CheckpointReader in{blob};
  ring.restore_accounting(in);
  in.expect_end();
}

TEST(RingBuffer, RestoreRejectsInconsistentAccounting) {
  RingBuffer<int> source{2};
  for (int i = 0; i < 5; ++i) (void)source.push(i, BackpressurePolicy::kBlock);
  for (int i = 0; i < 9; ++i) (void)source.push(i, BackpressurePolicy::kDropOldest);
  std::vector<int> sink;
  source.pop_all(sink);
  tono::CheckpointWriter out;
  source.serialize_accounting(out);
  RingBuffer<int> restored{2};
  restore_into(restored, out.finish(1));
  EXPECT_EQ(restored.pushed(), source.pushed());
  EXPECT_EQ(restored.popped(), source.popped());
  EXPECT_EQ(restored.dropped(), source.dropped());
  EXPECT_EQ(restored.block_events(), source.block_events());

  struct Bad {
    const char* why;
    std::vector<std::uint8_t> blob;
  };
  const Bad bad[] = {
      {"not empty", ring_blob(false, 4, 4, 0, 0)},
      {"pushed != popped", ring_blob(true, 5, 4, 0, 0)},
      {"dropped > popped", ring_blob(true, 4, 4, 5, 0)},
      {"block_events > pushed", ring_blob(true, 4, 4, 0, 5)},
  };
  for (const Bad& b : bad) {
    RingBuffer<int> ring{2};
    EXPECT_THROW(restore_into(ring, b.blob), tono::CheckpointError) << b.why;
  }
}

}  // namespace
