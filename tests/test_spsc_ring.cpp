// util::SpscRing: bounded single-producer single-consumer ring. Capacity
// rounding, full/empty edges, the producer's cached view of the consumer,
// move-only payloads (try_push must leave the value untouched on refusal),
// FIFO order across wrap-around, and a two-thread stress run.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "util/spsc_ring.hpp"

namespace at::util {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingTest, FullRefusesAndEmptyHasNoFront) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.front(), nullptr);
  EXPECT_EQ(ring.size_approx(), 0u);
  for (int i = 0; i < 4; ++i) {
    const auto free = 4u - static_cast<std::size_t>(i);
    EXPECT_TRUE(ring.has_free_slots(free));
    EXPECT_FALSE(ring.has_free_slots(free + 1));
    EXPECT_TRUE(ring.try_push(int(i)));
  }
  EXPECT_FALSE(ring.has_free_slots(1));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size_approx(), 4u);
  ASSERT_NE(ring.front(), nullptr);
  EXPECT_EQ(*ring.front(), 0);
}

// The producer's cached view of the consumer lags pops until something
// refreshes it: cached_size() stays an upper bound, has_free_slots()
// refreshes only when the cached view says the room is not there.
TEST(SpscRingTest, ProducerViewRefreshesOnlyWhenShort) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(int(i)));
  ring.pop();
  ring.pop();
  EXPECT_EQ(ring.size_approx(), 2u);
  EXPECT_EQ(ring.cached_size(), 4u);  // pops not seen yet
  EXPECT_TRUE(ring.has_free_slots(2));  // short on the cached view: refreshes
  EXPECT_EQ(ring.cached_size(), 2u);
  ring.pop();
  EXPECT_TRUE(ring.has_free_slots(2));  // enough room cached: no refresh
  EXPECT_EQ(ring.cached_size(), 2u);
  EXPECT_EQ(ring.refresh_size(), 1u);
  EXPECT_EQ(ring.cached_size(), 1u);
}

TEST(SpscRingTest, RefusedPushLeavesMoveOnlyValueIntact) {
  SpscRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(1)));
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto extra = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(extra)));
  // The ring was full: the value must still be ours to retry.
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(*extra, 3);
  ASSERT_NE(ring.front(), nullptr);
  EXPECT_EQ(**ring.front(), 1);
  ring.pop();
  EXPECT_TRUE(ring.try_push(std::move(extra)));
  EXPECT_EQ(extra, nullptr);
}

TEST(SpscRingTest, FifoOrderAcrossManyWraps) {
  SpscRing<int> ring(8);
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so head/tail wrap the 8-slot ring hundreds
  // of times with varying occupancy.
  for (int round = 0; round < 500; ++round) {
    const int burst = 1 + round % 8;
    for (int i = 0; i < burst; ++i) {
      if (!ring.try_push(int(next_in))) break;
      ++next_in;
    }
    const int drain = 1 + (round * 3) % 8;
    for (int i = 0; i < drain; ++i) {
      int* front = ring.front();
      if (front == nullptr) break;
      EXPECT_EQ(*front, next_out);
      ring.pop();
      ++next_out;
    }
  }
  while (int* front = ring.front()) {
    EXPECT_EQ(*front, next_out);
    ring.pop();
    ++next_out;
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_GT(next_in, 1000);
}

TEST(SpscRingTest, TwoThreadStressDeliversEverythingInOrder) {
  constexpr std::uint64_t kItems = 200'000;
  SpscRing<std::uint64_t> ring(64);
  std::uint64_t sum = 0;
  std::uint64_t expected_next = 0;
  bool ordered = true;
  std::thread consumer([&] {
    std::uint64_t seen = 0;
    while (seen < kItems) {
      std::uint64_t* front = ring.front();
      if (front == nullptr) {
        std::this_thread::yield();
        continue;
      }
      ordered = ordered && *front == expected_next;
      ++expected_next;
      sum += *front;
      ring.pop();
      ++seen;
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!ring.try_push(std::uint64_t(i))) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(expected_next, kItems);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

}  // namespace
}  // namespace at::util
