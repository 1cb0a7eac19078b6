// Discrete-event engine: ordering, determinism, cancellation.

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace at::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&](Engine&) { order.push_back(3); });
  engine.schedule_at(10, [&](Engine&) { order.push_back(1); });
  engine.schedule_at(20, [&](Engine&) { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, StableTieBreaking) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(7, [&order, i](Engine&) { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, RejectsPastScheduling) {
  Engine engine(100);
  EXPECT_THROW(engine.schedule_at(50, [](Engine&) {}), std::invalid_argument);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine(1000);
  util::SimTime fired_at = 0;
  engine.schedule_in(25, [&](Engine& e) { fired_at = e.now(); });
  engine.run();
  EXPECT_EQ(fired_at, 1025);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const auto id = engine.schedule_at(10, [&](Engine&) { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // already cancelled
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.executed(), 0u);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int count = 0;
  engine.schedule_at(10, [&](Engine&) { ++count; });
  engine.schedule_at(20, [&](Engine&) { ++count; });
  engine.schedule_at(30, [&](Engine&) { ++count; });
  EXPECT_EQ(engine.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(engine.now(), 20);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(500);
  EXPECT_EQ(engine.now(), 500);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine engine;
  std::vector<util::SimTime> times;
  engine.schedule_at(1, [&](Engine& e) {
    times.push_back(e.now());
    e.schedule_in(5, [&](Engine& e2) { times.push_back(e2.now()); });
  });
  engine.run();
  EXPECT_EQ(times, (std::vector<util::SimTime>{1, 6}));
}

TEST(Engine, StatsCountSchedulesExecutionsAndCancels) {
  Engine engine;
  const auto id1 = engine.schedule_at(10, [](Engine&) {});
  engine.schedule_at(20, [](Engine&) {});
  engine.schedule_at(100000, [](Engine&) {});  // far future -> overflow heap
  EXPECT_TRUE(engine.cancel(id1));
  EXPECT_FALSE(engine.cancel(id1));
  engine.run();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.scheduled, 3u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.cancel_misses, 1u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.max_pending, 3u);
  EXPECT_EQ(stats.overflow_events, 1u);
  EXPECT_EQ(stats.wheel_events, 2u);
  EXPECT_EQ(stats.inline_callbacks, 3u);
  EXPECT_EQ(stats.boxed_callbacks, 0u);
}

TEST(Engine, LargeCaptureListsAreBoxedAndStillRun) {
  Engine engine;
  // 64 bytes of captured state overflows the 48-byte inline slot.
  std::array<std::uint64_t, 8> payload{};
  payload.fill(7);
  std::uint64_t sum = 0;
  auto* out = &sum;
  engine.schedule_at(5, [payload, out](Engine&) {
    for (const auto v : payload) *out += v;
  });
  engine.run();
  EXPECT_EQ(sum, 56u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.boxed_callbacks, 1u);
  EXPECT_EQ(stats.inline_callbacks, 0u);
}

TEST(Engine, CancelFarFutureOverflowEvent) {
  Engine engine;
  bool fired = false;
  const auto id = engine.schedule_at(1000000, [&](Engine&) { fired = true; });
  engine.schedule_at(10, [](Engine&) {});
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.now(), 10);  // the dead far event never drives the clock
  EXPECT_EQ(engine.executed(), 1u);
}

TEST(Engine, CancelOfInFlightEventReportsFalse) {
  Engine engine;
  EventId self = 0;
  bool cancel_result = true;
  self = engine.schedule_at(10, [&](Engine& e) { cancel_result = e.cancel(self); });
  engine.run();
  EXPECT_FALSE(cancel_result);  // already executing == already consumed
}

TEST(Engine, EventIdsAreNeverReusedAcrossSlotRecycling) {
  Engine engine;
  const auto id1 = engine.schedule_at(1, [](Engine&) {});
  engine.run();
  const auto id2 = engine.schedule_at(2, [](Engine&) {});  // recycles the slot
  EXPECT_NE(id1, id2);
  EXPECT_NE(id2, 0u);  // 0 stays a null sentinel
  EXPECT_FALSE(engine.cancel(id1));  // the stale handle must not hit id2
  EXPECT_TRUE(engine.cancel(id2));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      engine.schedule_at(i % 7, [&order, i](Engine&) { order.push_back(i); });
    }
    engine.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace at::sim
