// Unit tests for the discrete-event kernel (sim/simulator.h).
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dif::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(7.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(100.0, [&] {
    sim.schedule_after(25.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 125.0);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  sim.schedule_at(50.0, [] {});
  sim.run();
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] { fired_at = sim.now(); });  // in the past
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 50.0);
  sim.schedule_after(-5.0, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 50.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.schedule_at(20.0, [&] { ++fired; });
  sim.schedule_at(30.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20.0), 2u);  // inclusive boundary
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_until(25.0), 0u);  // no event, clock still advances
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  EXPECT_EQ(sim.run(), 10u);
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(Simulator, RunWithEventCap) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(sim.pending(), 6u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ClearDropsPendingEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.clear();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// --- batched same-timestamp dispatch ---------------------------------------

TEST(Simulator, BatchesDispatchedCountsTimestampRuns) {
  Simulator sim;
  for (int i = 0; i < 3; ++i) sim.schedule_at(1.0, [] {});
  for (int i = 0; i < 2; ++i) sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
  // One heap drain per distinct timestamp, not per event.
  EXPECT_EQ(sim.batches_dispatched(), 2u);
}

TEST(Simulator, SameTimeCascadeKeepsSchedulingOrder) {
  // An event scheduled *during* a same-timestamp batch carries a larger
  // sequence number, so it must fire after everything already queued at that
  // time — batching may not let it jump the line.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(0);
    sim.schedule_at(5.0, [&] { order.push_back(2); });
  });
  sim.schedule_at(5.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventCapSplitsSameTimestampBatch) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(3.0, [&order, i] { order.push_back(i); });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClearInsideHandlerDropsRestOfBatch) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.clear();
  });
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, BatchedDispatchIsDeterministic) {
  // Two identical schedules — including mid-batch cascades — must replay in
  // exactly the same order.
  const auto record = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
      sim.schedule_at(1.0, [&sim, &order, i] {
        order.push_back(i);
        if (i % 2 == 0)
          sim.schedule_at(1.0, [&order, i] { order.push_back(100 + i); });
        sim.schedule_after(1.0, [&order, i] { order.push_back(200 + i); });
      });
    sim.run();
    return order;
  };
  EXPECT_EQ(record(), record());
}

// --- slot storage lifetime ---------------------------------------------------

TEST(Simulator, CapturedStateIsReleasedAfterItsEventFires) {
  Simulator sim;
  auto token = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = token;
  bool alive_while_running = false;
  sim.schedule_at(1.0, [&alive_while_running, token = std::move(token)] {
    alive_while_running = *token == 1;
  });
  sim.schedule_at(2.0, [&] { EXPECT_TRUE(watch.expired()); });
  sim.run();
  EXPECT_TRUE(alive_while_running);
  EXPECT_TRUE(watch.expired());
}

TEST(Simulator, ClearReleasesCapturedState) {
  Simulator sim;
  auto token = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = token;
  sim.schedule_at(1.0, [token = std::move(token)] {});
  sim.clear();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, ClearInsideHandlerReleasesTheRestButNotItself) {
  Simulator sim;
  auto own = std::make_shared<int>(7);
  auto same_batch = std::make_shared<int>(1);
  auto later = std::make_shared<int>(2);
  const std::weak_ptr<int> watch_own = own;
  const std::weak_ptr<int> watch_same = same_batch;
  const std::weak_ptr<int> watch_later = later;
  int seen_after_clear = 0;
  sim.schedule_at(1.0, [&, own = std::move(own)] {
    sim.clear();
    EXPECT_TRUE(watch_same.expired());
    EXPECT_TRUE(watch_later.expired());
    seen_after_clear = *own;  // the running handler's captures survive
  });
  sim.schedule_at(1.0, [same_batch = std::move(same_batch)] {});
  sim.schedule_at(2.0, [later = std::move(later)] {});
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(seen_after_clear, 7);
  EXPECT_TRUE(watch_own.expired());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, HeapHeldCapturesAreReleasedOnFireAndOnClear) {
  // Captures past Task's inline buffer live in one heap block, which must
  // follow the same lifetime as inline ones.
  Simulator sim;
  std::array<char, Task::kInlineBytes> bulk{};
  auto fired = std::make_shared<int>(1);
  auto dropped = std::make_shared<int>(2);
  const std::weak_ptr<int> watch_fired = fired;
  const std::weak_ptr<int> watch_dropped = dropped;
  auto fire = [bulk, fired = std::move(fired)] { (void)bulk; };
  static_assert(!Task::stored_inline<decltype(fire)>);
  sim.schedule_at(1.0, std::move(fire));
  sim.run();
  EXPECT_TRUE(watch_fired.expired());
  sim.schedule_at(2.0, [bulk, dropped = std::move(dropped)] { (void)bulk; });
  sim.clear();
  EXPECT_TRUE(watch_dropped.expired());
}

// --- task captures -----------------------------------------------------------

TEST(Simulator, MoveOnlyCapturesWork) {
  Simulator sim;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  sim.schedule_at(1.0, [&seen, value = std::move(value)] { seen += *value; });
  // A move-only closure too big for the inline buffer.
  std::array<char, Task::kInlineBytes> bulk{};
  bulk[0] = 1;
  auto other = std::make_unique<int>(7);
  sim.schedule_at(2.0, [&seen, bulk, other = std::move(other)] {
    seen += *other + bulk[0];
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(seen, 50);
}

TEST(Simulator, ConstStringCaptureFiresCorrectly) {
  Simulator sim;
  const std::string name = "a-component-name-past-the-small-string-buffer";
  std::string seen;
  // The closure's member is a `const std::string`, whose move may throw, so
  // the task keeps the closure on the heap; it must still run unchanged.
  auto fn = [&seen, name] { seen = name; };
  static_assert(!Task::stored_inline<decltype(fn)>);
  sim.schedule_at(1.0, std::move(fn));
  sim.schedule_at(1.0, [&seen, name] { seen += "|" + name; });
  sim.run();
  EXPECT_EQ(seen, name + "|" + name);
}

TEST(Simulator, EventsAfterClearReuseStorageInTimeSeqOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i)
    sim.schedule_at(10.0 + i, [&] { order.push_back(-1); });
  sim.clear();
  // The freed slots come back in reverse, so slot order disagrees with
  // (time, seq) order; dispatch must follow the latter.
  sim.schedule_at(3.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(0); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(2.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] {
    order.push_back(4);
    sim.schedule_at(3.0, [&] { order.push_back(6); });
  });
  sim.schedule_at(3.0, [&] { order.push_back(5); });
  sim.schedule_at(4.0, [&] { order.push_back(7); });
  sim.schedule_at(4.0, [&] { order.push_back(8); });
  EXPECT_EQ(sim.run(), 9u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

}  // namespace
}  // namespace dif::sim
