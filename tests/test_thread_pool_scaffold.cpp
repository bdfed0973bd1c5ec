// Tests for the concurrent scaffold (prism/thread_pool_scaffold.h).
#include "prism/thread_pool_scaffold.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>

namespace dif::prism {
namespace {

TEST(ThreadPoolScaffold, ExecutesEveryDispatchedTask) {
  ThreadPoolScaffold pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i)
    pool.dispatch([&counter] { ++counter; });
  pool.drain();
  EXPECT_EQ(counter.load(), 1000);
  EXPECT_EQ(pool.tasks_executed(), 1000u);
}

TEST(ThreadPoolScaffold, TasksRunOnWorkerThreads) {
  ThreadPoolScaffold pool(3);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  const std::thread::id caller = std::this_thread::get_id();
  for (int i = 0; i < 200; ++i) {
    pool.dispatch([&] {
      const std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  }
  pool.drain();
  EXPECT_FALSE(ids.count(caller));
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
}

TEST(ThreadPoolScaffold, ScheduleFiresAfterDelay) {
  ThreadPoolScaffold pool(1);
  std::atomic<bool> fired{false};
  const double before = pool.now_ms();
  pool.schedule(30.0, [&] { fired = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(fired.load());
  // Wait generously for the timer.
  for (int i = 0; i < 200 && !fired; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(fired.load());
  EXPECT_GE(pool.now_ms() - before, 30.0);
}

TEST(ThreadPoolScaffold, EarlierTimerOvertakesLaterOne) {
  ThreadPoolScaffold pool(1);
  std::mutex mutex;
  std::vector<int> order;
  pool.schedule(80.0, [&] {
    const std::lock_guard<std::mutex> lock(mutex);
    order.push_back(2);
  });
  pool.schedule(20.0, [&] {
    const std::lock_guard<std::mutex> lock(mutex);
    order.push_back(1);
  });
  for (int i = 0; i < 300; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::lock_guard<std::mutex> lock(mutex);
    if (order.size() == 2) break;
  }
  const std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ThreadPoolScaffold, TasksMayDispatchMoreTasks) {
  ThreadPoolScaffold pool(2);
  std::atomic<int> depth{0};
  std::function<void()> chain = [&] {
    if (++depth < 50) pool.dispatch(chain);
  };
  pool.dispatch(chain);
  for (int i = 0; i < 200 && depth < 50; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  pool.drain();
  EXPECT_EQ(depth.load(), 50);
}

TEST(ThreadPoolScaffold, RunsMoveOnlyTasks) {
  // Tasks own what they capture: a unique_ptr moves through the queue and
  // the timer heap to the worker that runs it.
  ThreadPoolScaffold pool(3);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i)
    pool.dispatch(
        [&sum, value = std::make_unique<int>(i)] { sum += *value; });
  std::atomic<int> timed{0};
  for (int i = 1; i <= 4; ++i)
    pool.schedule(1.0 * i,
                  [&timed, value = std::make_unique<int>(i)] {
                    timed += *value;
                  });
  for (int i = 0; i < 300 && timed < 10; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  pool.drain();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(timed.load(), 10);
}

TEST(ThreadPoolScaffold, CleanShutdownWithPendingTimers) {
  std::atomic<bool> fired{false};
  {
    ThreadPoolScaffold pool(2);
    pool.schedule(60'000.0, [&] { fired = true; });
    // Destructor must not wait for the far-future timer.
  }
  EXPECT_FALSE(fired.load());
}

TEST(ThreadPoolScaffold, NowMsAdvances) {
  ThreadPoolScaffold pool(1);
  const double a = pool.now_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(pool.now_ms(), a);
}

}  // namespace
}  // namespace dif::prism
