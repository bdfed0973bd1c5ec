// ThreadPoolScaffold: Prism-MW's real dispatch model.
//
// "Scaffolds are used to schedule and dispatch events using a pool of
// threads in a decoupled manner" (paper Section 4.2). The simulation-driven
// SimScaffold is the deterministic stand-in used by experiments; this class
// is the faithful concurrent implementation for applications embedding the
// middleware outside the simulator. Tasks are executed by a fixed pool of
// worker threads; schedule() uses a dedicated timer thread.
//
// Thread-safety contract: dispatch()/schedule() may be called from any
// thread (including from within tasks). Architectures driven by this
// scaffold must only be mutated from within dispatched tasks or while the
// pool is idle — same discipline Prism-MW imposes.
#pragma once

#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "prism/brick.h"

namespace dif::prism {

class ThreadPoolScaffold final : public IScaffold {
 public:
  /// Starts `workers` event-dispatch threads plus one timer thread.
  explicit ThreadPoolScaffold(std::size_t workers = 2);
  /// Drains nothing: pending tasks are discarded; running tasks complete.
  ~ThreadPoolScaffold() override;

  ThreadPoolScaffold(const ThreadPoolScaffold&) = delete;
  ThreadPoolScaffold& operator=(const ThreadPoolScaffold&) = delete;

  void dispatch(sim::Task task) override;
  void schedule(double delay_ms, sim::Task task) override;
  [[nodiscard]] double now_ms() const override;

  /// Blocks until the task queue is empty and all workers are idle (timers
  /// may still be pending). Test/teardown aid.
  void drain();

  [[nodiscard]] std::uint64_t tasks_executed() const;

 private:
  struct Timer {
    std::chrono::steady_clock::time_point due;
    sim::Task task;
    bool operator<(const Timer& other) const { return due > other.due; }
  };

  void worker_loop();
  void timer_loop();

  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::queue<sim::Task> queue_;
  std::priority_queue<Timer> timers_;
  std::condition_variable timer_changed_;
  std::size_t busy_ = 0;
  std::uint64_t executed_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

}  // namespace dif::prism
