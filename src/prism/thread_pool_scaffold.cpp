#include "prism/thread_pool_scaffold.h"

namespace dif::prism {

ThreadPoolScaffold::ThreadPoolScaffold(std::size_t workers)
    : start_(std::chrono::steady_clock::now()) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  timer_thread_ = std::thread([this] { timer_loop(); });
}

ThreadPoolScaffold::~ThreadPoolScaffold() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  timer_changed_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  timer_thread_.join();
}

void ThreadPoolScaffold::dispatch(sim::Task task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    queue_.push(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPoolScaffold::schedule(double delay_ms, sim::Task task) {
  const auto due = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(
                       static_cast<std::int64_t>(delay_ms * 1000.0));
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    timers_.push({due, std::move(task)});
  }
  timer_changed_.notify_all();
}

double ThreadPoolScaffold::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void ThreadPoolScaffold::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
}

std::uint64_t ThreadPoolScaffold::tasks_executed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return executed_;
}

void ThreadPoolScaffold::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    sim::Task task = std::move(queue_.front());
    queue_.pop();
    ++busy_;
    lock.unlock();
    task();
    lock.lock();
    --busy_;
    ++executed_;
    if (queue_.empty() && busy_ == 0) idle_.notify_all();
  }
}

void ThreadPoolScaffold::timer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (timers_.empty()) {
      timer_changed_.wait(lock,
                          [this] { return stopping_ || !timers_.empty(); });
      continue;
    }
    const auto due = timers_.top().due;
    if (timer_changed_.wait_until(lock, due, [this, due] {
          return stopping_ ||
                 (!timers_.empty() && timers_.top().due < due);
        })) {
      continue;  // stopping, or an earlier timer arrived
    }
    // Deadline reached: move every due timer into the work queue.
    const auto now = std::chrono::steady_clock::now();
    while (!timers_.empty() && timers_.top().due <= now) {
      queue_.push(std::move(const_cast<Timer&>(timers_.top()).task));
      timers_.pop();
      work_available_.notify_one();
    }
  }
}

}  // namespace dif::prism
