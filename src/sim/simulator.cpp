#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace dif::sim {

void Simulator::schedule_at(TimePoint t, Task fn) {
  heap_.push_back({std::max(t, now_), next_seq_++, fns_.park(std::move(fn))});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::schedule_after(double delay_ms, Task fn) {
  schedule_at(now_ + std::max(delay_ms, 0.0), std::move(fn));
}

std::size_t Simulator::fire_batch(std::size_t limit) {
  if (heap_.empty() || limit == 0) return 0;
  batch_.clear();
  batch_pos_ = 0;
  const TimePoint t = heap_.front().time;
  // Drain the whole same-timestamp run up front: handlers that schedule at
  // time t get sequence numbers larger than everything drained here, so
  // executing the drained run first is exactly (time, seq) order. A capped
  // drain leaves the tail of the run in the heap; it fires (still in seq
  // order) on the next call.
  while (!heap_.empty() && heap_.front().time == t && batch_.size() < limit) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    batch_.push_back(heap_.back().slot);
    heap_.pop_back();
  }
  now_ = t;
  ++batches_;
  std::size_t fired = 0;
  while (batch_pos_ < batch_.size()) {
    // Taken out of its slot before it runs, so the handler may reuse the
    // slot, and clear() never sees a running event. The task (and what it
    // captured) is destroyed at the end of this iteration.
    Task fn = fns_.take(batch_[batch_pos_]);
    ++batch_pos_;
    ++processed_;
    ++fired;
    fn();  // may schedule new events or clear() the rest of the batch
  }
  batch_.clear();
  batch_pos_ = 0;
  return fired;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (!heap_.empty() && fired < max_events)
    fired += fire_batch(max_events - fired);
  return fired;
}

std::size_t Simulator::run_until(TimePoint t) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().time <= t)
    fired += fire_batch(SIZE_MAX);
  now_ = std::max(now_, t);
  return fired;
}

bool Simulator::step() { return fire_batch(1) == 1; }

void Simulator::clear() {
  // Taking a callable destroys it (and what it captured).
  for (const Scheduled& s : heap_) fns_.take(s.slot);
  heap_.clear();
  // Keep the already-fired prefix (its slots were taken) and drop the
  // unfired tail, so an in-flight fire_batch loop stops immediately.
  for (std::size_t i = batch_pos_; i < batch_.size(); ++i) fns_.take(batch_[i]);
  batch_.resize(batch_pos_);
}

}  // namespace dif::sim
