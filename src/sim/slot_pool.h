// Index-addressed storage with slot reuse, for values whose owner hands out
// a small integer in place of the value itself: the simulator parks each
// pending Task here and orders only (time, seq, slot) records in its heap,
// so parking a task allocates nothing once the pool is warm.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace dif::sim {

template <typename T>
class SlotPool {
 public:
  using Slot = std::uint32_t;

  /// Moves `value` into a free slot (the most recently freed one, which is
  /// likely still in cache) and returns the slot.
  Slot park(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return static_cast<Slot>(slots_.size() - 1);
    }
    const Slot slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(value);
    return slot;
  }

  /// Moves the value out of `slot`, leaves a default-constructed T behind
  /// (so nothing the value owned outlives the take) and frees the slot.
  T take(Slot slot) {
    free_.push_back(slot);
    return std::exchange(slots_[slot], T{});
  }

 private:
  /// A deque grows in fixed chunks without moving (or transiently
  /// doubling) what it holds.
  std::deque<T> slots_;
  std::vector<Slot> free_;
};

}  // namespace dif::sim
