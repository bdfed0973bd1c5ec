// Move-only, type-erased `void()` callable with inline capture storage.
//
// The simulator's pending events and the Prism-MW scaffolds' dispatched
// tasks are all Tasks. A closure is stored in place when it fits
// kInlineBytes, is no more aligned than std::max_align_t and has a noexcept
// move constructor; anything else (a bigger capture, or one whose move may
// throw, e.g. a by-copy capture of a `const std::string`) is moved to one
// heap block. Unlike std::function, a Task accepts move-only closures, so a
// network delivery can own the message it delivers.
//
// kInlineBytes is sized to the hot closures and no larger, because every
// pending simulator event pays for the whole buffer: a delivery task
// (network pointer + 48-byte NetMessage), Architecture::post_to's dispatch
// (architecture pointer + component name + shared event) and the workload
// tick (architecture pointer + component name + epoch + link index) are 56
// bytes each. sizeof(Task) is one 64-byte cache line.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dif::sim {

class Task {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  /// True when a closure of type F is stored in place (no allocation).
  template <typename F>
  static constexpr bool stored_inline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  Task() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, Task> && std::is_invocable_r_v<void, Fn&>)
  Task(F&& fn) {  // NOLINT(google-explicit-constructor): closures convert
    if constexpr (stored_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Task(Task&& other) noexcept : ops_(other.ops_) {
    if (ops_) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { reset(); }

  /// Invokes the closure (which must be present). May be called repeatedly.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Moves the closure from `src` into the raw storage `dst` and destroys
    /// what is left at `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* s) noexcept { delete *static_cast<Fn**>(s); }};

  void reset() noexcept {
    if (ops_) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace dif::sim
