// qoesim -- small-buffer callback.
//
// SmallFunction<R(Args...)> is a move-only replacement for std::function
// used on the simulator's hot paths (the event scheduler, the node demux
// plane). Callables whose captures fit in the inline buffer (48 bytes,
// enough for a handful of pointers or a shared_ptr plus a deadline) are
// stored in place, so storing or moving one performs no heap allocation.
// Larger callables transparently fall back to a single heap allocation.
//
// In-place construction: emplace(f) builds the callable straight into an
// existing SmallFunction's buffer. The scheduler constructs each event's
// callable this way directly in its arena slot, so a callable passed to
// schedule_at/after is never moved on the way in; the one move left is
// out of the slot when the event fires.
//
// Trivial-relocation fast path: an inline callable that is trivially
// copyable and trivially destructible (a lambda capturing pointers, ids
// and times by value -- the link's {this, slot} tx-complete event and
// most timers) is moved with a fixed-size memcpy of the inline buffer and
// never destroyed, instead of through the indirect move/destroy calls the
// general case needs. The heap fallback's owning pointer is relocated the
// same way (only its destroy stays indirect). For such callables the
// move out of the arena when an event fires, and the move of a prebuilt
// SmallFunction into it, are a plain copy of the buffer.
//
// SmallCallback is the scheduler's void() instantiation.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace qoesim {

template <typename Signature>
class SmallFunction;

template <typename R, typename... Args>
class SmallFunction<R(Args...)> {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr std::size_t kInlineCapacity = 48;

  SmallFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }
  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;
  ~SmallFunction() { reset(); }

  /// Replace the held callable with `f`, constructed in place in this
  /// object's buffer (a SmallFunction argument is move-assigned instead).
  /// If constructing `f` throws, *this is left empty.
  template <typename F>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, SmallFunction>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<R, std::decay_t<F>&, Args...>,
                    "SmallFunction::emplace: callable has the wrong signature");
      reset();
      construct(std::forward<F>(f));
    }
  }

  /// Destroy the held callable (and free its heap storage, if any).
  void reset() {
    if (ops_) {
      if (ops_->destroy) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invoke. Precondition: holds a callable (like std::function, calling an
  /// empty SmallFunction is undefined; the scheduler never does).
  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  // A null move means the buffer is trivially relocatable (memcpy it):
  // true for trivial inline callables and for the heap fallback's owning
  // pointer. A null destroy means there is nothing to destroy.
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    void (*move)(void* dst, void* src);  // relocate; src left destroyed
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr bool trivially_relocatable() {
    return std::is_trivially_copyable_v<Fn> &&
           std::is_trivially_destructible_v<Fn>;
  }

  // launder: an object placement-newed into a char buffer is not
  // pointer-interconvertible with it, so every access goes through these.
  template <typename Fn>
  static Fn* inline_ptr(void* s) {
    return std::launder(reinterpret_cast<Fn*>(s));
  }

  template <typename Fn>
  static R invoke_inline(void* s, Args&&... args) {
    return (*inline_ptr<Fn>(s))(std::forward<Args>(args)...);
  }

  template <typename Fn>
  static const Ops* inline_ops() {
    if constexpr (trivially_relocatable<Fn>()) {
      static constexpr Ops ops = {&invoke_inline<Fn>, nullptr, nullptr};
      return &ops;
    } else {
      static constexpr Ops ops = {
          &invoke_inline<Fn>,
          [](void* dst, void* src) {
            Fn* from = inline_ptr<Fn>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          },
          [](void* s) { inline_ptr<Fn>(s)->~Fn(); },
      };
      return &ops;
    }
  }

  template <typename Fn>
  static Fn* heap_ptr(void* s) {
    return *std::launder(reinterpret_cast<Fn**>(s));  // see inline_ptr
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) -> R {
          return (*heap_ptr<Fn>(s))(std::forward<Args>(args)...);
        },
        nullptr,
        [](void* s) { delete heap_ptr<Fn>(s); },
    };
    return &ops;
  }

  // Precondition: empty. ops_ is set only once the callable exists, so a
  // throwing constructor (or a failed heap allocation) leaves *this empty.
  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      // Placement-new the Fn* itself so a pointer object formally lives
      // in the buffer (plain reinterpret_cast stores would be UB under
      // the C++ object-lifetime rules).
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  void move_from(SmallFunction& other) {
    ops_ = other.ops_;
    if (ops_) {
      if (ops_->move) {
        ops_->move(storage_, other.storage_);
      } else {
        // Copying the whole buffer keeps the size a compile-time constant
        // (a few vector moves); the bytes past sizeof(Fn) are never read.
        std::memcpy(storage_, other.storage_, kInlineCapacity);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// The event scheduler's callback type (see sim/event.hpp).
using SmallCallback = SmallFunction<void()>;

}  // namespace qoesim
