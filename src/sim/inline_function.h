// A small-buffer-optimized, move-only std::function replacement for the
// event hot path.
//
// Scheduling an event with std::function heap-allocates whenever the capture
// exceeds the library's tiny SSO window (16 bytes in libstdc++, and only for
// trivially-copyable captures) — one malloc/free pair per simulated event.
// InlineFunction stores the callable inline in `kInlineBytes` of aligned
// storage instead, and never touches the heap.
//
// The capture-size contract: kInlineBytes (64 via EventQueue::Callback) is
// sized for the largest capture in the tree, and emplace() static_asserts
// fits_inline<F>() for every callable it stores. A capture that outgrows the
// buffer fails the build at the site that grew; shrink the capture (capture
// a pointer to the state instead of the state) rather than the contract.
//
// Move-only by design: the event queue moves callbacks in and out of its
// heap; nothing in the simulator copies a scheduled callback, and deleting
// the copy operations keeps accidental (allocating) duplication impossible.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace ibsec::sim {

template <class Sig, std::size_t InlineBytes = 64>
class InlineFunction;

template <class R, class... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);

  /// True when a callable of type F fits the inline buffer; emplace()
  /// accepts no other.
  template <class F>
  static constexpr bool fits_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= InlineBytes && alignof(D) <= kAlignment &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit) — mirrors std::function
    emplace(std::forward<F>(f));
  }

  /// Constructs the callable directly in this object's storage, destroying
  /// any current one first. Same result as assigning a freshly-built
  /// InlineFunction, minus the temporary and its relocate — the event
  /// queue's schedule() path builds every callback in its pool slot with
  /// this, which is worth measurable time at tens of millions of events/sec.
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(fits_inline<F>(),
                  "capture outgrows InlineFunction's inline buffer");
    reset();
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = inline_ops<D>();
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  friend bool operator==(const InlineFunction& f, std::nullptr_t) noexcept {
    return !f;
  }

  R operator()(Args... args) {
    IBSEC_CHECK(ops_ != nullptr) << "calling an empty InlineFunction";
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    /// True when relocation is a plain byte copy (trivially-copyable
    /// captures) — the common case for every hot-path lambda, whose captures
    /// are pointers and integers. Lets move_from() replace the indirect
    /// relocate call with one fixed-size memcpy, which matters at tens of
    /// millions of event moves per second.
    /// False for an empty callable: it never writes the buffer, so the
    /// memcpy would read all of it uninitialized, and its relocate call
    /// is a no-op anyway.
    bool trivially_relocatable;
    /// True when the stored callable's destructor is a no-op, so reset() can
    /// skip the indirect destroy call entirely.
    bool trivially_destructible;
  };

  template <class D>
  static R invoke_inline(void* s, Args&&... args) {
    return (*static_cast<D*>(s))(std::forward<Args>(args)...);
  }
  template <class D>
  static void relocate_inline(void* dst, void* src) {
    D* from = static_cast<D*>(src);
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <class D>
  static void destroy_inline(void* s) {
    static_cast<D*>(s)->~D();
  }
  template <class D>
  static const Ops* inline_ops() {
    static constexpr Ops ops{&invoke_inline<D>, &relocate_inline<D>,
                             &destroy_inline<D>,
                             std::is_trivially_copyable_v<D> &&
                                 !std::is_empty_v<D>,
                             std::is_trivially_destructible_v<D>};
    return &ops;
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivially_relocatable) {
        // Fixed-size copy of the whole buffer: a handful of vector moves,
        // no indirect call. Copying past the callable's size is fine — the
        // trailing bytes are never interpreted.
        std::memcpy(storage_, other.storage_, InlineBytes);
      } else {
        ops_->relocate(storage_, other.storage_);
      }
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivially_destructible) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kAlignment) unsigned char storage_[InlineBytes];
};

}  // namespace ibsec::sim
