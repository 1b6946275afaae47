// Move-only small-buffer callbacks for the event kernel and the memory path.
//
// std::function heap-allocates any closure larger than its (typically 16B)
// inline buffer, which puts one malloc/free pair on the critical path of
// every scheduled event. InlineFn<R(Args...)> widens the inline buffer to
// 56 bytes — enough for every hot closure in the codebase (a `this` pointer
// plus a handful of words) — and is move-only, so callables never need to
// be copyable and a move is a flat memcpy-sized relocation. Oversized or
// over-aligned callables transparently fall back to the heap; behavior is
// identical either way. EventFn = InlineFn<void()> is the kernel's event
// callback; the memory path's completions (a translated address, a walk
// result) use the same template with arguments.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace vmsls::sim {

template <typename Sig>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  /// Inline storage, sized so EventNode (16B header + 16B ops + storage)
  /// stays within 96 bytes — 1.5 cache lines per pooled event.
  static constexpr std::size_t kInlineBytes = 56;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      relocate_ = &inline_relocate<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      invoke_ = &heap_invoke<D>;
      relocate_ = &heap_relocate<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  R operator()(Args... args) { return invoke_(storage_, std::forward<Args>(args)...); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (invoke_ != nullptr) {
      relocate_(storage_, nullptr);
      invoke_ = nullptr;
      relocate_ = nullptr;
    }
  }

  template <typename D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  // Relocate = move-construct into `dst` and destroy `src`; destroy-only
  // when `dst` is null. One pointer covers move, destroy, and heap free.
  using Invoke = R (*)(void*, Args&&...);
  using Relocate = void (*)(void* src, void* dst) noexcept;

  template <typename D>
  static R inline_invoke(void* s, Args&&... args) {
    // static_cast<void> discards whatever a void signature's callable returns.
    return static_cast<R>((*static_cast<D*>(s))(std::forward<Args>(args)...));
  }
  template <typename D>
  static void inline_relocate(void* src, void* dst) noexcept {
    D* f = static_cast<D*>(src);
    if (dst != nullptr) ::new (dst) D(std::move(*f));
    f->~D();
  }
  template <typename D>
  static R heap_invoke(void* s, Args&&... args) {
    return static_cast<R>((**static_cast<D**>(s))(std::forward<Args>(args)...));
  }
  template <typename D>
  static void heap_relocate(void* src, void* dst) noexcept {
    D** p = static_cast<D**>(src);
    if (dst != nullptr)
      *static_cast<D**>(dst) = *p;
    else
      delete *p;
  }

  void move_from(InlineFn& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    if (invoke_ != nullptr) {
      relocate_(other.storage_, storage_);
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
    }
  }

  Invoke invoke_ = nullptr;
  Relocate relocate_ = nullptr;
  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
};

/// The event kernel's callback type.
using EventFn = InlineFn<void()>;

}  // namespace vmsls::sim
