// Storage-reusing containers for the simulator's hot paths. Both grow to
// their peak occupancy and then only recycle, so steady-state traffic
// allocates nothing.
//
// Pool<T>: a free list of per-access records. In-flight state (a page walk,
// a translation, a port transfer, a cache walk) lives in a record that a
// chain of callbacks passes along as a raw pointer; the record comes from
// the pool and goes back when the chain ends. A released record keeps its
// members; callers clear whatever must not outlive the access (a held
// callback, say) before releasing it.
//
// Fifo<T>: a FIFO queue over a ring buffer. std::deque allocates and frees
// a node block as its contents slide through it, so a steadily busy queue
// keeps calling the allocator; the ring only doubles, never shrinks. T must
// be default-constructible and move-assignable; popped slots hold moved-from
// values until reused.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace vmsls {

template <typename T>
class Pool {
 public:
  T* acquire() {
    if (free_.empty()) {
      owned_.push_back(std::make_unique<T>());
      free_.reserve(owned_.size());  // release() never reallocates
      return owned_.back().get();
    }
    T* t = free_.back();
    free_.pop_back();
    return t;
  }

  void release(T* t) noexcept { free_.push_back(t); }

 private:
  std::vector<std::unique_ptr<T>> owned_;  // owns every record ever made
  std::vector<T*> free_;                   // recycled, ready for reuse
};

template <typename T>
class Fifo {
 public:
  bool empty() const noexcept { return size_ == 0; }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(v);
    ++size_;
  }

  /// Moves the front element out and removes it.
  T pop_front() {
    T v = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return v;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two capacity
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vmsls
