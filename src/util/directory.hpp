// Directory<T>: a sparse array of T keyed by a page or frame number, with
// no hashing and no per-entry allocation.
//
// Storage has the two-level shape of PhysicalMemory's chunk directory
// (whose top array is sized up front instead, so its hot scalar path needs
// no bounds check):
//   - a top vector of leaf pointers, grown on demand to cover the highest
//     key touched (8 bytes per leaf);
//   - a leaf of 2^LeafBits value-initialized slots (64 by default),
//     allocated the first time a key in its range is touched, and kept
//     until the directory dies, so a pointer or reference to a slot stays
//     valid for the directory's life. Small default leaves keep a process
//     that touches a few pages (a serving worker) cheap to elaborate.
//
// Each leaf also carries a one-bit-per-slot "live" bitmap, maintained by
// the owner with set_live(). for_each_live() visits live keys in ascending
// order by bit scan, so an ordered walk costs little more than the live
// entries. What "live" means is the owner's: AddressSpace marks resident
// pages.
#pragma once

#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "util/units.hpp"

namespace vmsls {

template <typename T, unsigned LeafBits = 6>
class Directory {
 public:
  static constexpr u64 kLeafBits = LeafBits;
  static constexpr u64 kLeafSlots = 1ull << kLeafBits;
  static_assert(kLeafSlots % 64 == 0, "the live bitmap is whole words");

  /// The slot for `key`, or null while its leaf is untouched.
  T* find(u64 key) noexcept {
    const u64 top = key >> kLeafBits;
    if (top >= leaves_.size() || !leaves_[top]) return nullptr;
    return &leaves_[top]->slots[key & (kLeafSlots - 1)];
  }
  const T* find(u64 key) const noexcept { return const_cast<Directory*>(this)->find(key); }

  /// The slot for `key`, allocating its leaf on first touch.
  T& at(u64 key) {
    const u64 top = key >> kLeafBits;
    if (top >= leaves_.size()) leaves_.resize(top + 1);
    if (!leaves_[top]) leaves_[top] = std::make_unique<Leaf>();
    return leaves_[top]->slots[key & (kLeafSlots - 1)];
  }

  bool live(u64 key) const noexcept {
    const u64 top = key >> kLeafBits;
    if (top >= leaves_.size() || !leaves_[top]) return false;
    const u64 i = key & (kLeafSlots - 1);
    return (leaves_[top]->live[i / 64] >> (i % 64)) & 1;
  }

  /// Marks `key` live or not; its leaf must exist (at() was called).
  void set_live(u64 key, bool on) noexcept {
    const u64 i = key & (kLeafSlots - 1);
    u64& word = leaves_[key >> kLeafBits]->live[i / 64];
    const u64 bit = 1ull << (i % 64);
    if (((word & bit) != 0) == on) return;
    word ^= bit;
    live_count_ = on ? live_count_ + 1 : live_count_ - 1;
  }

  u64 live_count() const noexcept { return live_count_; }

  /// Calls fn(key, slot) for every live key in ascending order. `fn` may
  /// touch new keys (growing the directory) but must not change liveness.
  template <typename F>
  void for_each_live(F&& fn) const {
    for (u64 top = 0; top < leaves_.size(); ++top) {
      const Leaf* leaf = leaves_[top].get();
      if (leaf == nullptr) continue;
      for (u64 w = 0; w < leaf->live.size(); ++w) {
        for (u64 bits = leaf->live[w]; bits != 0; bits &= bits - 1) {
          const u64 i = w * 64 + static_cast<u64>(std::countr_zero(bits));
          fn((top << kLeafBits) | i, leaf->slots[i]);
        }
      }
    }
  }

  /// Calls fn(key, slot) for every slot of every touched leaf, ascending.
  template <typename F>
  void for_each(F&& fn) const {
    for (u64 top = 0; top < leaves_.size(); ++top)
      if (Leaf* leaf = leaves_[top].get())
        for (u64 i = 0; i < kLeafSlots; ++i) fn((top << kLeafBits) | i, leaf->slots[i]);
  }

 private:
  struct Leaf {
    std::array<T, kLeafSlots> slots{};
    std::array<u64, kLeafSlots / 64> live{};  // one bit per slot
  };

  std::vector<std::unique_ptr<Leaf>> leaves_;
  u64 live_count_ = 0;
};

}  // namespace vmsls
