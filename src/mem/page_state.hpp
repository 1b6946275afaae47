// One record per virtual page: everything the OS model knows about a page
// besides its PTE.
//
// An AddressSpace owns the records in a Directory keyed by vpn, and the
// directory's live bit is the page's residency. Three layers write the
// record, each its own fields (docs/ARCHITECTURE.md "Page state" lists who
// writes and who reads each one):
//   - the address space: residency, pins, saved contents;
//   - the swap scheduler: the page's swap slot and, on a cluster's first
//     page, the cluster's slot region;
//   - the pager: in-flight fault, pending reservation, prefetch and
//     speculative bits, and the working-set clock.
//
// A fault reads and writes one record: nothing on the fault path hashes.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "util/directory.hpp"
#include "util/units.hpp"

namespace vmsls::mem {

struct PageState {
  static constexpr u32 kNoSlot = ~0u;

  /// Pager bits.
  enum Flag : u8 {
    kPending = 1,      ///< a frame is reserved for the page but not yet mapped
    kPrefetch = 2,     ///< the in-flight read is a readahead prefetch
    kSpeculative = 4,  ///< resident readahead landing, not referenced yet
    kWsRef = 8,        ///< ws_last_ref holds a reference time
  };

  Cycles ws_last_ref = 0;   ///< last observed reference (working-set clock)
  u32 swap_slot = kNoSlot;  ///< slot on the owner's swap device; kNoSlot = none
  u32 swap_region = 0;      ///< cluster-leader records: slot region + 1; 0 = none
  u32 backing = 0;          ///< PageArena handle of the saved contents; 0 = none
  u32 pins = 0;             ///< in-flight accesses holding the page
  u32 fault = 0;            ///< pager's in-flight fault record (waiter list head); 0 = none
  u8 flags = 0;

  bool has(Flag f) const noexcept { return (flags & f) != 0; }
  /// Sets or clears `f`; returns whether it changed.
  bool set(Flag f, bool on) noexcept {
    if (has(f) == on) return false;
    flags ^= f;
    return true;
  }
  bool holds_slot() const noexcept { return swap_slot != kNoSlot; }
};

using PageStates = Directory<PageState>;

/// Saved page contents — the swap file's bytes — in page-sized buffers that
/// are recycled, never freed, while the arena lives. Handles are 1-based so
/// a zeroed PageState means "no saved copy".
class PageArena {
 public:
  explicit PageArena(u64 page_bytes) : page_bytes_(page_bytes) {}

  /// A page's handle. Its bytes are unspecified: every caller overwrites
  /// the whole page.
  u32 alloc() {
    if (free_.empty()) {
      pages_.push_back(std::make_unique_for_overwrite<u8[]>(page_bytes_));
      free_.reserve(pages_.size());  // release() never reallocates
      return static_cast<u32>(pages_.size());
    }
    const u32 h = free_.back();
    free_.pop_back();
    return h;
  }

  void release(u32 h) noexcept { free_.push_back(h); }

  std::span<u8> page(u32 h) noexcept { return {pages_[h - 1].get(), page_bytes_}; }

  u64 in_use() const noexcept { return pages_.size() - free_.size(); }

 private:
  u64 page_bytes_;
  std::vector<std::unique_ptr<u8[]>> pages_;
  std::vector<u32> free_;
};

}  // namespace vmsls::mem
