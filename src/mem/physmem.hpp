// Functional physical memory backing store.
//
// Holds the *contents* of simulated DRAM. Timing is modeled separately by
// DramModel/MemoryBus; every component that completes a memory transaction
// reads or writes its data here at completion time.
//
// Storage is sparse, so multi-GiB address spaces cost only what is actually
// used. A two-level chunk directory maps an address to its bytes without
// hashing:
//   - the top array has one slot per 2 MiB of memory, sized in the
//     constructor (8 bytes per 2 MiB: 4 KiB for a 1 GiB machine);
//   - a leaf of 512 chunk pointers is allocated for each 2 MiB region on its
//     first write;
//   - a 4 KiB zeroed chunk is allocated on the first write (or clear) that
//     touches it. Unallocated leaves and chunks read as zero.
//
// Scalar accesses (read_scalar/write_scalar, and so every PTE read and
// accessed/dirty update of PageTable) take an inline fast path when the
// value lies within one chunk: the range check, two array indexings and one
// memcpy. Accesses that straddle a chunk, and all span accesses, go through
// the chunk loops of read/write/clear. Both paths run the same range check,
// including its wrap-around test.
#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/units.hpp"

namespace vmsls::mem {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(u64 size_bytes);

  u64 size() const noexcept { return size_; }

  /// Reads `out.size()` bytes starting at `addr`. Untouched memory reads as
  /// zero. Throws std::out_of_range past the end of memory.
  void read(PhysAddr addr, std::span<u8> out) const;

  void write(PhysAddr addr, std::span<const u8> data);

  /// Typed helpers for naturally aligned scalar access.
  template <typename T>
  T read_scalar(PhysAddr addr) const {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kChunkBytes);
    check_range(addr, sizeof(T));
    T v{};
    const u64 off = addr % kChunkBytes;
    if (off + sizeof(T) <= kChunkBytes) [[likely]] {
      if (const u8* c = find_chunk(addr / kChunkBytes)) std::memcpy(&v, c + off, sizeof(T));
    } else {
      read(addr, std::span<u8>(reinterpret_cast<u8*>(&v), sizeof(T)));
    }
    return v;
  }

  template <typename T>
  void write_scalar(PhysAddr addr, T v) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kChunkBytes);
    check_range(addr, sizeof(T));
    const u64 off = addr % kChunkBytes;
    if (off + sizeof(T) <= kChunkBytes) [[likely]]
      std::memcpy(chunk(addr / kChunkBytes) + off, &v, sizeof(T));
    else
      write(addr, std::span<const u8>(reinterpret_cast<const u8*>(&v), sizeof(T)));
  }

  u64 read_u64(PhysAddr addr) const { return read_scalar<u64>(addr); }
  void write_u64(PhysAddr addr, u64 v) { write_scalar<u64>(addr, v); }

  /// Zeroes a range (releases nothing; just clears contents).
  void clear(PhysAddr addr, u64 bytes);

  /// Number of 4 KiB storage chunks actually touched (for tests / memory
  /// footprint introspection).
  std::size_t touched_chunks() const noexcept { return touched_chunks_; }

 private:
  static constexpr u64 kChunkBytes = 4 * KiB;
  static constexpr u64 kLeafChunks = 512;  // one leaf covers 2 MiB
  using Leaf = std::array<std::unique_ptr<u8[]>, kLeafChunks>;

  void check_range(PhysAddr addr, u64 bytes) const {
    if (addr + bytes > size_ || addr + bytes < addr) [[unlikely]]
      throw_out_of_range(addr, bytes);
  }
  [[noreturn]] void throw_out_of_range(PhysAddr addr, u64 bytes) const;

  /// Chunk `index`'s bytes, or null while it is untouched.
  const u8* find_chunk(u64 index) const {
    const Leaf* leaf = leaves_[index / kLeafChunks].get();
    return leaf ? (*leaf)[index % kLeafChunks].get() : nullptr;
  }
  /// Chunk `index`'s bytes, allocated (zeroed) on first touch.
  u8* chunk(u64 index) {
    Leaf* leaf = leaves_[index / kLeafChunks].get();
    u8* c = leaf ? (*leaf)[index % kLeafChunks].get() : nullptr;
    return c ? c : add_chunk(index);
  }
  u8* add_chunk(u64 index);

  u64 size_;
  std::vector<std::unique_ptr<Leaf>> leaves_;  // one slot per 2 MiB
  std::size_t touched_chunks_ = 0;
};

}  // namespace vmsls::mem
