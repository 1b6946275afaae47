#include <gtest/gtest.h>

#include "mem/frames.hpp"
#include "mem/physmem.hpp"

namespace vmsls::mem {
namespace {

TEST(PhysicalMemory, ReadsZeroWhenUntouched) {
  PhysicalMemory pm(1 * MiB);
  EXPECT_EQ(pm.read_u64(0x1000), 0u);
  EXPECT_EQ(pm.touched_chunks(), 0u);
}

TEST(PhysicalMemory, RoundTripScalar) {
  PhysicalMemory pm(1 * MiB);
  pm.write_u64(64, 0xdeadbeefcafef00dull);
  EXPECT_EQ(pm.read_u64(64), 0xdeadbeefcafef00dull);
  pm.write_scalar<u8>(7, 0xab);
  EXPECT_EQ(pm.read_scalar<u8>(7), 0xab);
}

TEST(PhysicalMemory, CrossChunkBlockAccess) {
  PhysicalMemory pm(1 * MiB);
  std::vector<u8> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 13);
  pm.write(4090, std::span<const u8>(data.data(), data.size()));  // spans 3+ chunks
  std::vector<u8> back(data.size());
  pm.read(4090, std::span<u8>(back.data(), back.size()));
  EXPECT_EQ(back, data);
  EXPECT_EQ(pm.touched_chunks(), 4u);  // bytes [4090, 14090) live in chunks 0..3
}

TEST(PhysicalMemory, ScalarStraddlingAChunkBoundary) {
  PhysicalMemory pm(1 * MiB);
  pm.write_u64(4092, 0x0123456789abcdefull);  // 4 bytes in chunk 0, 4 in chunk 1
  EXPECT_EQ(pm.read_u64(4092), 0x0123456789abcdefull);
  EXPECT_EQ(pm.touched_chunks(), 2u);
  EXPECT_EQ(pm.read_scalar<u32>(4092), 0x89abcdefu);
  EXPECT_EQ(pm.read_scalar<u32>(4096), 0x01234567u);
}

TEST(PhysicalMemory, BlockCrossingA2MiBBoundary) {
  PhysicalMemory pm(8 * MiB);
  std::vector<u8> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7 + 1);
  const PhysAddr at = 4 * MiB - 100;
  pm.write(at, std::span<const u8>(data.data(), data.size()));
  std::vector<u8> back(data.size());
  pm.read(at, std::span<u8>(back.data(), back.size()));
  EXPECT_EQ(back, data);
  EXPECT_EQ(pm.touched_chunks(), 2u);
  EXPECT_EQ(pm.read_scalar<u8>(4 * MiB - 1), data[99]);
  EXPECT_EQ(pm.read_scalar<u8>(4 * MiB), data[100]);
}

TEST(PhysicalMemory, SizeNotAMultipleOf2MiB) {
  const u64 size = 2 * MiB + 4 * KiB;
  PhysicalMemory pm(size);
  EXPECT_EQ(pm.read_scalar<u8>(size - 1), 0u);
  pm.write_scalar<u8>(size - 1, 0x5a);
  EXPECT_EQ(pm.read_scalar<u8>(size - 1), 0x5a);
  pm.write_u64(size - 8, 0x1122334455667788ull);
  EXPECT_EQ(pm.read_u64(size - 8), 0x1122334455667788ull);
  EXPECT_THROW(pm.read_scalar<u8>(size), std::out_of_range);
  EXPECT_THROW(pm.write_scalar<u8>(size, 1), std::out_of_range);
  EXPECT_THROW(pm.read_u64(size - 7), std::out_of_range);
  u8 byte = 0;
  EXPECT_THROW(pm.read(size, std::span<u8>(&byte, 1)), std::out_of_range);
  EXPECT_THROW(pm.clear(size - 1, 2), std::out_of_range);
  EXPECT_EQ(pm.touched_chunks(), 1u);
}

TEST(PhysicalMemory, WrappingAddressThrows) {
  PhysicalMemory pm(1 * MiB);
  EXPECT_THROW(pm.read_u64(~0ull - 3), std::out_of_range);
  EXPECT_THROW(pm.write_u64(~0ull - 3, 1), std::out_of_range);
  std::vector<u8> buf(16);
  EXPECT_THROW(pm.read(~0ull - 7, std::span<u8>(buf.data(), buf.size())), std::out_of_range);
  EXPECT_EQ(pm.touched_chunks(), 0u);
}

TEST(PhysicalMemory, UntouchedNeighborsReadZero) {
  PhysicalMemory pm(4 * MiB);
  pm.write_u64(2 * MiB + 4 * KiB + 8, ~0ull);
  EXPECT_EQ(pm.read_u64(2 * MiB + 4 * KiB - 8), 0u);  // previous chunk, same leaf
  EXPECT_EQ(pm.read_u64(2 * MiB + 8 * KiB), 0u);      // next chunk, same leaf
  EXPECT_EQ(pm.read_u64(2 * MiB - 8), 0u);            // previous leaf
  std::vector<u8> span(3 * 4 * KiB, 0xff);
  pm.read(2 * MiB, std::span<u8>(span.data(), span.size()));
  for (std::size_t i = 0; i < span.size(); ++i)
    EXPECT_EQ(span[i], (i >= 4 * KiB + 8 && i < 4 * KiB + 16) ? 0xff : 0x00) << i;
  EXPECT_EQ(pm.touched_chunks(), 1u);
}

TEST(PhysicalMemory, OutOfRangeThrows) {
  PhysicalMemory pm(64 * KiB);
  EXPECT_THROW(pm.read_u64(64 * KiB), std::out_of_range);
  EXPECT_THROW(pm.write_u64(64 * KiB - 4, 1), std::out_of_range);
  EXPECT_NO_THROW(pm.write_u64(64 * KiB - 8, 1));
}

TEST(PhysicalMemory, ClearZeroes) {
  PhysicalMemory pm(1 * MiB);
  pm.write_u64(100, ~0ull);
  pm.clear(96, 16);
  EXPECT_EQ(pm.read_u64(100), 0u);
}

TEST(PhysicalMemory, ClearOfAnUntouchedRangeTouchesItsChunks) {
  PhysicalMemory pm(1 * MiB);
  pm.clear(8 * KiB - 4, 8);  // straddles chunks 1 and 2
  EXPECT_EQ(pm.touched_chunks(), 2u);
  EXPECT_EQ(pm.read_u64(8 * KiB - 4), 0u);
}

TEST(PhysicalMemory, RejectsUnalignedSize) {
  EXPECT_THROW(PhysicalMemory(1000), std::invalid_argument);
  EXPECT_THROW(PhysicalMemory(0), std::invalid_argument);
}

TEST(PhysicalMemory, SparseStorageStaysSmall) {
  PhysicalMemory pm(512 * MiB);
  pm.write_u64(400 * MiB, 1);
  EXPECT_EQ(pm.touched_chunks(), 1u);
}

// --- frame allocator ---

TEST(FrameAllocator, AllocReturnsDistinctFrames) {
  FrameAllocator fa(0, 16, 4 * KiB);
  std::set<u64> seen;
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(seen.insert(*fa.alloc()).second);
  EXPECT_EQ(fa.free_frames(), 0u);
  // Exhaustion is a normal event, reported as nullopt for the pager.
  EXPECT_FALSE(fa.alloc().has_value());
}

TEST(FrameAllocator, FreeMakesFrameReusable) {
  FrameAllocator fa(0, 2, 4 * KiB);
  const u64 a = *fa.alloc();
  fa.alloc();
  EXPECT_FALSE(fa.alloc().has_value());
  fa.free(a);
  EXPECT_EQ(fa.alloc(), a);
}

TEST(FrameAllocator, DoubleFreeThrows) {
  FrameAllocator fa(0, 4, 4 * KiB);
  const u64 f = *fa.alloc();
  fa.free(f);
  EXPECT_THROW(fa.free(f), std::invalid_argument);
}

TEST(FrameAllocator, FrameAddrMatchesRegionBase) {
  FrameAllocator fa(1 * MiB, 8, 64 * KiB);
  const u64 f = *fa.alloc();
  EXPECT_EQ(fa.frame_addr(f), 1 * MiB);
  EXPECT_TRUE(fa.is_allocated(f));
}

TEST(FrameAllocator, ContiguousRunIsContiguous) {
  FrameAllocator fa(0, 32, 4 * KiB);
  const u64 first = *fa.alloc_contiguous(8);
  for (u64 i = 0; i < 8; ++i) EXPECT_TRUE(fa.is_allocated(first + i));
  EXPECT_EQ(fa.used_frames(), 8u);
  fa.free_contiguous(first, 8);
  EXPECT_EQ(fa.used_frames(), 0u);
}

TEST(FrameAllocator, ContiguousFailsWhenFragmented) {
  FrameAllocator fa(0, 8, 4 * KiB);
  std::vector<u64> singles;
  for (int i = 0; i < 8; ++i) singles.push_back(*fa.alloc());
  // Free every other frame: max run is 1.
  for (std::size_t i = 0; i < singles.size(); i += 2) fa.free(singles[i]);
  EXPECT_FALSE(fa.alloc_contiguous(2).has_value());
  EXPECT_TRUE(fa.alloc_contiguous(1).has_value());
}

TEST(FrameAllocator, OutOfRegionFrameThrows) {
  FrameAllocator fa(0, 4, 4 * KiB);
  EXPECT_THROW(fa.free(100), std::invalid_argument);
}

}  // namespace
}  // namespace vmsls::mem
