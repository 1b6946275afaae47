#include "mem/physmem.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace vmsls::mem {

PhysicalMemory::PhysicalMemory(u64 size_bytes) : size_(size_bytes) {
  require(size_bytes > 0, "physical memory size must be nonzero");
  require(is_aligned(size_bytes, kChunkBytes), "physical memory size must be 4 KiB aligned");
  leaves_.resize(ceil_div(size_bytes, kChunkBytes * kLeafChunks));
}

void PhysicalMemory::throw_out_of_range(PhysAddr addr, u64 bytes) const {
  throw std::out_of_range("physical access [" + std::to_string(addr) + ", +" +
                          std::to_string(bytes) + ") outside memory of size " +
                          std::to_string(size_));
}

u8* PhysicalMemory::add_chunk(u64 index) {
  auto& leaf = leaves_[index / kLeafChunks];
  if (!leaf) leaf = std::make_unique<Leaf>();
  auto& c = (*leaf)[index % kLeafChunks];
  c = std::make_unique<u8[]>(kChunkBytes);  // value-initialized: zeroed
  ++touched_chunks_;
  return c.get();
}

void PhysicalMemory::read(PhysAddr addr, std::span<u8> out) const {
  check_range(addr, out.size());
  u64 done = 0;
  while (done < out.size()) {
    const u64 a = addr + done;
    const u64 off = a % kChunkBytes;
    const u64 n = std::min<u64>(kChunkBytes - off, out.size() - done);
    if (const u8* c = find_chunk(a / kChunkBytes))
      std::memcpy(out.data() + done, c + off, n);
    else
      std::memset(out.data() + done, 0, n);
    done += n;
  }
}

void PhysicalMemory::write(PhysAddr addr, std::span<const u8> data) {
  check_range(addr, data.size());
  u64 done = 0;
  while (done < data.size()) {
    const u64 a = addr + done;
    const u64 off = a % kChunkBytes;
    const u64 n = std::min<u64>(kChunkBytes - off, data.size() - done);
    std::memcpy(chunk(a / kChunkBytes) + off, data.data() + done, n);
    done += n;
  }
}

void PhysicalMemory::clear(PhysAddr addr, u64 bytes) {
  check_range(addr, bytes);
  u64 done = 0;
  while (done < bytes) {
    const u64 a = addr + done;
    const u64 off = a % kChunkBytes;
    const u64 n = std::min<u64>(kChunkBytes - off, bytes - done);
    std::memset(chunk(a / kChunkBytes) + off, 0, n);
    done += n;
  }
}

}  // namespace vmsls::mem
