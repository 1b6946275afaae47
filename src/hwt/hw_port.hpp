// Hardware-thread memory port: MMU-translated fabric bus master.
//
// This is the synthesized wrapper component that gives a hardware thread
// its virtual-memory view. Every request is split at page boundaries (a
// translation is valid for one page) and at the port's maximum burst
// length (AXI-style) by the shared ChunkedPort loop; each chunk is
// translated through the thread's MMU, then issued on the shared memory
// bus. Functional data moves between PhysicalMemory and the caller's buffer
// at each chunk's completion time.
#pragma once

#include <string>

#include "hwt/ports.hpp"
#include "mem/address_space.hpp"
#include "mem/bus.hpp"
#include "mem/mmu.hpp"
#include "mem/physmem.hpp"
#include "sim/simulator.hpp"

namespace vmsls::hwt {

struct HwPortConfig {
  u32 max_burst_bytes = 512;  // AXI burst cap
};

class HwMemPort final : public ChunkedPort {
 public:
  HwMemPort(sim::Simulator& sim, mem::Mmu& mmu, mem::MemoryBus& bus, mem::PhysicalMemory& pm,
            const HwPortConfig& cfg, std::string name);

  void read(VirtAddr va, std::span<u8> dst, sim::EventFn done) override;
  void write(VirtAddr va, std::span<const u8> src, sim::EventFn done) override;

  /// Enables in-flight page pinning against `as`: each chunk holds a pin
  /// from translation start to bus completion so replacement policies never
  /// evict the frame underneath a committed transaction. Memory-pressure
  /// systems wire this; nullptr (the default) keeps the pre-pressure model.
  void set_address_space(mem::AddressSpace* as) noexcept { as_ = as; }

 private:
  void issue(Xfer* x, VirtAddr va, u64 off, u32 chunk) override;

  mem::Mmu& mmu_;
  mem::MemoryBus& bus_;
  mem::PhysicalMemory& pm_;
  mem::AddressSpace* as_ = nullptr;

  Counter& reads_;
  Counter& writes_;
  Counter& bytes_;
};

}  // namespace vmsls::hwt
