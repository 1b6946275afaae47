#include "hwt/hw_port.hpp"

#include <utility>

namespace vmsls::hwt {

HwMemPort::HwMemPort(sim::Simulator& sim, mem::Mmu& mmu, mem::MemoryBus& bus,
                     mem::PhysicalMemory& pm, const HwPortConfig& cfg, std::string name)
    : ChunkedPort(1ull << mmu.page_bits(), cfg.max_burst_bytes),
      mmu_(mmu),
      bus_(bus),
      pm_(pm),
      reads_(sim.stats().counter(name + ".reads")),
      writes_(sim.stats().counter(name + ".writes")),
      bytes_(sim.stats().counter(name + ".bytes")) {
  require(cfg.max_burst_bytes > 0, "burst cap must be nonzero");
}

void HwMemPort::read(VirtAddr va, std::span<u8> dst, sim::EventFn done) {
  require(!dst.empty(), "zero-byte port read");
  reads_.add();
  bytes_.add(dst.size());
  transfer(va, dst.data(), nullptr, dst.size(), std::move(done));
}

void HwMemPort::write(VirtAddr va, std::span<const u8> src, sim::EventFn done) {
  require(!src.empty(), "zero-byte port write");
  writes_.add();
  bytes_.add(src.size());
  transfer(va, nullptr, src.data(), src.size(), std::move(done));
}

void HwMemPort::issue(Xfer* x, VirtAddr va, u64 off, u32 chunk) {
  // The pin covers translation (including any fault service) through bus
  // completion: the physical address captured below stays valid because no
  // replacement policy will victimize a pinned page.
  if (as_ != nullptr) as_->pin(va);
  mmu_.translate(va, x->is_write, [this, x, va, off, chunk](PhysAddr pa) {
    bus_.request(mem::BusRequest{pa, chunk, x->is_write, [this, x, va, pa, off, chunk] {
      if (x->is_write)
        pm_.write(pa, std::span<const u8>(x->src + off, chunk));
      else
        pm_.read(pa, std::span<u8>(x->dst + off, chunk));
      if (as_ != nullptr) as_->unpin(va);
      step(x);
    }});
  });
}

}  // namespace vmsls::hwt
