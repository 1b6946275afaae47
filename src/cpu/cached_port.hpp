// Software-thread memory port: cached, software-translated.
//
// The CPU's own MMU/TLB is not modeled cycle-by-cycle — its translation
// cost is folded into the cache hit latencies, as is standard for
// application-level CPU models. Touching an unmapped page maps it on demand
// with zero extra cost (the software baseline is assumed resident, which
// favors the baseline and keeps our speedup claims conservative).
//
// Transfers split at page boundaries through the shared ChunkedPort loop;
// each chunk pays the cache hierarchy's timing, and the functional data
// moves once, at the end of the whole transfer.
#pragma once

#include <string>

#include "hwt/ports.hpp"
#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "sim/simulator.hpp"

namespace vmsls::cpu {

class CachedMemPort final : public hwt::ChunkedPort {
 public:
  CachedMemPort(sim::Simulator& sim, mem::AddressSpace& as, mem::CacheHierarchy& caches,
                std::string name);

  void read(VirtAddr va, std::span<u8> dst, sim::EventFn done) override;
  void write(VirtAddr va, std::span<const u8> src, sim::EventFn done) override;

 private:
  void issue(Xfer* x, VirtAddr va, u64 off, u32 chunk) override;
  void finish(const Xfer& x) override;

  mem::AddressSpace& as_;
  mem::CacheHierarchy& caches_;
  Counter& reads_;
  Counter& writes_;
};

}  // namespace vmsls::cpu
