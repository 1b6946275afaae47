#include "cpu/cached_port.hpp"

#include <limits>
#include <utility>

namespace vmsls::cpu {

CachedMemPort::CachedMemPort(sim::Simulator& sim, mem::AddressSpace& as,
                             mem::CacheHierarchy& caches, std::string name)
    : ChunkedPort(as.page_bytes(), std::numeric_limits<u32>::max()),
      as_(as),
      caches_(caches),
      reads_(sim.stats().counter(name + ".reads")),
      writes_(sim.stats().counter(name + ".writes")) {}

void CachedMemPort::read(VirtAddr va, std::span<u8> dst, sim::EventFn done) {
  require(!dst.empty(), "zero-byte CPU read");
  reads_.add();
  transfer(va, dst.data(), nullptr, dst.size(), std::move(done));
}

void CachedMemPort::write(VirtAddr va, std::span<const u8> src, sim::EventFn done) {
  require(!src.empty(), "zero-byte CPU write");
  writes_.add();
  transfer(va, nullptr, src.data(), src.size(), std::move(done));
}

void CachedMemPort::issue(Xfer* x, VirtAddr va, u64 /*off*/, u32 chunk) {
  // Software page touch: demand-map with zero modeled cost (resident
  // baseline assumption; see header comment).
  if (!as_.is_mapped(va)) as_.map_page(va);
  const PhysAddr pa = *as_.translate(va);
  caches_.access(pa, chunk, x->is_write, [this, x] { step(x); });
}

void CachedMemPort::finish(const Xfer& x) {
  if (x.is_write)
    as_.write(x.va, std::span<const u8>(x.src, x.size));
  else
    as_.read(x.va, std::span<u8>(x.dst, x.size));
}

}  // namespace vmsls::cpu
