#include "sls/audit.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "mem/frames.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/pager.hpp"
#include "rt/process.hpp"

namespace vmsls::sls {

namespace {

/// Position of `item` in `seen`, appending it on first use.
template <typename T>
std::size_t index_of(std::vector<const T*>& seen, const T* item) {
  const auto it = std::find(seen.begin(), seen.end(), item);
  if (it != seen.end()) return static_cast<std::size_t>(it - seen.begin());
  seen.push_back(item);
  return seen.size() - 1;
}

/// A field or helper of `cur` over the audited window; unsigned wrap keeps
/// differences of sums exact.
template <typename T, typename F>
u64 window(const T& cur, const T* base, F f) {
  return std::invoke(f, cur) - (base != nullptr ? std::invoke(f, *base) : 0);
}

/// Counts the address space's page-state records that are in no lifecycle,
/// and those a drained pager must not hold. A record's lifecycle is exactly
/// one of: resident (its live bit set and the page table mapping it),
/// swapped (not resident; a swap slot and saved contents), saved (not
/// resident; saved contents without a slot — a fork-inherited copy), or
/// neither (never evicted, or file-backed and clean). A record fitting none
/// is stray: live without a mapping, a slot without saved contents, or a
/// speculative flag on a non-resident page. (A mapping without the live
/// bit shows up as refcount > page-table mappings, counted over live
/// records.)
void census(const mem::AddressSpace& as, PagerLedger& out) {
  as.page_states().for_each([&](u64 vpn, const mem::PageState& ps) {
    const bool stray = as.page_states().live(vpn)
                           ? !as.is_mapped(vpn * as.page_bytes())
                           : (ps.holds_slot() && ps.backing == 0) ||
                                 ps.has(mem::PageState::kSpeculative);
    out.stray_pages += stray ? 1 : 0;
    out.pinned_pages += ps.pins != 0 ? 1 : 0;
    out.pending_pages += ps.has(mem::PageState::kPending) ? 1 : 0;
    out.inflight_pages += ps.fault != 0 ? 1 : 0;
  });
}

}  // namespace

Ledgers snapshot_ledgers(const std::vector<paging::Pager*>& pagers,
                         const mem::FrameAllocator& frames, const paging::FramePool* pool) {
  Ledgers s;
  std::vector<const paging::SwapScheduler*> swaps;
  std::vector<const paging::BufferCache*> caches;
  std::map<u64, u64> mappings;  // frame -> mappings over every page table
  for (paging::Pager* pg : pagers) {
    const paging::BufferCache& bc = pg->buffer_cache();
    s.pagers.push_back({
        .name = pg->name(),
        .unmaps = pg->process().evicted_pages(),
        .swap_releases = pg->swap_releases(), .file_drops = pg->file_drops(),
        .file_writebacks = pg->file_writebacks(), .shared_releases = pg->shared_releases(),
        .swap_ins = pg->swap_ins(), .file_reads = pg->file_reads(),
        .zero_fills = pg->zero_fills(), .share_hits = pg->share_hits(),
        .inherited_fills = pg->inherited_fills(),
        .cow_copies = pg->cow_copies(), .cow_upgrades = pg->cow_upgrades(),
        .prefetches = pg->prefetches(), .writebacks = pg->writebacks(),
        .pageouts = pg->pageouts(),
        .swap_reads = pg->swap().reads(), .swap_writes = pg->swap().writes(),
        .client_hits = bc.client_hits(pg->bcache_client()),
        .client_misses = bc.client_misses(pg->bcache_client()),
        .resident = pg->space().resident_pages(), .maps = pg->space().maps(),
        .swap_device = index_of<paging::SwapScheduler>(swaps, &pg->swap_scheduler()),
        .cache = index_of(caches, &bc),
    });
    const mem::AddressSpace& as = pg->space();
    census(as, s.pagers.back());
    as.for_each_resident([&](u64 vpn) {
      if (const auto frame = as.frame_of(vpn)) ++mappings[*frame];  // else a stray record
    });
  }
  for (const paging::SwapScheduler* sw : swaps)
    s.swaps.push_back({sw->name(), sw->reads(), sw->writes()});
  for (const paging::BufferCache* bc : caches)
    s.caches.push_back({bc->name(), bc->hits(), bc->misses(), bc->device_reads(),
                        bc->merged_reads()});
  for (const auto& [frame, count] : mappings)
    s.frames.push_back({frame, count, frames.refcount(frame)});
  if (pool != nullptr)
    s.pool = PoolLedger{pool->name(), pool->mapped_pages(), pool->resident_pages()};
  return s;
}

Ledgers snapshot_ledgers(ProcessGroup& group) {
  std::vector<paging::Pager*> pagers;
  for (std::size_t i = 0; i < group.size(); ++i)
    if (paging::Pager* pg = group.process(i).pager(); pg != nullptr) pagers.push_back(pg);
  return snapshot_ledgers(pagers, group.frames(), &group.pool());
}

std::vector<std::string> audit(const Ledgers& now, const Ledgers* baseline) {
  require(baseline == nullptr ||
              (baseline->swaps.size() == now.swaps.size() &&
               baseline->caches.size() == now.caches.size() &&
               std::equal(now.pagers.begin(), now.pagers.end(), baseline->pagers.begin(),
                          baseline->pagers.end(),
                          [](const auto& a, const auto& b) { return a.name == b.name; })),
          "audit: the baseline snapshots different pagers");
  std::vector<std::string> violations;
  const auto check = [&violations](u64 lhs, u64 rhs, const std::string& identity,
                                   const std::string& subject) {
    if (lhs != rhs)
      violations.push_back(identity + " violated for " + subject + ": " + std::to_string(lhs) +
                           " vs " + std::to_string(rhs));
  };

  std::vector<u64> owner_reads(now.swaps.size()), owner_writes(now.swaps.size());
  std::vector<u64> client_hits(now.caches.size()), client_misses(now.caches.size());
  for (std::size_t i = 0; i < now.pagers.size(); ++i) {
    using L = PagerLedger;
    const L& p = now.pagers[i];
    const L* b = baseline != nullptr ? &baseline->pagers[i] : nullptr;
    const auto d = [&](auto f) { return window(p, b, f); };
    check(d(&L::unmaps), d(&L::unmap_buckets),
          "unmaps == swap_releases + file_drops + file_writebacks + shared_releases", p.name);
    check(d(&L::swap_reads), d(&L::swap_ins) + d(&L::prefetches),
          "swap reads == swap_ins + prefetches", p.name);
    check(d(&L::swap_writes), d(&L::writebacks) + d(&L::pageouts),
          "swap writes == writebacks + pageouts", p.name);
    check(d(&L::file_reads), d(&L::client_hits) + d(&L::client_misses),
          "file_reads == client hits + client misses", p.name);
    check(d(&L::resident), d(&L::maps) - d(&L::unmaps), "resident == maps - unmaps", p.name);
    check(p.stray_pages, 0, "every page record in exactly one lifecycle (stray records)",
          p.name);
    check(p.pinned_pages, 0, "drained: no pinned pages", p.name);
    check(p.pending_pages, 0, "drained: no pending frame reservations", p.name);
    check(p.inflight_pages, 0, "drained: no in-flight faults", p.name);
    owner_reads[p.swap_device] += d(&L::swap_reads);
    owner_writes[p.swap_device] += d(&L::swap_writes);
    client_hits[p.cache] += d(&L::client_hits);
    client_misses[p.cache] += d(&L::client_misses);
  }
  for (std::size_t k = 0; k < now.swaps.size(); ++k) {
    using D = SwapDeviceLedger;
    const D& dev = now.swaps[k];
    const D* b = baseline != nullptr ? &baseline->swaps[k] : nullptr;
    check(window(dev, b, &D::reads), owner_reads[k], "device reads == sum of owner reads",
          dev.name);
    check(window(dev, b, &D::writes), owner_writes[k], "device writes == sum of owner writes",
          dev.name);
  }
  for (std::size_t k = 0; k < now.caches.size(); ++k) {
    using C = CacheLedger;
    const C& c = now.caches[k];
    const C* b = baseline != nullptr ? &baseline->caches[k] : nullptr;
    const auto d = [&](auto f) { return window(c, b, f); };
    // One identity: the client windows partition hits and misses together.
    if (d(&C::hits) != client_hits[k] || d(&C::misses) != client_misses[k])
      violations.push_back("client windows == cache totals violated for " + c.name + ": hits " +
                           std::to_string(d(&C::hits)) + " vs " + std::to_string(client_hits[k]) +
                           ", misses " + std::to_string(d(&C::misses)) + " vs " +
                           std::to_string(client_misses[k]));
    check(d(&C::misses), d(&C::device_reads) + d(&C::merged_reads),
          "cache misses == device_reads + merged_reads", c.name);
  }

  u64 mappings = 0;
  for (const FrameLedger& f : now.frames) {
    check(f.refcount, f.mappings, "refcount == page-table mappings",
          "frame " + std::to_string(f.frame));
    mappings += f.mappings;
  }
  if (now.pool) {
    check(now.pool->mapped_pages, mappings, "pool mapped_pages == page-table mappings",
          now.pool->name);
    check(now.pool->resident_pages, now.frames.size(), "pool resident_pages == mapped frames",
          now.pool->name);
  }
  return violations;
}

}  // namespace vmsls::sls
