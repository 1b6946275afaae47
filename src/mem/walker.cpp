#include "mem/walker.hpp"

#include <utility>

namespace vmsls::mem {

PageWalker::PageWalker(sim::Simulator& sim, MemoryBus& bus, PhysicalMemory& pm,
                       const PageTable& pt, const WalkerConfig& cfg, std::string name)
    : sim_(sim),
      bus_(bus),
      pm_(pm),
      pt_(pt),
      cfg_(cfg),
      name_(std::move(name)),
      cache_(cfg.walk_cache_enabled ? cfg.walk_cache_entries : 0),
      walks_(sim.stats().counter(name_ + ".walks")),
      faults_(sim.stats().counter(name_ + ".faults")),
      mem_reads_(sim.stats().counter(name_ + ".mem_reads")),
      ad_writebacks_(sim.stats().counter(name_ + ".ad_writebacks")),
      cache_hits_(sim.stats().counter(name_ + ".cache_hits")),
      cache_misses_(sim.stats().counter(name_ + ".cache_misses")),
      walk_latency_(sim.stats().histogram(name_ + ".walk_latency")),
      queue_wait_(sim.stats().histogram(name_ + ".queue_wait")) {
  require(cfg.ports > 0, "walker needs at least one port");
}

u64 PageWalker::cache_tag(VirtAddr va) const noexcept {
  return va >> (pt_.config().page_bits + pt_.index_bits());
}

bool PageWalker::cache_lookup(VirtAddr va, PhysAddr& base) {
  if (cache_.empty() || pt_.levels() < 2) return false;
  const u64 tag = cache_tag(va);
  for (auto& slot : cache_) {
    if (slot.valid && slot.tag == tag) {
      slot.lru = ++cache_tick_;
      base = slot.base;
      return true;
    }
  }
  return false;
}

void PageWalker::cache_fill(VirtAddr va, PhysAddr base) {
  if (cache_.empty() || pt_.levels() < 2) return;
  const u64 tag = cache_tag(va);
  CacheSlot* victim = &cache_.front();
  for (auto& slot : cache_) {
    if (slot.valid && slot.tag == tag) {
      victim = &slot;
      break;
    }
    if (!slot.valid) {
      if (victim->valid) victim = &slot;
    } else if (victim->valid && slot.lru < victim->lru) {
      victim = &slot;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->base = base;
  victim->lru = ++cache_tick_;
}

void PageWalker::flush_cache() {
  for (auto& slot : cache_) slot.valid = false;
}

void PageWalker::note_ad_update(VirtAddr va, bool dirty) {
  if (!pt_.set_accessed_dirty(va, dirty)) return;  // no bit flipped: free
  if (!cfg_.timed_ad_writeback) return;
  ad_writebacks_.add();
  if (const auto leaf = pt_.leaf_addr(va))
    bus_.request(BusRequest{*leaf, 8, /*is_write=*/true, [] {}});
}

void PageWalker::walk(VirtAddr va, WalkFn done) {
  queue_.push_back(Job{va, std::move(done), sim_.now()});
  try_start();
}

void PageWalker::try_start() {
  while (active_ < cfg_.ports && !queue_.empty()) begin(queue_.pop_front());
}

void PageWalker::begin(Job job) {
  ++active_;
  queue_wait_.record(sim_.now() - job.enqueued);
  walks_.add();

  Walk* w = walks_pool_.acquire();
  w->va = job.va;
  w->done = std::move(job.done);
  w->started = sim_.now();

  PhysAddr cached_base = 0;
  if (cache_lookup(w->va, cached_base)) {
    cache_hits_.add();
    w->level = pt_.levels() - 1;
    w->base = cached_base;
  } else {
    if (!cache_.empty() && pt_.levels() >= 2) cache_misses_.add();
    w->level = 0;
    w->base = pt_.root_addr();
  }
  sim_.schedule_in(cfg_.setup_latency, [this, w] { read_level(w); });
}

void PageWalker::read_level(Walk* w) {
  const PhysAddr pa = pt_.pte_addr(w->base, w->level, w->va);
  mem_reads_.add();
  bus_.request(BusRequest{pa, 8, /*is_write=*/false,
                          [this, w, pa] { on_pte(w, pm_.read_u64(pa)); }});
}

void PageWalker::on_pte(Walk* w, u64 raw) {
  const Pte pte = Pte::decode(raw);
  if (!pte.valid) {
    WalkResult r;
    r.fault = true;
    r.fault_level = w->level;
    finish(w, r);
    return;
  }
  if (w->level + 1 == pt_.levels()) {
    // Leaf. The walker sets the accessed bit on fill — the hardware side of
    // the contract the replacement policies consume — and charges the PTE
    // write-back when the bit flipped (timed_ad_writeback).
    note_ad_update(w->va, /*dirty=*/false);
    // Remember the table it lives in for subsequent same-region walks.
    cache_fill(w->va, w->base);
    WalkResult r;
    r.frame = pte.frame;
    r.writable = pte.writable;
    finish(w, r);
    return;
  }
  w->base = pt_.page_bytes() * pte.frame;
  ++w->level;
  read_level(w);
}

void PageWalker::finish(Walk* w, const WalkResult& r) {
  if (r.fault) faults_.add();
  walk_latency_.record(sim_.now() - w->started);
  --active_;
  WalkFn done = std::move(w->done);
  walks_pool_.release(w);  // recycle before the continuation starts new walks
  done(r);
  try_start();
}

}  // namespace vmsls::mem
