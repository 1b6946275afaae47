#include "mem/mmu.hpp"

#include <stdexcept>
#include <utility>

namespace vmsls::mem {

Mmu::Mmu(sim::Simulator& sim, PageWalker& walker, const MmuConfig& cfg, std::string name,
         unsigned thread_id)
    : sim_(sim),
      walker_(walker),
      cfg_(cfg),
      name_(std::move(name)),
      thread_id_(thread_id),
      tlb_(cfg.tlb, sim.stats(), name_ + ".tlb"),
      translations_(sim.stats().counter(name_ + ".translations")),
      fault_raises_(sim.stats().counter(name_ + ".faults")),
      prefetches_(sim.stats().counter(name_ + ".prefetches")),
      prefetch_fills_(sim.stats().counter(name_ + ".prefetch_fills")),
      inline_completions_(sim.stats().counter(name_ + ".inline_completions")) {}

void Mmu::maybe_prefetch(u64 missed_vpn) {
  if (!cfg_.prefetch_next_page) return;
  const u64 next_vpn = missed_vpn + 1;
  if (next_vpn == prefetch_inflight_vpn_ || tlb_.peek(next_vpn).has_value()) return;
  prefetch_inflight_vpn_ = next_vpn;
  prefetches_.add();
  const VirtAddr next_va = next_vpn << walker_.page_bits();
  walker_.walk(next_va, [this, next_vpn](const WalkResult& r) {
    if (prefetch_inflight_vpn_ == next_vpn) prefetch_inflight_vpn_ = ~0ull;
    if (r.fault) return;  // prefetches never raise faults
    tlb_.insert(next_vpn, r.frame, r.writable);
    prefetch_fills_.add();
  });
}

void Mmu::translate(VirtAddr va, bool is_write, TranslateFn done) {
  if (!cfg_.translation_enabled) {
    // Physical pass-through: the "MMU-less" accelerator of the DMA baseline.
    // Zero modeled latency, so complete inline — no scheduler traffic at
    // all on this path (inline_completions counts it; tests assert
    // events_scheduled() stays flat here).
    inline_completions_.add();
    done(va);
    return;
  }
  Translation* t = pending_.acquire();
  t->va = va;
  t->is_write = is_write;
  t->done = std::move(done);
  lookup(t);
}

void Mmu::lookup(Translation* t) {
  translations_.add();
  const unsigned page_bits = walker_.page_bits();
  const VirtAddr va = t->va;
  const u64 vpn = va >> page_bits;
  const u64 offset = va & ((1ull << page_bits) - 1);

  if (auto entry = tlb_.lookup(vpn)) {
    if (t->is_write && !entry->writable) {
      // Permission fault: stale or read-only mapping. Drop the entry and
      // take the long path so the OS can upgrade the mapping.
      tlb_.invalidate(vpn);
    } else {
      // Keep the PTE's accessed/dirty bits fresh on TLB hits too, or the
      // pager's CLOCK hand would evict pages that are hot in the TLB. The
      // walker funnel charges the PTE write-back when a bit flips.
      if (cfg_.ad_tracking) walker_.note_ad_update(va, t->is_write);
      t->pa = (entry->frame << page_bits) | offset;
      const Cycles hit_latency = tlb_.config().hit_latency;
      if (hit_latency == 0) {
        // Combinational TLB: complete inline, same cycle, no event.
        inline_completions_.add();
        complete(t);
      } else {
        sim_.schedule_in(hit_latency, [this, t] { complete(t); });
      }
      return;
    }
  }

  walker_.walk(va, [this, t](const WalkResult& r) { on_walk_done(t, r); });
  maybe_prefetch(vpn);
}

void Mmu::on_walk_done(Translation* t, const WalkResult& r) {
  const unsigned page_bits = walker_.page_bits();
  const VirtAddr va = t->va;
  const bool is_write = t->is_write;
  const bool permission_fault = !r.fault && is_write && !r.writable;
  if (r.fault || permission_fault) {
    fault_raises_.add();
    if (sink_ == nullptr)
      throw std::runtime_error(name_ + ": unhandled " +
                               (permission_fault ? std::string("permission") : std::string("page")) +
                               " fault at va=0x" + std::to_string(va));
    FaultRequest req;
    req.thread_id = thread_id_;
    req.va = va;
    req.is_write = is_write;
    req.retry = [this, t] { lookup(t); };
    sink_->raise(std::move(req));
    return;
  }
  if (is_write) walker_.note_ad_update(va, /*dirty=*/true);
  tlb_.insert(va >> page_bits, r.frame, r.writable);
  t->pa = (r.frame << page_bits) | (va & ((1ull << page_bits) - 1));
  complete(t);
}

void Mmu::complete(Translation* t) {
  TranslateFn done = std::move(t->done);
  const PhysAddr pa = t->pa;
  pending_.release(t);  // recycle before the continuation translates again
  done(pa);
}

void Mmu::shootdown(VirtAddr va) { tlb_.invalidate(va >> walker_.page_bits()); }

void Mmu::shootdown_all() { tlb_.flush(); }

}  // namespace vmsls::mem
