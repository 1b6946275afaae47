// Per-hardware-thread MMU front end: TLB + shared walker + fault plumbing.
//
// This is the component the toolflow instantiates between a hardware
// thread's memory port and the system bus. Translation flow:
//
//   TLB hit                 -> +hit_latency cycles
//   TLB miss                -> queue on the shared PageWalker
//   walk fault / permission -> raise to the FaultSink (the runtime's
//                              delegate thread); when the OS has mapped the
//                              page it calls retry() and the translation
//                              restarts transparently.
//
// With `translation_enabled = false` the MMU degenerates to a physical
// pass-through, which is how the copy-based DMA baseline's kernels run.
#pragma once

#include <functional>
#include <string>

#include "mem/tlb.hpp"
#include "mem/walker.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::mem {

/// A fault forwarded to the OS model. `retry` restarts the faulting
/// translation after service; call it exactly once. (It captures only the
/// MMU and its pooled translation record, so std::function holds it
/// without allocating.)
struct FaultRequest {
  unsigned thread_id = 0;
  VirtAddr va = 0;
  bool is_write = false;
  std::function<void()> retry;
};

class FaultSink {
 public:
  virtual ~FaultSink() = default;
  virtual void raise(FaultRequest req) = 0;
};

struct MmuConfig {
  TlbConfig tlb;
  bool translation_enabled = true;

  /// Maintain PTE accessed/dirty bits on TLB hits (functional update the
  /// replacement policies consume). Defaults on; systems without a pager
  /// disable it to keep the hit path free of page-table work.
  bool ad_tracking = true;

  /// Next-page prefetch: a demand miss on page N also queues a walk for
  /// page N+1 and fills the TLB in the background (faults are dropped
  /// silently). Hides compulsory misses of sequential streams at the cost
  /// of walker occupancy; ablation A3.
  bool prefetch_next_page = false;
};

/// Completion of a translation: receives the physical address.
using TranslateFn = sim::InlineFn<void(PhysAddr)>;

class Mmu {
 public:
  Mmu(sim::Simulator& sim, PageWalker& walker, const MmuConfig& cfg, std::string name,
      unsigned thread_id);

  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  /// The sink must outlive the MMU; without one, faults are fatal (tests
  /// exercise pinned-only systems that must never fault).
  void set_fault_sink(FaultSink* sink) noexcept { sink_ = sink; }

  /// Translates `va`; `done(pa)` fires exactly once, when a valid
  /// translation exists, after any walk and fault service completes.
  /// `done` is a move-only sim::InlineFn: closures up to 56 bytes are held
  /// inline. While the translation is in flight it lives in a pooled record;
  /// the TLB-latency event, the walker callback and the fault's `retry`
  /// capture only (this, record), so steady-state translation allocates
  /// nothing.
  ///
  /// Fast path: when the translation adds zero modeled latency — physical
  /// pass-through, or a TLB hit with hit_latency == 0 — `done` is invoked
  /// synchronously, inside this call, without touching the scheduler
  /// (counted in `<name>.inline_completions`). Callers must therefore not
  /// assume `done` runs after the current event returns.
  void translate(VirtAddr va, bool is_write, TranslateFn done);

  /// Translations completed synchronously (no scheduler round-trip).
  u64 inline_completions() const noexcept { return inline_completions_.value(); }

  Tlb& tlb() noexcept { return tlb_; }
  const Tlb& tlb() const noexcept { return tlb_; }
  bool translation_enabled() const noexcept { return cfg_.translation_enabled; }
  unsigned thread_id() const noexcept { return thread_id_; }
  unsigned page_bits() const noexcept { return walker_.page_bits(); }

  /// TLB shootdown entry points, driven by the OS model on unmap/protect.
  void shootdown(VirtAddr va);
  void shootdown_all();

 private:
  /// One translation in flight.
  struct Translation {
    VirtAddr va = 0;
    bool is_write = false;
    PhysAddr pa = 0;
    TranslateFn done;
  };

  void lookup(Translation* t);
  void on_walk_done(Translation* t, const WalkResult& r);
  void complete(Translation* t);
  void maybe_prefetch(u64 missed_vpn);

  sim::Simulator& sim_;
  PageWalker& walker_;
  MmuConfig cfg_;
  std::string name_;
  unsigned thread_id_;
  Tlb tlb_;
  FaultSink* sink_ = nullptr;
  u64 prefetch_inflight_vpn_ = ~0ull;
  Pool<Translation> pending_;

  Counter& translations_;
  Counter& fault_raises_;
  Counter& prefetches_;
  Counter& prefetch_fills_;
  Counter& inline_completions_;
};

}  // namespace vmsls::mem
