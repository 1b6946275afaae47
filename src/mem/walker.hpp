// Hardware page-table walker.
//
// A single walker component is shared by all hardware threads (the paper's
// MMU is a shared fabric block). It services up to `ports` walks
// concurrently — the default of 1 serializes all misses, which the
// thread-scaling experiment measures, and ablation A4 adds ports. Each
// level of the radix walk is one 8-byte read on the memory bus. An optional
// page-walk cache remembers the last-level interior table for recently
// walked regions, cutting full walks to a single memory read (ablation A1).
#pragma once

#include <string>
#include <vector>

#include "mem/bus.hpp"
#include "mem/pagetable.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::mem {

struct WalkerConfig {
  Cycles setup_latency = 2;  // miss-handling handshake before the first read
  bool walk_cache_enabled = true;
  unsigned walk_cache_entries = 16;
  unsigned ports = 1;  // concurrent walks serviced
  /// Charge each accessed/dirty-bit PTE update as a posted 8-byte bus write
  /// at the leaf PTE's address (real MMUs write the bit back to memory; the
  /// traffic is visible on the fabric). Off = functional-only updates, the
  /// pre-PR model. Only *changing* a bit pays — re-setting an already-set
  /// bit is free, as in hardware.
  bool timed_ad_writeback = true;
};

struct WalkResult {
  bool fault = false;
  unsigned fault_level = 0;  // level whose PTE was invalid (0 = root)
  u64 frame = 0;
  bool writable = false;
};

/// Completion of a walk (successful or faulting).
using WalkFn = sim::InlineFn<void(const WalkResult&)>;

class PageWalker {
 public:
  PageWalker(sim::Simulator& sim, MemoryBus& bus, PhysicalMemory& pm, const PageTable& pt,
             const WalkerConfig& cfg, std::string name);

  PageWalker(const PageWalker&) = delete;
  PageWalker& operator=(const PageWalker&) = delete;

  /// Starts (or queues) a walk for `va`; `done` fires when the walk
  /// completes, successfully or with a fault.
  void walk(VirtAddr va, WalkFn done);

  /// Drops all cached interior entries. The OS model calls this as part of
  /// TLB shootdown whenever it changes the page tables.
  void flush_cache();

  /// Funnel for every hardware accessed/dirty-bit update (walker leaf fills
  /// and the MMU's TLB-hit refreshes): performs the functional PTE update
  /// and, when a bit actually changed and timed_ad_writeback is on, posts
  /// the 8-byte PTE write on the memory bus (fire-and-forget — the walk or
  /// translation does not stall on it, but the fabric carries the traffic).
  void note_ad_update(VirtAddr va, bool dirty);

  const PageTable& page_table() const noexcept { return pt_; }
  unsigned page_bits() const noexcept { return pt_.config().page_bits; }
  unsigned active_walks() const noexcept { return active_; }

 private:
  struct Job {
    VirtAddr va = 0;
    WalkFn done;
    Cycles enqueued = 0;
  };
  /// Per-walk state machine; several may be in flight. Instances are
  /// pooled and recycled (each callback chain holds exactly one live
  /// pointer at a time), so steady-state walks do not allocate.
  struct Walk {
    VirtAddr va = 0;
    unsigned level = 0;
    PhysAddr base = 0;
    WalkFn done;
    Cycles started = 0;
  };
  struct CacheSlot {
    bool valid = false;
    u64 tag = 0;        // va >> (page_bits + index_bits)
    PhysAddr base = 0;  // leaf table base
    u64 lru = 0;
  };

  void try_start();
  void begin(Job job);
  void read_level(Walk* w);
  void on_pte(Walk* w, u64 raw);
  void finish(Walk* w, const WalkResult& r);

  bool cache_lookup(VirtAddr va, PhysAddr& base);
  void cache_fill(VirtAddr va, PhysAddr base);
  u64 cache_tag(VirtAddr va) const noexcept;

  sim::Simulator& sim_;
  MemoryBus& bus_;
  PhysicalMemory& pm_;
  const PageTable& pt_;
  WalkerConfig cfg_;
  std::string name_;

  Fifo<Job> queue_;
  unsigned active_ = 0;
  Pool<Walk> walks_pool_;

  std::vector<CacheSlot> cache_;
  u64 cache_tick_ = 0;

  Counter& walks_;
  Counter& faults_;
  Counter& mem_reads_;
  Counter& ad_writebacks_;
  Counter& cache_hits_;
  Counter& cache_misses_;
  Histogram& walk_latency_;
  Histogram& queue_wait_;
};

}  // namespace vmsls::mem
