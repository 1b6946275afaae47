// Timed swap device: the backing store the pager daemon pages against.
//
// Models a single-ported block device (SD/flash-class on a Zynq board):
// each page-sized transfer pays a fixed access latency plus bytes/bandwidth,
// and transfers serialize on the device port — concurrent fault storms queue
// here exactly like walker misses queue on the memory bus. The device only
// charges time; page *bytes* stay in the AddressSpace backing store, which
// plays the role of swap-file contents for the functional model.
//
// Request *scheduling* — the queue, dispatch policy, slot bookkeeping and
// geometry, and readahead — lives one layer up in SwapScheduler
// (swap_scheduler.hpp), which keeps each page's slot in its PageState
// record and hands this device one transfer at a time, so the port model
// here stays the raw timing primitive.
#pragma once

#include <string>

#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace vmsls::paging {

/// Dispatch order for a SwapScheduler's request queue.
enum class SwapSchedPolicy {
  kFifo,      ///< strict arrival order, class-blind
  kPriority,  ///< demand reads >> fault-path demand writes >> prefetch
              ///< reads >> background writebacks, with a bounded-bypass
              ///< starvation guard on everything below demand reads
};

const char* swap_sched_name(SwapSchedPolicy policy) noexcept;

struct SwapConfig {
  Cycles read_latency = 4000;     // per-operation device access latency
  Cycles write_latency = 6000;    // writes are slower on flash-class media
  unsigned bytes_per_cycle = 4;   // transfer bandwidth across the device port
  u64 slot_limit = 1ull << 20;    // capacity in pages; exceeded = hard error

  // --- shared swap I/O subsystem knobs (threaded through PlatformSpec::pager.swap) ---

  /// In a ProcessGroup, members share one device + scheduler ("one flash
  /// part, N pagers") instead of each pager owning a private device.
  /// Ignored by a standalone System — there is nobody to share with.
  bool shared = false;
  /// Request-queue dispatch policy.
  SwapSchedPolicy sched = SwapSchedPolicy::kFifo;
  /// Swap-in readahead: on each demand swap-in, prefetch up to this many
  /// neighboring slots (same owner, same cluster). 0 disables prefetch.
  unsigned readahead = 0;
  /// Slot-allocator clustering granularity: a process's evicted pages land
  /// in per-cluster regions of this many adjacent slots, keyed by vpn, so
  /// virtually-neighboring evictions occupy neighboring slots and
  /// readahead pulls pages the process is likely to touch next.
  u64 cluster_pages = 64;
  /// Priority mode: a queued writeback is dispatched after at most this
  /// many reads bypass it (the starvation guard).
  u64 writeback_starvation_limit = 8;
};

class SwapDevice {
 public:
  SwapDevice(sim::Simulator& sim, const SwapConfig& cfg, u64 page_bytes, std::string name);

  SwapDevice(const SwapDevice&) = delete;
  SwapDevice& operator=(const SwapDevice&) = delete;

  const SwapConfig& config() const noexcept { return cfg_; }
  const std::string& name() const noexcept { return name_; }

  /// True while a transfer occupies the device port. Background cleaning
  /// (the pageout daemon) yields to demand traffic by checking this —
  /// proactive writes must not delay the swap-ins faults are stalled on.
  bool busy() const noexcept { return port_free_ > sim_.now(); }

  /// Timed page write (swap-out); `done` fires when the transfer completes
  /// on the device port. Completions are sim::EventFn — move-only, no
  /// steady-state allocation on the fault path.
  void write_page(sim::EventFn done);

  /// Timed clustered read of `pages` pages in ONE device operation — one
  /// access latency, then bytes/bandwidth for the whole run. This is what
  /// makes swap-in readahead pay: the scheduler merges adjacent-slot reads
  /// so a cluster costs little more than its demand page alone.
  void read_pages(u64 pages, sim::EventFn done);

  u64 reads() const noexcept { return reads_.value(); }
  u64 writes() const noexcept { return writes_.value(); }

 private:
  /// Serializes a transfer of `bytes` on the single device port; `done`
  /// fires at completion time.
  void issue(Cycles latency, u64 bytes, sim::EventFn done);

  sim::Simulator& sim_;
  SwapConfig cfg_;
  u64 page_bytes_;
  std::string name_;
  Cycles port_free_ = 0;

  Counter& reads_;
  Counter& writes_;
  Counter& bytes_;
};

}  // namespace vmsls::paging
