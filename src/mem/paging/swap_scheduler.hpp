// Shared swap I/O front end: one device, N pagers, a real request queue.
//
// The per-pager SwapDevice of PRs 1–4 serialized transfers on a private
// `port_free_` timestamp, so N over-subscribed processes paged against N
// independent flash parts that never queued against each other. This class
// promotes the swap path to a first-class shared I/O subsystem, analogous
// to the shared memory bus:
//
//   * N pagers register as *owners* of one scheduler (per ProcessGroup,
//     when `SwapConfig::shared` is set) or one pager owns a private
//     instance — the same code path either way, so a single-member shared
//     device is cycle-identical to a private one.
//   * Requests carry an owner and a class (demand read >> prefetch read >>
//     background writeback) and wait in a real request queue; a pluggable
//     dispatch policy (FIFO, or priority with a bounded-bypass
//     writeback-starvation guard) picks what the single device port
//     services next.
//   * A clustering slot allocator keeps a process's evicted
//     virtually-neighboring pages in adjacent numeric slots (per-owner
//     regions of `cluster_pages` slots keyed by vpn), so the pager's
//     readahead can ask for the `neighbors` of a demand swap-in and pull
//     the pages the process is statistically about to fault on.
//
// A page's slot lives in its owner's PageState record (the pager registers
// its address space's directory), and the cluster's region in the record
// of the cluster's first page; the slot geometry is plain vectors indexed
// by slot and region. Nothing on this path hashes.
//
// The timing primitive stays SwapDevice: the scheduler hands it one
// transfer at a time. Per-owner counters land under "<owner>.swap.*" so
// per-process summaries keep working when the device itself is shared; in
// the private case those names coincide with the device's own and are
// aliased, not double-counted.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "mem/page_state.hpp"
#include "mem/paging/swap_device.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace vmsls::paging {

/// Request classes in descending dispatch priority (kPriority mode).
/// Demand *writes* are the fault path's eviction writebacks — a demand
/// fault is suspended on them, so only demand reads may bypass; kWriteback
/// is the pageout daemon's background cleaning, which everything bypasses
/// (up to the starvation guard).
enum class SwapReqClass { kDemandRead, kDemandWrite, kPrefetchRead, kWriteback };

const char* swap_req_class_name(SwapReqClass cls) noexcept;

class SwapScheduler {
 public:
  SwapScheduler(sim::Simulator& sim, const SwapConfig& cfg, u64 page_bytes, std::string name);

  SwapScheduler(const SwapScheduler&) = delete;
  SwapScheduler& operator=(const SwapScheduler&) = delete;

  const SwapConfig& config() const noexcept { return cfg_; }
  const std::string& name() const noexcept { return name_; }

  /// Registers a client (a pager). Registration order fixes owner ids —
  /// deterministic under the ProcessGroup's attach-order contract. The
  /// owner name prefixes that client's per-owner counters
  /// ("<owner_name>.swap.reads" / ".writes" / ".queue_wait"). `pages` is
  /// the owner's page-state directory, where its pages' slots are kept; it
  /// must outlive the owner's traffic. Null gives the owner a directory of
  /// the scheduler's own (rigs that drive the scheduler without an address
  /// space).
  unsigned register_owner(const std::string& owner_name, mem::PageStates* pages = nullptr);

  /// True when the device holds a copy of the owner's page.
  bool holds(unsigned owner, u64 vpn) const;

  /// Slot bookkeeping without device time (experiment-setup evictions).
  void note_swapped(unsigned owner, u64 vpn);

  /// Queues a timed page read (swap-in). Requires holds(owner, vpn); the
  /// slot frees when the transfer completes on the device port. When the
  /// read dispatches, any other queued reads on slots in the SAME cluster
  /// region ride along as one clustered device operation (one access
  /// latency, streamed bytes) — this is what makes readahead nearly free
  /// next to the demand read it follows. `trace_id` threads the requester's
  /// causal id through the "queue" and "io" trace spans (0 = untraced).
  void read(unsigned owner, u64 vpn, SwapReqClass cls, sim::EventFn done, u64 trace_id = 0);

  /// Runs `fill` with dispatch deferred, then pumps once: requests enqueued
  /// inside land in the queue atomically, so a demand read and its
  /// readahead dispatch as one clustered operation instead of the first
  /// read racing out alone on an idle port.
  template <typename F>
  void batched(F&& fill) {
    ++defer_;
    fill();
    --defer_;
    pump();
  }

  /// Queues a timed page write (swap-out / writeback); `cls` must be
  /// kDemandWrite (fault-path eviction) or kWriteback (background
  /// cleaning). Allocates a slot at enqueue so holds() is immediately true.
  void write(unsigned owner, u64 vpn, SwapReqClass cls, sim::EventFn done, u64 trace_id = 0);

  /// Upgrades a *queued* prefetch read for the page to demand class (a
  /// demand fault coalesced onto it): the waiter is now a stalled thread,
  /// not a guess. No-op when the request already dispatched or none exists.
  void promote(unsigned owner, u64 vpn);

  /// True while the port is mid-transfer or requests wait in the queue —
  /// the pageout daemons' yield signal, now device-wide.
  bool busy() const noexcept { return in_flight_ || !queue_.empty(); }

  /// Calls fn(page) for each page of `owner` occupying the `k` slots
  /// directly after `vpn`'s slot, in ascending slot order, clipped to the
  /// cluster region (clustering guarantees they belong to the same owner);
  /// stops early when fn returns false. The readahead candidates for a
  /// demand swap-in of `vpn`.
  template <typename F>
  void for_each_neighbor(unsigned owner, u64 vpn, unsigned k, F&& fn) const {
    const mem::PageState* s = owners_[owner].pages->find(vpn);
    if (s == nullptr || !s->holds_slot() || k == 0) return;
    const u64 slot = s->swap_slot;
    const u64 region_end = (slot / cfg_.cluster_pages + 1) * cfg_.cluster_pages;
    const u64 last = std::min(region_end - 1, slot + k);
    for (u64 n = slot + 1; n <= last; ++n)
      if (page_at_[n] != kNoPage && !fn(page_at_[n] & kVpnMask)) return;
  }

  // --- introspection ---
  u64 reads() const noexcept { return device_.reads(); }
  u64 writes() const noexcept { return device_.writes(); }
  u64 slots_in_use() const noexcept { return slots_in_use_; }
  u64 queue_depth() const noexcept { return queue_.size(); }
  /// Queued requests of one class (telemetry probe; linear scan — swap
  /// queues are short).
  u64 queue_depth_class(SwapReqClass cls) const noexcept;
  u64 owners() const noexcept { return static_cast<u64>(owners_.size()); }
  u64 owner_reads(unsigned owner) const;
  u64 owner_writes(unsigned owner) const;
  u64 wb_promotions() const noexcept { return wb_promotions_.value(); }

 private:
  static constexpr unsigned kOwnerShift = 44;  // vpns fit far below 2^44
  static constexpr u64 kVpnMask = (1ull << kOwnerShift) - 1;
  static constexpr u64 kNoPage = ~0ull;

  struct Request {
    unsigned owner = 0;
    u64 key = 0;  // packed (owner, vpn): trace argument and promote() match
    /// The page's swap slot, resolved once at enqueue. Valid for the queued
    /// request's whole lifetime: a held page's slot never moves, and the
    /// only free is the page's own read completion — so dispatch clusters
    /// on this field instead of re-reading page records.
    u64 slot = 0;
    SwapReqClass cls = SwapReqClass::kDemandRead;
    Cycles enqueued = 0;
    u64 trace_id = 0;  // requester's causal trace id (0 = untraced)
    sim::EventFn done;
  };

  /// Per-owner counters. Null pointers mean the name aliased the device's
  /// own aggregate counter (the private single-owner case) — the device
  /// already bumps it, so the scheduler must not bump it again.
  struct Owner {
    std::string name;
    Counter* reads = nullptr;
    Counter* writes = nullptr;
    Histogram* queue_wait = nullptr;
    mem::PageStates* pages = nullptr;  // where this owner's slots live
  };

  u64 pack(unsigned owner, u64 vpn) const;
  void alloc_slot(unsigned owner, u64 vpn, mem::PageState& page);
  void free_slot(unsigned owner, u64 vpn);
  void trace_slots();
  void enqueue(Request r, u64 vpn);
  std::size_t select_next();
  void pump();
  /// Issues one device operation for `inflight_`: a single write, or a read
  /// batch (the selected read plus every queued same-cluster read) as one
  /// clustered transfer. `inflight_[0]` is the selected request.
  void dispatch();
  void complete();

  sim::Simulator& sim_;
  SwapConfig cfg_;
  std::string name_;
  SwapDevice device_;
  sim::TraceTrack trace_track_ = 0;
  std::vector<Owner> owners_;
  std::vector<std::unique_ptr<mem::PageStates>> own_pages_;  // owners registered without one

  // Storage-reusing request vectors: swap queues are short, so erasing from
  // the middle is cheap, and steady-state traffic allocates nothing.
  std::vector<Request> queue_;
  std::vector<Request> inflight_;    // the batch on the device port
  std::vector<Request> completing_;  // the batch whose continuations run now
  bool in_flight_ = false;
  unsigned defer_ = 0;  // batched() scope depth: pump waits for the scope end
  /// Dispatches that bypassed the oldest queued request (the deque front,
  /// whatever its class) — the starvation-guard odometer. Bounds the wait
  /// of writebacks AND prefetches that higher-class traffic would
  /// otherwise bypass forever.
  u64 wb_bypassed_ = 0;

  // --- clustering slot allocator (a cluster's region is in its first
  // page's PageState::swap_region) ---
  std::vector<u64> page_at_;         // slot -> packed (owner, vpn); kNoPage when free
  std::vector<u64> region_leader_;   // region -> packed (owner, cluster's first vpn)
  std::vector<u64> region_pop_;      // region -> slots in use
  std::priority_queue<u64, std::vector<u64>, std::greater<>> free_regions_;  // lowest first
  u64 slots_in_use_ = 0;

  Histogram& queue_wait_;
  Histogram& queue_depth_;
  /// Queue wait split by request class ("<name>.sched.wait_<class>"): the
  /// fault-path latency attribution serving-mode tail analysis reads — a
  /// demand read stuck behind writebacks shows here, not in the aggregate.
  std::array<Histogram*, 4> class_wait_{};
  Counter& demand_reads_;
  Counter& demand_writes_;
  Counter& prefetch_reads_;
  Counter& writebacks_;
  Counter& wb_promotions_;
  Counter& prefetch_promotions_;
};

}  // namespace vmsls::paging
