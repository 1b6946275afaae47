// Ledger audit: the one implementation of the identities in
// docs/ARCHITECTURE.md "The ledgers".
//
// snapshot_ledgers() copies the counters those identities read (per pager,
// per swap device, per buffer cache) and the frame state into a plain
// value; audit() names every identity the value violates. Counter
// identities hold over any window, so audit(now, &baseline) checks them on
// `now - baseline`; state identities (per-frame refcounts, pool residency,
// the page-state census) are checked on `now`. Audit a drained simulator: a
// swap-in or a cache miss is counted when issued, its device read only when
// dispatched, and a drained pager holds no pins, reservations or in-flight
// faults.
//
// Identities against a driver's own fault classification (the read-fault
// and COW ledgers) or about one scenario (a file-only run never touches
// swap) stay with the caller; PagerLedger carries the counters they read.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "sls/process_group.hpp"

namespace vmsls::sls {

struct PagerLedger {
  std::string name;
  u64 unmaps = 0;  // rt::Process::evicted_pages(): every unmap, whoever asked
  u64 swap_releases = 0, file_drops = 0, file_writebacks = 0, shared_releases = 0;
  u64 swap_ins = 0, file_reads = 0, zero_fills = 0, share_hits = 0, inherited_fills = 0;
  u64 cow_copies = 0, cow_upgrades = 0, prefetches = 0, writebacks = 0, pageouts = 0;
  u64 swap_reads = 0, swap_writes = 0;     // this owner's traffic on its device
  u64 client_hits = 0, client_misses = 0;  // this client's window on its cache
  u64 resident = 0, maps = 0;  // mem::AddressSpace::resident_pages() / maps()
  /// Page-state census (a state, never windowed): records in no lifecycle,
  /// and records still pinned, holding a frame reservation, or in flight.
  u64 stray_pages = 0, pinned_pages = 0, pending_pages = 0, inflight_pages = 0;
  std::size_t swap_device = 0, cache = 0;  // indices into Ledgers

  u64 read_faults() const {
    return swap_ins + file_reads + zero_fills + share_hits + inherited_fills;
  }
  u64 cow_faults() const { return cow_copies + cow_upgrades; }
  u64 unmap_buckets() const {
    return swap_releases + file_drops + file_writebacks + shared_releases;
  }
  bool operator==(const PagerLedger&) const = default;
};

struct SwapDeviceLedger {
  std::string name;
  u64 reads = 0, writes = 0;
};

struct CacheLedger {
  std::string name;
  u64 hits = 0, misses = 0, device_reads = 0, merged_reads = 0;
};

/// A mapped frame: its mappings counted over the page tables, and its
/// refcount in the frame allocator.
struct FrameLedger {
  u64 frame = 0, mappings = 0, refcount = 0;
};

struct PoolLedger {
  std::string name;
  u64 mapped_pages = 0, resident_pages = 0;
};

struct Ledgers {
  std::vector<PagerLedger> pagers;
  std::vector<SwapDeviceLedger> swaps;  // in first-use order over `pagers`
  std::vector<CacheLedger> caches;      // likewise
  std::vector<FrameLedger> frames;      // ascending frame number
  std::optional<PoolLedger> pool;
};

/// Snapshots `pagers`, their devices and caches, the frames they map, and
/// the pool if given. The pagers must cover every owner, client, and pool
/// member, and every address space mapping their frames, or the partitions
/// cannot balance.
Ledgers snapshot_ledgers(const std::vector<paging::Pager*>& pagers,
                         const mem::FrameAllocator& frames,
                         const paging::FramePool* pool = nullptr);

/// Every member pager of the group, over the group's allocator and pool.
Ledgers snapshot_ledgers(ProcessGroup& group);

/// One line per violated identity, naming the identity and its pager,
/// device, cache, frame, or pool; empty when every ledger balances. Throws
/// std::invalid_argument when `baseline` snapshots different pagers.
std::vector<std::string> audit(const Ledgers& now, const Ledgers* baseline = nullptr);

}  // namespace vmsls::sls
