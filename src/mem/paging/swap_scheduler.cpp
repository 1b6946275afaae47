#include "mem/paging/swap_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace vmsls::paging {

const char* swap_req_class_name(SwapReqClass cls) noexcept {
  switch (cls) {
    case SwapReqClass::kDemandRead: return "demand_read";
    case SwapReqClass::kDemandWrite: return "demand_write";
    case SwapReqClass::kPrefetchRead: return "prefetch_read";
    case SwapReqClass::kWriteback: return "writeback";
  }
  return "?";
}

namespace {
unsigned class_rank(SwapReqClass cls) noexcept { return static_cast<unsigned>(cls); }
bool is_write_class(SwapReqClass cls) noexcept {
  return cls == SwapReqClass::kDemandWrite || cls == SwapReqClass::kWriteback;
}
}  // namespace

SwapScheduler::SwapScheduler(sim::Simulator& sim, const SwapConfig& cfg, u64 page_bytes,
                             std::string name)
    : sim_(sim),
      cfg_(cfg),
      name_(std::move(name)),
      device_(sim, cfg, page_bytes, name_),
      queue_wait_(sim.stats().histogram(name_ + ".queue_wait")),
      queue_depth_(sim.stats().histogram(name_ + ".sched.queue_depth")),
      demand_reads_(sim.stats().counter(name_ + ".sched.demand_reads")),
      demand_writes_(sim.stats().counter(name_ + ".sched.demand_writes")),
      prefetch_reads_(sim.stats().counter(name_ + ".sched.prefetch_reads")),
      writebacks_(sim.stats().counter(name_ + ".sched.writebacks")),
      wb_promotions_(sim.stats().counter(name_ + ".sched.wb_promotions")),
      prefetch_promotions_(sim.stats().counter(name_ + ".sched.prefetch_promotions")) {
  require(cfg.cluster_pages > 0, "swap scheduler needs a nonzero cluster size");
  require(cfg.writeback_starvation_limit > 0,
          "swap scheduler needs a nonzero writeback starvation limit");
  for (unsigned i = 0; i < class_wait_.size(); ++i)
    class_wait_[i] = &sim.stats().histogram(
        name_ + ".sched.wait_" + swap_req_class_name(static_cast<SwapReqClass>(i)));
  trace_track_ = sim_.trace().track(name_);
}

unsigned SwapScheduler::register_owner(const std::string& owner_name, mem::PageStates* pages) {
  require(owners_.size() < (1u << 16), "swap scheduler owner-id space exhausted");
  Owner o;
  o.name = owner_name;
  // The private single-owner case names its per-owner counters onto the
  // device's own aggregates ("pager.swap" + ".reads"); the registry hands
  // back the same object, which the device already bumps — alias, don't
  // double-count.
  Counter& reads = sim_.stats().counter(owner_name + ".swap.reads");
  Counter& writes = sim_.stats().counter(owner_name + ".swap.writes");
  Histogram& wait = sim_.stats().histogram(owner_name + ".swap.queue_wait");
  o.reads = (&reads == &sim_.stats().counter(name_ + ".reads")) ? nullptr : &reads;
  o.writes = (&writes == &sim_.stats().counter(name_ + ".writes")) ? nullptr : &writes;
  o.queue_wait = (&wait == &queue_wait_) ? nullptr : &wait;
  if (pages == nullptr) {
    own_pages_.push_back(std::make_unique<mem::PageStates>());
    pages = own_pages_.back().get();
  }
  o.pages = pages;
  owners_.push_back(std::move(o));
  return static_cast<unsigned>(owners_.size() - 1);
}

u64 SwapScheduler::pack(unsigned owner, u64 vpn) const {
  require(owner < owners_.size(), [&] { return name_ + ": unregistered swap owner"; });
  require(vpn < (1ull << kOwnerShift),
          [&] { return name_ + ": vpn does not fit the key packing"; });
  return (static_cast<u64>(owner) << kOwnerShift) | vpn;
}

bool SwapScheduler::holds(unsigned owner, u64 vpn) const {
  const mem::PageState* s = owners_[owner].pages->find(vpn);
  return s != nullptr && s->holds_slot();
}

void SwapScheduler::trace_slots() {
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "slots_in_use",
                      static_cast<double>(slots_in_use_));
}

void SwapScheduler::alloc_slot(unsigned owner, u64 vpn, mem::PageState& page) {
  const u64 cp = cfg_.cluster_pages;
  const u64 leader_vpn = vpn - vpn % cp;
  mem::PageState& leader = owners_[owner].pages->at(leader_vpn);
  u64 region;
  if (leader.swap_region != 0) {
    region = leader.swap_region - 1;
  } else {
    if (!free_regions_.empty()) {
      region = free_regions_.top();
      free_regions_.pop();
    } else {
      region = region_pop_.size();
      require((region + 1) * cp < mem::PageState::kNoSlot,
              [&] { return name_ + ": swap slot numbers exceed 32 bits"; });
      region_pop_.push_back(0);
      region_leader_.push_back(kNoPage);
      page_at_.resize((region + 1) * cp, kNoPage);
    }
    leader.swap_region = static_cast<u32>(region + 1);
    region_leader_[region] = pack(owner, leader_vpn);
  }
  const u64 slot = region * cp + vpn % cp;
  page.swap_slot = static_cast<u32>(slot);
  page_at_[slot] = pack(owner, vpn);
  ++region_pop_[region];
  ++slots_in_use_;
}

void SwapScheduler::free_slot(unsigned owner, u64 vpn) {
  mem::PageState* s = owners_[owner].pages->find(vpn);
  if (s == nullptr || !s->holds_slot()) return;
  const u64 slot = s->swap_slot;
  const u64 region = slot / cfg_.cluster_pages;
  s->swap_slot = mem::PageState::kNoSlot;
  page_at_[slot] = kNoPage;
  --slots_in_use_;
  if (--region_pop_[region] == 0) {
    const u64 leader = region_leader_[region];
    owners_[leader >> kOwnerShift].pages->find(leader & kVpnMask)->swap_region = 0;
    region_leader_[region] = kNoPage;
    free_regions_.push(region);
  }
}

void SwapScheduler::note_swapped(unsigned owner, u64 vpn) {
  pack(owner, vpn);  // validates the owner and the vpn
  mem::PageState& s = owners_[owner].pages->at(vpn);
  if (!s.holds_slot()) {
    if (slots_in_use_ >= cfg_.slot_limit)
      throw std::runtime_error(name_ + ": out of swap slots (" + std::to_string(slots_in_use_) +
                               "/" + std::to_string(cfg_.slot_limit) +
                               " in use) on swap-out from '" + owners_[owner].name + "'");
    alloc_slot(owner, vpn, s);
  }
  trace_slots();
}

void SwapScheduler::enqueue(Request r, u64 vpn) {
  r.enqueued = sim_.now();
  queue_depth_.record(queue_.size());
  const u64 trace_id = r.trace_id;
  queue_.push_back(std::move(r));
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "queue", trace_id, vpn);
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "queue_depth",
                      static_cast<double>(queue_.size()));
  pump();
}

void SwapScheduler::read(unsigned owner, u64 vpn, SwapReqClass cls, sim::EventFn done,
                         u64 trace_id) {
  require(cls == SwapReqClass::kDemandRead || cls == SwapReqClass::kPrefetchRead,
          [&] { return name_ + ": reads must be demand or prefetch class"; });
  const u64 key = pack(owner, vpn);
  const mem::PageState* s = owners_[owner].pages->find(vpn);
  if (s == nullptr || !s->holds_slot())
    throw std::logic_error(name_ + ": swap-in of page not held for '" + owners_[owner].name +
                           "'");
  enqueue(Request{owner, key, s->swap_slot, cls, 0, trace_id, std::move(done)}, vpn);
}

void SwapScheduler::write(unsigned owner, u64 vpn, SwapReqClass cls, sim::EventFn done,
                          u64 trace_id) {
  require(is_write_class(cls),
          [&] { return name_ + ": writes must be demand-write or writeback class"; });
  note_swapped(owner, vpn);  // slot allocated at enqueue: holds() is true at once
  const u64 slot = owners_[owner].pages->find(vpn)->swap_slot;
  enqueue(Request{owner, pack(owner, vpn), slot, cls, 0, trace_id, std::move(done)}, vpn);
}

std::size_t SwapScheduler::select_next() {
  if (cfg_.sched == SwapSchedPolicy::kFifo || queue_.size() == 1) return 0;
  // Priority: lowest class rank wins, FIFO within a class (strict < keeps
  // the earliest arrival). Linear scan — swap queues are short and the
  // order must be deterministic.
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i)
    if (class_rank(queue_[i].cls) < class_rank(queue_[best].cls)) best = i;
  // Starvation guard: priority is *bounded* reordering, not an absolute
  // one. A queued writeback holds a slot (and, demand-write class, a
  // suspended fault); a queued prefetch goes stale — the page gets
  // demanded before it lands — if higher-class traffic can bypass it
  // forever. The odometer counts dispatches that bypass the OLDEST queued
  // request (the deque front, whatever its class — sustained prefetch
  // streams must not starve a writeback either); after
  // `writeback_starvation_limit` bypasses the front goes next, so under
  // saturation every request's wait is bounded by (limit x its arrival
  // position) dispatches.
  if (best == 0) {
    wb_bypassed_ = 0;  // the oldest request is being served anyway
  } else if (++wb_bypassed_ >= cfg_.writeback_starvation_limit) {
    wb_promotions_.add();
    VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "wb_promotion", queue_.front().trace_id,
                        class_rank(queue_.front().cls));
    best = 0;
    wb_bypassed_ = 0;
  }
  return best;
}

void SwapScheduler::promote(unsigned owner, u64 vpn) {
  const u64 key = pack(owner, vpn);
  for (Request& r : queue_) {
    if (r.key == key && r.cls == SwapReqClass::kPrefetchRead) {
      r.cls = SwapReqClass::kDemandRead;
      prefetch_promotions_.add();
      VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "promote", r.trace_id, vpn);
      return;
    }
  }
}

void SwapScheduler::pump() {
  if (defer_ > 0 || in_flight_ || queue_.empty()) return;
  const std::size_t idx = select_next();
  inflight_.push_back(std::move(queue_[idx]));
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  if (!is_write_class(inflight_[0].cls)) {
    // Clustered swap-in: every queued read whose slot shares the selected
    // read's cluster region rides the same device operation, whatever its
    // class — adjacent slots stream in one access. Regions are per-owner,
    // so the batch never mixes owners. Slots were resolved at enqueue
    // (Request::slot), so this scan is compare-only.
    const u64 region = inflight_[0].slot / cfg_.cluster_pages;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      Request& r = queue_[i];
      if (!is_write_class(r.cls) && r.slot / cfg_.cluster_pages == region)
        inflight_.push_back(std::move(r));
      else if (kept++ != i)
        queue_[kept - 1] = std::move(r);
    }
    queue_.resize(kept);
  }
  in_flight_ = true;
  dispatch();
}

void SwapScheduler::dispatch() {
  for (const Request& r : inflight_) {
    const Cycles waited = sim_.now() - r.enqueued;
    queue_wait_.record(waited);
    class_wait_[static_cast<unsigned>(r.cls)]->record(waited);
    Owner& o = owners_[r.owner];
    if (o.queue_wait != nullptr) o.queue_wait->record(waited);
    if (is_write_class(r.cls)) {
      (r.cls == SwapReqClass::kDemandWrite ? demand_writes_ : writebacks_).add();
      if (o.writes != nullptr) o.writes->add();
    } else {
      (r.cls == SwapReqClass::kDemandRead ? demand_reads_ : prefetch_reads_).add();
      if (o.reads != nullptr) o.reads->add();
    }
    VMSLS_TRACE_END(sim_.trace(), trace_track_, "queue", r.trace_id, r.key);
    VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "io", r.trace_id, class_rank(r.cls));
  }
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "queue_depth",
                      static_cast<double>(queue_.size()));
  if (is_write_class(inflight_[0].cls)) {
    trace_slots();  // the slot counter track samples every write dispatch
    device_.write_page([this] { complete(); });
  } else {
    device_.read_pages(inflight_.size(), [this] { complete(); });
  }
}

void SwapScheduler::complete() {
  // Completion order: free the port and dispatch the next queued request
  // *before* running the requesters' continuations — a continuation that
  // immediately enqueues (fault chains do) must queue behind work that was
  // already waiting. Within a batch, continuations fire in batch order
  // (selected request first). A read frees its pages' slots on arrival.
  std::swap(inflight_, completing_);
  if (!is_write_class(completing_[0].cls)) {
    for (const Request& r : completing_) free_slot(r.owner, r.key & kVpnMask);
    trace_slots();
  }
  for (const Request& r : completing_)
    VMSLS_TRACE_END(sim_.trace(), trace_track_, "io", r.trace_id);
  in_flight_ = false;
  pump();
  for (Request& r : completing_) r.done();
  completing_.clear();
}

u64 SwapScheduler::queue_depth_class(SwapReqClass cls) const noexcept {
  u64 n = 0;
  for (const Request& r : queue_)
    if (r.cls == cls) ++n;
  return n;
}

u64 SwapScheduler::owner_reads(unsigned owner) const {
  const Owner& o = owners_.at(owner);
  return o.reads != nullptr ? o.reads->value() : device_.reads();
}

u64 SwapScheduler::owner_writes(unsigned owner) const {
  const Owner& o = owners_.at(owner);
  return o.writes != nullptr ? o.writes->value() : device_.writes();
}

}  // namespace vmsls::paging
