#include "sls/process_group.hpp"

#include <algorithm>
#include <stdexcept>

namespace vmsls::sls {

ProcessGroup::ProcessGroup(sim::Simulator& sim, const PlatformSpec& platform,
                           const paging::FramePoolConfig& pool_cfg)
    : sim_(sim), platform_(platform), machine_(sim, platform) {
  const u64 page = 1ull << platform_.page_table.page_bits;
  machine_.pool = std::make_unique<paging::FramePool>(sim_, pool_cfg, "pool");
  // One flash part for the whole group: member pagers register as owners
  // of this scheduler instead of instantiating private devices, so their
  // swap traffic queues against each other like bus traffic does.
  if (platform_.pager.swap.shared)
    machine_.swap =
        std::make_unique<paging::SwapScheduler>(sim_, platform_.pager.swap, page, "swap");
  // One buffer cache for the whole group, unconditionally: files are
  // meaningful only machine-wide (the same bytes mapped by every process),
  // and the cache in front of the file device is what turns that sharing
  // into cross-process read hits.
  machine_.bcache =
      std::make_unique<paging::BufferCache>(sim_, platform_.pager.bcache, page, "bcache");
  // Resident-frame index for MAP_SHARED pages: the sharing layer above the
  // buffer cache — a hit here costs no device read *and no frame*.
  machine_.share = std::make_unique<mem::FrameShareIndex>();
  if (platform_.telemetry.period > 0) {
    telemetry_ = std::make_unique<sim::TelemetrySampler>(sim_, platform_.telemetry.period);
    telemetry_->trace_counters = platform_.telemetry.trace_counters;
    paging::FramePool& pool = *machine_.pool;
    mem::FrameAllocator& frames = machine_.frames;
    paging::BufferCache& bcache = *machine_.bcache;
    telemetry_->add_probe("pool.resident",
                          [&pool] { return static_cast<double>(pool.resident_pages()); });
    telemetry_->add_probe("pool.pending",
                          [&pool] { return static_cast<double>(pool.pending_pages()); });
    telemetry_->add_probe("frames.free",
                          [&frames] { return static_cast<double>(frames.free_frames()); });
    if (paging::SwapScheduler* swap = machine_.swap.get(); swap != nullptr) {
      using paging::SwapReqClass;
      telemetry_->add_probe("swap.q_demand_read", [swap] {
        return static_cast<double>(swap->queue_depth_class(SwapReqClass::kDemandRead));
      });
      telemetry_->add_probe("swap.q_demand_write", [swap] {
        return static_cast<double>(swap->queue_depth_class(SwapReqClass::kDemandWrite));
      });
      telemetry_->add_probe("swap.q_prefetch_read", [swap] {
        return static_cast<double>(swap->queue_depth_class(SwapReqClass::kPrefetchRead));
      });
      telemetry_->add_probe("swap.q_writeback", [swap] {
        return static_cast<double>(swap->queue_depth_class(SwapReqClass::kWriteback));
      });
    }
    telemetry_->add_probe("bcache.cached",
                          [&bcache] { return static_cast<double>(bcache.cached_blocks()); });
    telemetry_->add_probe("bcache.dirty",
                          [&bcache] { return static_cast<double>(bcache.dirty_blocks()); });
    telemetry_->add_probe("bcache.queue",
                          [&bcache] { return static_cast<double>(bcache.queue_depth()); });
  }
}

System& ProcessGroup::add_process(const SystemImage& image, const std::string& instance) {
  require(!instance.empty(), "process instance name must be non-empty");
  require(std::find(instances_.begin(), instances_.end(), instance) == instances_.end(),
          "duplicate process instance name '" + instance + "'");
  systems_.push_back(std::make_unique<System>(sim_, image, machine_, instance));
  instances_.push_back(instance);
  System& sys = *systems_.back();
  if (telemetry_ != nullptr) {
    // Per-process pressure columns. Counter/histogram references are
    // registry-stable, and sys outlives the group, so the lambdas are safe.
    const std::string inst = sys.instance();  // includes the trailing '.'
    mem::AddressSpace& as = sys.address_space();
    telemetry_->add_probe(inst + "resident",
                          [&as] { return static_cast<double>(as.resident_pages()); });
    const Counter& faults = sim_.stats().counter(inst + "faults.faults");
    telemetry_->add_rate_probe(inst + "fault_rate",
                               [&faults] { return static_cast<double>(faults.value()); });
    if (paging::Pager* pager = sys.pager(); pager != nullptr) {
      telemetry_->add_probe(inst + "prefetch_acc", [pager] {
        const u64 issued = std::max<u64>(1, pager->prefetches());
        return static_cast<double>(pager->prefetch_useful() + pager->prefetch_late()) /
               static_cast<double>(issued);
      });
    }
  }
  return sys;
}

void ProcessGroup::start_all() {
  for (auto& s : systems_) s->start_all();
  if (telemetry_ != nullptr && !telemetry_->armed()) telemetry_->start();
}

Cycles ProcessGroup::run_to_completion(Cycles max_cycles) {
  require(!systems_.empty(), "process group has no processes");
  std::vector<System*> members;
  for (const auto& s : systems_) members.push_back(s.get());
  return run_until_halted(sim_, members, max_cycles);
}

Cycles ProcessGroup::drain(Cycles max_cycles) {
  const Cycles t0 = sim_.now();
  while (sim_.step())
    if (sim_.now() - t0 > max_cycles)
      throw std::runtime_error("event queue failed to drain within " +
                               std::to_string(max_cycles) + " cycles");
  return sim_.now() - t0;
}

}  // namespace vmsls::sls
