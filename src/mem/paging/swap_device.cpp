#include "mem/paging/swap_device.hpp"

#include <algorithm>
#include <utility>

namespace vmsls::paging {

const char* swap_sched_name(SwapSchedPolicy policy) noexcept {
  switch (policy) {
    case SwapSchedPolicy::kFifo: return "fifo";
    case SwapSchedPolicy::kPriority: return "priority";
  }
  return "?";
}

SwapDevice::SwapDevice(sim::Simulator& sim, const SwapConfig& cfg, u64 page_bytes,
                       std::string name)
    : sim_(sim),
      cfg_(cfg),
      page_bytes_(page_bytes),
      name_(std::move(name)),
      reads_(sim.stats().counter(name_ + ".reads")),
      writes_(sim.stats().counter(name_ + ".writes")),
      bytes_(sim.stats().counter(name_ + ".bytes")) {
  require(cfg.bytes_per_cycle > 0, "swap device needs nonzero bandwidth");
  require(page_bytes > 0, "swap device needs a page size");
}

void SwapDevice::issue(Cycles latency, u64 bytes, sim::EventFn done) {
  const Cycles transfer = latency + bytes / cfg_.bytes_per_cycle;
  const Cycles start = std::max(sim_.now(), port_free_);
  port_free_ = start + transfer;
  bytes_.add(bytes);
  sim_.schedule_at(port_free_, std::move(done));
}

void SwapDevice::write_page(sim::EventFn done) {
  writes_.add();
  issue(cfg_.write_latency, page_bytes_, std::move(done));
}

void SwapDevice::read_pages(u64 pages, sim::EventFn done) {
  reads_.add(pages);
  issue(cfg_.read_latency, pages * page_bytes_, std::move(done));
}

}  // namespace vmsls::paging
