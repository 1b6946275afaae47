#include "mem/bus.hpp"

#include <algorithm>
#include <utility>

namespace vmsls::mem {

MemoryBus::MemoryBus(sim::Simulator& sim, DramModel& dram, const BusConfig& cfg, std::string name)
    : sim_(sim),
      dram_(dram),
      cfg_(cfg),
      name_(std::move(name)),
      requests_(sim.stats().counter(name_ + ".requests")),
      read_requests_(sim.stats().counter(name_ + ".reads")),
      write_requests_(sim.stats().counter(name_ + ".writes")),
      bytes_(sim.stats().counter(name_ + ".bytes")),
      wait_hist_(sim.stats().histogram(name_ + ".queue_wait")) {
  require(cfg.width_bytes > 0, "bus width must be nonzero");
}

void MemoryBus::request(BusRequest req) {
  require(req.bytes > 0, "bus request must move at least one byte");
  require(static_cast<bool>(req.on_done), "bus request needs a completion callback");
  requests_.add();
  (req.is_write ? write_requests_ : read_requests_).add();
  bytes_.add(req.bytes);
  queue_.push_back(Pending{std::move(req), sim_.now()});
  pump();
}

void MemoryBus::pump() {
  if (pump_scheduled_ || queue_.empty()) return;
  const Cycles now = sim_.now();
  if (channel_free_ > now) {
    pump_scheduled_ = true;
    sim_.schedule_at(channel_free_, [this] {
      pump_scheduled_ = false;
      pump();
    });
    return;
  }

  Pending p = queue_.pop_front();
  wait_hist_.record(now - p.enqueued);

  const Cycles beats = ceil_div(p.req.bytes, cfg_.width_bytes);
  const Cycles occupancy = cfg_.header_cycles + beats;
  channel_free_ = now + occupancy;
  busy_cycles_ += occupancy;

  // The DRAM access begins after the command phase; the response is ready
  // when both the device access and the data beats finish.
  const Cycles dram_done = dram_.access(p.req.addr, p.req.bytes, p.req.is_write,
                                        now + cfg_.header_cycles);
  const Cycles done = std::max(dram_done, channel_free_);
  sim_.schedule_at(done, std::move(p.req.on_done));

  pump();  // issue or schedule the next transaction
}

}  // namespace vmsls::mem
