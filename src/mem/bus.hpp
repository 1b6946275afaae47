// Shared memory interconnect (AXI-HP-like).
//
// All masters — hardware-thread memory ports, the page-table walker, the
// DMA engine, and the CPU cache hierarchy — contend for one address/data
// channel to DRAM. Arbitration is first-come-first-served with deterministic
// tie-breaking (simulator event order). The address/command phase occupies
// the channel for `header_cycles` plus the data beats; the DRAM access
// itself overlaps with subsequent commands (banks permitting), which models
// an outstanding-transaction-capable AXI port.
#pragma once

#include <string>

#include "mem/dram.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"
#include "util/stats.hpp"

namespace vmsls::mem {

struct BusConfig {
  unsigned width_bytes = 8;  // data beats per fabric cycle
  Cycles header_cycles = 2;  // command/handshake overhead per transaction
};

/// One memory transaction. `on_done` fires at the completion cycle; the
/// issuer then performs its functional data access against PhysicalMemory.
/// The callback is a sim::EventFn: move-only, with enough inline storage
/// that enqueueing a request never heap-allocates for typical closures.
struct BusRequest {
  PhysAddr addr = 0;
  u32 bytes = 0;
  bool is_write = false;
  sim::EventFn on_done;
};

class MemoryBus {
 public:
  MemoryBus(sim::Simulator& sim, DramModel& dram, const BusConfig& cfg, std::string name);

  MemoryBus(const MemoryBus&) = delete;
  MemoryBus& operator=(const MemoryBus&) = delete;

  void request(BusRequest req);

  /// Cycles the data channel was occupied (for utilization reporting).
  Cycles busy_cycles() const noexcept { return busy_cycles_; }

  const BusConfig& config() const noexcept { return cfg_; }

 private:
  struct Pending {
    BusRequest req;
    Cycles enqueued = 0;
  };

  void pump();

  sim::Simulator& sim_;
  DramModel& dram_;
  BusConfig cfg_;
  std::string name_;
  Fifo<Pending> queue_;
  Cycles channel_free_ = 0;
  bool pump_scheduled_ = false;
  Cycles busy_cycles_ = 0;

  Counter& requests_;
  Counter& read_requests_;
  Counter& write_requests_;
  Counter& bytes_;
  Histogram& wait_hist_;
};

}  // namespace vmsls::mem
