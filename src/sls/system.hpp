// The elaborated system: a SystemImage instantiated on the simulator.
//
// One process of the simulated SoC: its address space and page tables, the
// shared walker, per-thread MMUs/ports/engines, the fault handler and
// pager, and (optionally) the DMA engine + offload driver.
//
// Every System elaborates onto a Machine (sls/machine.hpp): physical
// memory, frames, DRAM + bus, OS service cores and the file registry are
// machine-wide; everything above is per process. A standalone System builds
// a private Machine. A ProcessGroup elaborates several Systems onto one
// Machine under distinct instance prefixes, so frames, bus bandwidth and
// OS cores are contended machine-wide — the multi-process
// over-subscription configuration.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cached_port.hpp"
#include "dma/offload.hpp"
#include "hwt/engine.hpp"
#include "hwt/hw_port.hpp"
#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "mem/mmu.hpp"
#include "mem/paging/pager.hpp"
#include "mem/walker.hpp"
#include "rt/process.hpp"
#include "sls/machine.hpp"
#include "sls/synthesis.hpp"

namespace vmsls::sls {

class System;

/// The run loop behind System:: and ProcessGroup::run_to_completion: steps
/// `sim` until every system in `systems` halts. Throws on deadlock (event
/// queue drained with threads blocked, naming them) or when `max_cycles`
/// elapse. Returns cycles elapsed since the call.
Cycles run_until_halted(sim::Simulator& sim, const std::vector<System*>& systems,
                        Cycles max_cycles);

class System {
 public:
  /// Standalone elaboration onto a private Machine built from the image's
  /// platform.
  System(sim::Simulator& sim, const SystemImage& image);

  /// Elaboration onto `machine`, which must outlive the system and share
  /// the image's page size; `instance` prefixes every component's stat
  /// names (e.g. "p0.") so multiple processes coexist in one registry.
  System(sim::Simulator& sim, const SystemImage& image, Machine& machine, std::string instance);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // --- component access ---
  sim::Simulator& simulator() noexcept { return sim_; }
  rt::Process& process() noexcept { return *process_; }
  mem::AddressSpace& address_space() noexcept { return *as_; }
  mem::MemoryBus& bus() noexcept { return machine_.bus; }
  mem::PageWalker& walker() noexcept { return *walker_; }
  mem::PhysicalMemory& physical_memory() noexcept { return machine_.pm; }
  rt::OsModel& os() noexcept { return machine_.os; }
  rt::FaultHandler& fault_handler() noexcept { return *faults_; }

  /// The machine this system elaborated onto: its private one when
  /// standalone, else the group's.
  Machine& machine() noexcept { return machine_; }

  /// Present when the platform configures a frame budget (pager.frame_budget
  /// > 0) or the machine has a FramePool; nullptr otherwise.
  paging::Pager* pager() noexcept { return pager_.get(); }

  /// The machine's file registry backing mmap regions (block size = page
  /// size).
  mem::FileStore& files() noexcept { return machine_.files; }

  /// Stat-name prefix of this instance ("" for a standalone system).
  const std::string& instance() const noexcept { return inst_; }

  hwt::Engine& engine(const std::string& thread);
  mem::Mmu& mmu(const std::string& thread);  // hardware threads only
  mem::CacheHierarchy& caches(const std::string& thread);  // software threads only

  /// DMA baseline components (present when synthesized with include_dma).
  dma::DmaEngine& dma_engine();
  dma::OffloadDriver& offload();

  /// Virtual address of a named application buffer.
  VirtAddr buffer(const std::string& name) const;

  // --- execution control ---
  void start_thread(const std::string& thread);
  void start_all();

  bool all_halted() const noexcept { return running_ == 0 && started_ > 0; }
  unsigned threads_running() const noexcept { return running_; }

  /// Names of threads currently running (deadlock diagnostics).
  std::string running_thread_names() const;

  /// Runs the simulation until every started thread halts. Throws on
  /// deadlock (event queue drained with threads blocked) or when `max`
  /// cycles elapse. Returns cycles elapsed since the call. Standalone
  /// systems only: throws std::logic_error on a system that shares its
  /// machine, whose ProcessGroup steps all member systems together.
  Cycles run_to_completion(Cycles max_cycles = 2'000'000'000ull);

  const SystemImage& image() const noexcept { return image_; }

 private:
  struct HwThread {
    std::unique_ptr<mem::Mmu> mmu;
    std::vector<std::unique_ptr<hwt::HwMemPort>> ports;
    std::unique_ptr<rt::DelegateOsPort> os_port;
    std::unique_ptr<hwt::Engine> engine;
  };
  struct SwThread {
    std::unique_ptr<mem::CacheHierarchy> caches;
    std::unique_ptr<cpu::CachedMemPort> port;
    std::unique_ptr<rt::DirectOsPort> os_port;
    std::unique_ptr<hwt::Engine> engine;
  };

  void build();
  void build_hw_thread(const ThreadSpec& spec, const HwThreadPlan& plan);
  void build_sw_thread(const ThreadSpec& spec);
  rt::OsBindings make_bindings(const ThreadSpec& spec) const;

  sim::Simulator& sim_;
  SystemImage image_;
  std::string inst_;

  // Set only when standalone: keeps the private machine alive.
  std::unique_ptr<Machine> private_machine_;
  Machine& machine_;

  // Per-process components.
  std::unique_ptr<mem::AddressSpace> as_;
  std::unique_ptr<rt::Process> process_;
  std::unique_ptr<mem::PageWalker> walker_;
  std::unique_ptr<rt::FaultHandler> faults_;
  std::unique_ptr<paging::Pager> pager_;
  std::unique_ptr<dma::DmaEngine> dma_;
  std::unique_ptr<dma::OffloadDriver> offload_;

  std::map<std::string, HwThread> hw_;
  std::map<std::string, SwThread> sw_;
  std::map<std::string, VirtAddr> buffers_;

  unsigned running_ = 0;
  unsigned started_ = 0;
};

}  // namespace vmsls::sls
