// Allocation gate for the paging path.
//
// The page-state records, the pooled fault records, the swap scheduler's
// vector-backed queue and slot geometry, the CLOCK ring and the serving
// plane's per-worker episodes all grow to their peak and then recycle.
// After a warm-up sizes them, steady-state paging work must perform zero
// heap allocations:
//   - a serve_open-shaped pager rig (per-process CLOCK budget over a shared
//     priority swap front end) taking clean faults, dirty writebacks and
//     swap-ins, some of them concurrent;
//   - AddressSpace::pin / unpin;
//   - TrafficDriver requests over a ProcessGroup worker pool. There the
//     only allocations left are PhysicalMemory's first touches of DRAM
//     chunks: the next-fit frame allocator keeps handing out an
//     occasional never-written frame, whose simulated contents are
//     allocated lazily. The gate counts those separately.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "alloc_count.hpp"
#include "mem/paging/pager.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "rt/process.hpp"
#include "sls/process_group.hpp"
#include "sls/traffic.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls {
namespace {

paging::SwapConfig serve_swap() {
  paging::SwapConfig cfg;
  cfg.shared = true;
  cfg.sched = paging::SwapSchedPolicy::kPriority;
  cfg.read_latency = 60;
  cfg.write_latency = 120;
  cfg.bytes_per_cycle = 64;
  return cfg;
}

/// One worker process of fig15's serving pool, driven directly: a 20-frame
/// CLOCK budget over a 48-page arena, paging against a shared scheduler.
struct PagerRig {
  static constexpr u64 kArenaPages = 48;

  test::MemorySystem ms;
  rt::Process process{ms.sim, ms.as, "p0"};
  paging::SwapScheduler swap{ms.sim, serve_swap(), 4 * KiB, "swap"};
  std::unique_ptr<paging::Pager> pager;
  VirtAddr arena = 0;

  PagerRig() {
    paging::PagerConfig pc;
    pc.frame_budget = 20;
    pc.policy = paging::PolicyKind::kClock;
    pc.swap = serve_swap();
    pager = std::make_unique<paging::Pager>(ms.sim, process, pc, "p0.pager", &swap);
    arena = ms.as.alloc(kArenaPages * 4096, 4096);
  }

  /// Starts one touch; faults complete when the simulator runs.
  void touch(u64 page, bool write) {
    const VirtAddr va = arena + page * 4096;
    if (ms.as.is_mapped(va)) {
      if (write)
        ms.as.write_u64(va, page);
      else
        (void)ms.as.read_u64(va);
      return;
    }
    pager->handle_fault(va, write, [this, va, write, page] {
      if (!ms.as.is_mapped(va)) process.map_in(va);
      if (write) ms.as.write_u64(va, page);
    });
  }
};

TEST(PagingAlloc, ServeShapedFaultPath) {
  PagerRig rig;
  u64 step = 0;
  const auto pass = [&] {
    for (u64 i = 0; i < 256; ++i) {
      // A strided walk over the arena with a store every third touch; every
      // eighth step issues a second fault (sometimes on the same page)
      // before the first completes.
      const u64 page = (step * 7) % PagerRig::kArenaPages;
      rig.touch(page, step % 3 == 0);
      if (step % 8 == 0) rig.touch((page + step % 2) % PagerRig::kArenaPages, false);
      ++step;
      rig.ms.run_all();
    }
  };
  pass();  // first touches: zero-fills; later passes swap pages back in
  const u64 swap_ins = rig.pager->swap_ins();
  const u64 writebacks = rig.pager->writebacks();
  EXPECT_EQ(steady_state_allocs(pass), 0u);
  EXPECT_GT(rig.pager->swap_ins(), swap_ins);
  EXPECT_GT(rig.pager->writebacks(), writebacks);
  EXPECT_GT(rig.pager->evictions(), 0u);
}

TEST(PagingAlloc, PinUnpin) {
  test::MemorySystem ms;
  const VirtAddr va = ms.as.alloc(64 * 4096, 4096);
  ms.as.populate(va, 64 * 4096);
  const auto allocs = steady_state_allocs([&] {
    for (u64 i = 0; i < 64; ++i) ms.as.pin(va + i * 4096);
    for (u64 i = 0; i < 64; ++i) ms.as.pin(va + i * 4096 + 8);
    for (u64 i = 0; i < 64; ++i) ms.as.unpin(va + i * 4096);
    for (u64 i = 0; i < 64; ++i) ms.as.unpin(va + i * 4096 + 8);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(ms.as.pinned_pages(), 0u);
}

TEST(PagingAlloc, TrafficRequests) {
  // fig15's serving pool at a moderate rate: four workers, 20 frames each
  // over 48-page arenas, priority dispatch on one shared swap device.
  sls::PlatformSpec plat = sls::zynq7020();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.swap = serve_swap();
  plat.traffic.arrival.kind = sim::ArrivalConfig::Kind::kPoisson;
  plat.traffic.arrival.mean_gap = 5000;
  plat.traffic.arrival.seed = 3;
  plat.traffic.requests = 1600;
  plat.traffic.queue_capacity = 64;
  plat.traffic.episode_touches = 24;
  plat.traffic.arena_pages = 48;
  plat.traffic.touch_cost = 20;
  plat.traffic.write_ratio = 0.25;

  sim::Simulator sim;
  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  sls::ProcessGroup group(sim, plat, pool_cfg);
  for (unsigned i = 0; i < 4; ++i) {
    workloads::WorkloadParams p;
    p.n = 64;
    p.seed = 1 + i;
    sls::PlatformSpec proc_plat = plat;
    proc_plat.pager.frame_budget = 20;
    sls::SynthesisFlow flow(proc_plat);
    group.add_process(flow.synthesize(workloads::single_thread_app(
                          workloads::make_vecadd(p), sls::ThreadKind::kHardware)),
                      "p" + std::to_string(i));
  }
  sls::TrafficDriver driver(group, plat.traffic);

  // Probes at a quarter and three quarters of the nominal arrival span: the
  // first quarter warms every pool and saves every arena page once, and
  // the middle half may allocate nothing but first-touched DRAM chunks.
  const Cycles span = plat.traffic.requests * plat.traffic.arrival.mean_gap;
  const mem::PhysicalMemory& pm = group.process(0).physical_memory();
  unsigned long long allocs_at[2] = {0, 0};
  u64 chunks_at[2] = {0, 0}, completed_at[2] = {0, 0};
  const Counter& completed = sim.stats().counter("traffic.completed");
  for (int k = 0; k < 2; ++k)
    sim.schedule_at(span * (1 + 2 * k) / 4, [&, k] {
      allocs_at[k] = g_allocs.load();
      chunks_at[k] = pm.touched_chunks();
      completed_at[k] = completed.value();
    });
  const auto rep = driver.run();

  EXPECT_EQ(rep.completed, plat.traffic.requests);
  EXPECT_GE(completed_at[1] - completed_at[0], plat.traffic.requests / 4);
  EXPECT_GT(group.process(0).pager()->swap_ins(), 0u);
  EXPECT_EQ(allocs_at[1] - allocs_at[0], chunks_at[1] - chunks_at[0]);
}

}  // namespace
}  // namespace vmsls
