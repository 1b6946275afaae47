// Host-side microbenchmarks for the simulator substrate itself.
//
// Not paper data: these measure how fast the host retires simulated work —
// event-queue throughput (the calendar-wheel fast path, the far-future heap
// fallback, and zero-allocation recycling), inline-completion translation,
// TLB lookups, the memory-port layer, IR execution rate, and end-to-end
// fig-style workload runs —
// to keep the experiment harness fast enough for wide DSE sweeps.
//
// Emits BENCH_engine.json (see bench::EngineBenchReport for the schema) so
// CI can archive the perf trajectory run over run.

#include <iostream>

#include "bench_util.hpp"
#include "cpu/cached_port.hpp"
#include "hwt/builder.hpp"
#include "hwt/engine.hpp"
#include "hwt/hw_port.hpp"
#include "mem/address_space.hpp"
#include "mem/frames.hpp"
#include "mem/mmu.hpp"
#include "mem/pagetable.hpp"
#include "mem/physmem.hpp"
#include "mem/tlb.hpp"
#include "sim/simulator.hpp"
#include "sls/dse.hpp"
#include "util/table.hpp"

namespace {

using namespace vmsls;

constexpr double kMinSampleMs = 200.0;

struct Rate {
  double items_per_sec = 0;
  double host_ms = 0;   // of the final (reported) repetition batch
  u64 items = 0;        // per repetition
  u64 cycles = 0;       // simulated cycles per repetition; 0 = host-only section
};

/// Repeats `body` (which processes `items` units per call) until the batch
/// has run for at least kMinSampleMs, then reports the steady-state rate.
template <typename F>
Rate measure(u64 items, F&& body) {
  body();  // warm-up: page in code, size pools
  u64 reps = 1;
  for (;;) {
    bench::WallTimer t;
    for (u64 r = 0; r < reps; ++r) body();
    const double ms = t.ms();
    if (ms >= kMinSampleMs) {
      Rate rate;
      rate.items = items * reps;
      rate.host_ms = ms;
      rate.items_per_sec = static_cast<double>(items * reps) / (ms / 1000.0);
      return rate;
    }
    reps = ms > 1.0 ? 1 + static_cast<u64>(static_cast<double>(reps) * kMinSampleMs / ms) : reps * 8;
  }
}

/// Old BM_EventQueueScheduleRun shape: schedule n events with small mixed
/// delays, then drain. Exercises the wheel + node recycling.
Rate bench_event_queue(u64 n) {
  Cycles covered = 0;
  Rate r = measure(n, [n, &covered] {
    sim::Simulator sim;
    u64 sink = 0;
    for (u64 i = 0; i < n; ++i) sim.schedule_in(i % 97, [&sink] { ++sink; });
    sim.run();
    if (sink != n) throw std::runtime_error("event sink mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

/// Steady-state pipeline: a fixed population of self-rescheduling events,
/// the shape of a running SoC simulation (every pop feeds a push).
Rate bench_event_steady(u64 population, u64 rounds) {
  const u64 total = population * rounds;
  Cycles covered = 0;
  Rate r = measure(total, [population, rounds, total, &covered] {
    sim::Simulator sim;
    u64 fired = 0;
    struct Chain {
      sim::Simulator& sim;
      u64& fired;
      u64 budget;
      void operator()() {
        ++fired;
        if (--budget > 0) sim.schedule_in(1 + (budget % 13), *this);
      }
    };
    for (u64 i = 0; i < population; ++i)
      sim.schedule_in(i % 7, Chain{sim, fired, rounds});
    sim.run();
    if (fired != total) throw std::runtime_error("steady-state count mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

/// Far-future events beyond the wheel horizon: heap fallback + migration
/// ordering against near events.
Rate bench_event_far(u64 n) {
  Cycles covered = 0;
  Rate r = measure(2 * n, [n, &covered] {
    sim::Simulator sim;
    u64 sink = 0;
    for (u64 i = 0; i < n; ++i) {
      sim.schedule_in(i % 97, [&sink] { ++sink; });
      sim.schedule_in(100'000 + (i % 977), [&sink] { ++sink; });
    }
    sim.run();
    if (sink != 2 * n) throw std::runtime_error("far event sink mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

/// Control for the tracing-overhead pair: the event-queue loop with the
/// same body event_traced_off wraps in VMSLS_TRACE_* sites.
Rate bench_event_trace_control(u64 n) {
  Cycles covered = 0;
  Rate r = measure(n, [n, &covered] {
    sim::Simulator sim;
    u64 sink = 0;
    for (u64 i = 0; i < n; ++i)
      sim.schedule_in(i % 97, [&sink] { ++sink; });
    sim.run();
    if (sink != n) throw std::runtime_error("trace control sink mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

/// Tracing-disabled overhead: identical loop plus the VMSLS_TRACE_* sites a
/// traced component carries per event. With no sink attached each site must
/// cost one well-predicted branch; main() gates this against the control at
/// 20% (an in-process, machine-independent check — check_bench.py tracks
/// the absolute rates on top).
Rate bench_event_trace_macro_off(u64 n) {
  Cycles covered = 0;
  Rate r = measure(n, [n, &covered] {
    sim::Simulator sim;
    const sim::TraceTrack track = sim.trace().track("bench");
    if (sim.trace().enabled())
      throw std::runtime_error("trace sink unexpectedly attached");
    u64 sink = 0;
    for (u64 i = 0; i < n; ++i)
      sim.schedule_in(i % 97, [&sim, &sink, track] {
        const u64 id = VMSLS_TRACE_NEW_ID(sim.trace());
        VMSLS_TRACE_BEGIN(sim.trace(), track, "ev", id);
        ++sink;
        VMSLS_TRACE_END(sim.trace(), track, "ev", id);
        VMSLS_TRACE_COUNTER(sim.trace(), track, "retired", static_cast<double>(sink));
      });
    sim.run();
    if (sink != n) throw std::runtime_error("traced-off sink mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

Rate bench_tlb_lookup(u64 n) {
  StatRegistry stats;
  mem::TlbConfig cfg;
  cfg.entries = 64;
  cfg.ways = 4;
  mem::Tlb tlb(cfg, stats, "t");
  for (u64 v = 0; v < 64; ++v) tlb.insert(v, v, true);
  return measure(n, [&tlb, n] {
    u64 acc = 0;
    for (u64 i = 0; i < n; ++i) {
      auto e = tlb.lookup(i % 64);
      acc += e ? e->frame : 0;
    }
    if (acc == ~0ull) throw std::runtime_error("unreachable");
  });
}

/// Pass-through translation: the inline-completion path must complete
/// without any scheduler traffic (asserted here, measured for rate).
Rate bench_passthrough_translate(u64 n) {
  sim::Simulator sim;
  mem::PhysicalMemory pm(16 * MiB);
  mem::FrameAllocator frames(0, (16 * MiB) / (4 * KiB), 4 * KiB);
  mem::PageTable pt(pm, frames, mem::PageTableConfig{});
  mem::DramModel dram(mem::DramConfig{}, sim.stats(), "dram");
  mem::MemoryBus bus(sim, dram, mem::BusConfig{}, "bus");
  mem::PageWalker walker(sim, bus, pm, pt, mem::WalkerConfig{}, "walker");
  mem::MmuConfig mcfg;
  mcfg.translation_enabled = false;
  mem::Mmu mmu(sim, walker, mcfg, "mmu", 0);
  const u64 scheduled_before = sim.events_scheduled();
  Rate r = measure(n, [&mmu, n] {
    u64 acc = 0;
    for (u64 i = 0; i < n; ++i) mmu.translate(i * 64, false, [&acc](PhysAddr pa) { acc += pa; });
    if (acc == ~0ull) throw std::runtime_error("unreachable");
  });
  if (sim.events_scheduled() != scheduled_before)
    throw std::runtime_error("pass-through translation leaked scheduler events");
  return r;
}

/// One address space behind both port kinds: an MMU-translated HwMemPort
/// and a cached CPU port, over 16 MiB of 4 KiB pages.
struct PortRig {
  static constexpr u64 kMem = 16 * MiB;
  sim::Simulator sim;
  mem::PhysicalMemory pm{kMem};
  mem::FrameAllocator frames{0, kMem / (4 * KiB), 4 * KiB};
  mem::AddressSpace as{pm, frames, mem::PageTableConfig{}};
  mem::DramModel dram{mem::DramConfig{}, sim.stats(), "dram"};
  mem::MemoryBus bus{sim, dram, mem::BusConfig{}, "bus"};
  mem::PageWalker walker{sim, bus, pm, as.page_table(), mem::WalkerConfig{}, "walker"};
  mem::Mmu mmu{sim, walker, mem::MmuConfig{}, "mmu", 0};
  hwt::HwMemPort hw_port{sim, mmu, bus, pm, hwt::HwPortConfig{}, "port"};
  mem::CacheHierarchy caches{sim, bus, mem::CacheHierarchyConfig{}, "caches"};
  cpu::CachedMemPort cached_port{sim, as, caches, "cpu"};
  VirtAddr base = 0;

  explicit PortRig(u64 bytes) {
    base = as.alloc(bytes, 4 * KiB);
    as.populate(base, bytes);
  }
};

/// Port layer: `n` blocking reads of `bytes` each through `port`, the
/// engine's access pattern (one op in flight). Addresses cycle over
/// `window` bytes, so steady state is TLB- (and, for `bytes` = 8,
/// cache-) resident.
Rate bench_port_reads(u64 n, u32 bytes, u64 window, bool cached) {
  PortRig rig(window + 4 * KiB);
  hwt::MemPort& port = cached ? static_cast<hwt::MemPort&>(rig.cached_port) : rig.hw_port;
  std::vector<u8> buf(bytes);
  u64 completed = 0;
  Rate r = measure(n, [&] {
    for (u64 i = 0; i < n; ++i) {
      // Offsets step by 520 B so bursts start at varied page offsets.
      port.read(rig.base + (i * 520) % window, buf, [&completed] { ++completed; });
      rig.sim.run();
    }
  });
  if (completed % n != 0) throw std::runtime_error("port read lost a completion");
  r.cycles = rig.sim.now();
  return r;
}

Rate bench_engine_alu() {
  hwt::KernelBuilder kb("alu");
  kb.li(1, 0).li(2, 0).li(3, 1'000'000)
      .label("loop")
      .seq(4, 2, 3)
      .bnez(4, "out")
      .add(1, 1, 2)
      .addi(2, 2, 1)
      .jmp("loop")
      .label("out")
      .halt();
  const hwt::Kernel kernel = kb.build();
  u64 instructions = 0;
  Cycles covered = 0;
  Rate r = measure(1, [&kernel, &instructions, &covered] {
    sim::Simulator sim;
    hwt::Engine engine(sim, kernel, hwt::EngineConfig{}, "e");
    bool done = false;
    engine.start([&done] { done = true; });
    sim.run();
    if (!done) throw std::runtime_error("ALU kernel did not halt");
    instructions = engine.instructions_retired();
    covered = sim.now();
  });
  r.items = instructions * r.items;  // measure() counted kernel runs
  r.items_per_sec *= static_cast<double>(instructions);
  r.cycles = covered;
  return r;
}

bench::RunResult run_fig_style(const std::string& workload, u64 n) {
  workloads::WorkloadParams p;
  p.n = n;
  return bench::run_workload(workloads::make_workload(workload, p));
}

}  // namespace

int main() {
  bench::EngineBenchReport report;
  Table table({"section", "items/s", "host ms", "items"});
  auto row = [&](const std::string& name, const Rate& r) {
    table.add_row({name, Table::num(r.items_per_sec, 0), Table::num(r.host_ms, 1),
                   Table::num(r.items)});
    report.add(name, r.cycles, r.items, r.host_ms);
  };

  row("event_queue_1k", bench_event_queue(1024));
  row("event_queue_16k", bench_event_queue(16384));
  row("event_steady_64x4k", bench_event_steady(64, 4096));
  row("event_far_heap_4k", bench_event_far(4096));
  {
    const Rate ctl = bench_event_trace_control(16384);
    const Rate off = bench_event_trace_macro_off(16384);
    row("event_trace_ctl_16k", ctl);
    row("event_traced_off_16k", off);
    if (off.items_per_sec < 0.80 * ctl.items_per_sec)
      throw std::runtime_error("tracing-disabled overhead exceeds 20% of the control rate");
  }
  row("tlb_lookup_hit", bench_tlb_lookup(1 << 16));
  row("passthrough_translate", bench_passthrough_translate(1 << 14));
  row("hw_port_read_8b", bench_port_reads(1 << 14, 8, 16 * KiB, false));
  row("hw_port_burst_4k", bench_port_reads(1 << 10, 4 * KiB, 16 * KiB, false));
  row("cached_port_read_8b", bench_port_reads(1 << 14, 8, 16 * KiB, true));
  row("engine_alu_instr", bench_engine_alu());

  // End-to-end fig-style runs: simulated events per host second is the
  // number that bounds every sweep in bench/.
  for (const auto& [wl, n] : std::vector<std::pair<std::string, u64>>{
           {"matmul", 32}, {"pointer_chase", 8192}}) {
    const auto r = run_fig_style(wl, n);
    table.add_row({"fig_" + wl, Table::num(r.host_ms > 0 ? static_cast<double>(r.events) /
                                                               (r.host_ms / 1000.0)
                                                         : 0,
                                           0),
                   Table::num(r.host_ms, 1), Table::num(r.events)});
    report.add("fig_" + wl, r.cycles, r.events, r.host_ms);
  }

  // Parallel DSE scaling (identical results by construction; the
  // determinism test asserts it — here we record wall-clock).
  {
    workloads::WorkloadParams p;
    p.n = 24;
    auto wl = workloads::make_workload("matmul", p);
    auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
    auto evaluate = [&wl](const sls::SystemImage& image) {
      sim::Simulator sim;
      auto system = image.elaborate(sim);
      wl.setup(*system);
      system->start_all();
      return system->run_to_completion();
    };
    const std::vector<unsigned> candidates = {4, 8, 16, 32};
    for (unsigned threads : {1u, 4u}) {
      sls::DesignSpaceExplorer dse(sls::zynq7020());
      dse.set_threads(threads);
      bench::WallTimer t;
      const auto result = dse.explore(app, {sls::tlb_axis("worker", candidates)}, evaluate);
      const double ms = t.ms();
      const std::string name = "dse_tlb_" + std::to_string(threads) + "t";
      table.add_row({name, Table::num(static_cast<double>(candidates.size()) / (ms / 1000.0), 2),
                     Table::num(ms, 1), Table::num(static_cast<u64>(result.candidates.size()))});
      report.add(name, 0, result.candidates.size(), ms);
    }
  }

  table.print(std::cout, "Simulator substrate microbenchmarks");
  report.write_json("BENCH_engine.json");
  std::cout << "wrote BENCH_engine.json\n";
  return 0;
}
