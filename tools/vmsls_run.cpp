// vmsls_run — command-line experiment driver.
//
// Runs one workload through the full flow with the knobs exposed:
//
//   vmsls_run --workload saxpy_burst --n 16384 --kind hw --tlb 16
//   vmsls_run --workload pointer_chase --n 8192 --cold --page-bits 16
//   vmsls_run --workload matmul --n 48 --kind sw --stats
//
// Prints cycles, verification status, and (with --stats) the full counter
// snapshot — the quickest way to poke at the model without writing code.
//
// --sweep-seeds K fans K replicas (seeds S..S+K-1) across --shards N host
// workers, one Simulator per replica, and prints a per-seed table plus the
// merged statistics — bit-identical for any N (see sls::ShardedRunner).

#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/telemetry.hpp"
#include "sim/trace.hpp"
#include "sls/process_group.hpp"
#include "sls/report_writer.hpp"
#include "sls/sharded_runner.hpp"
#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "sls/traffic.hpp"
#include "util/table.hpp"
#include "workloads/workloads.hpp"

using namespace vmsls;

namespace {
struct Options {
  std::string workload = "vecadd";
  u64 n = 4096;
  u64 tile = 256;
  u64 seed = 42;
  std::string kind = "hw";
  std::string platform = "7020";
  unsigned tlb_entries = 0;  // 0 = flow default / auto
  unsigned page_bits = 0;    // 0 = platform default
  bool cold = false;         // evict buffers before the run (demand paging)
  bool prefetch = false;
  bool dump_stats = false;
  std::string trace_path;      // Perfetto trace JSON; empty = tracing off
  std::string telemetry_path;  // telemetry CSV; empty = sampler off
  u64 telemetry_period = 20'000;
  unsigned sweep_seeds = 1;    // replicas (seed, seed+1, ...); 1 = single run
  unsigned shards = 1;         // host workers for the sweep
  // Serving mode (--serve N enables it; everything below is ignored
  // otherwise). The serving run replaces the engine run entirely: requests
  // arrive open-loop and are served as fault-path episodes over each
  // worker's arena.
  u64 serve = 0;               // requests to play; 0 = closed-loop run
  unsigned serve_workers = 4;  // worker processes in the pool
  Cycles serve_gap = 2000;     // mean inter-arrival gap in cycles
  u64 serve_queue = 16;        // bounded admission-queue capacity
  std::string arrival = "poisson";  // poisson | fixed
  std::string serve_mix;       // episode mix; empty = TrafficConfig default
  std::string serve_sweep;     // comma list of gaps, fastest last
  Cycles p99_bound = 60'000;   // rate-sweep latency bound

  static void usage() {
    std::cout <<
        "usage: vmsls_run [options]\n"
        "  --workload NAME   one of:";
    for (const auto& name : workloads::workload_names()) std::cout << " " << name;
    std::cout << "\n"
        "  --n N             problem size (default 4096)\n"
        "  --tile T          burst tile elements (default 256)\n"
        "  --seed S          input data seed (default 42)\n"
        "  --kind hw|sw      hardware or software thread (default hw)\n"
        "  --platform 7020|7045\n"
        "  --tlb E           override TLB entries\n"
        "  --page-bits B     page size = 2^B (12/14/16/21)\n"
        "  --cold            evict buffers first (demand paging)\n"
        "  --prefetch        enable next-page TLB prefetch\n"
        "  --stats           dump the full statistics snapshot\n"
        "  --trace PATH      write a Perfetto/Chrome trace_event JSON of the run\n"
        "  --telemetry PATH  write a periodic pressure time-series CSV\n"
        "                    (--trace and --telemetry: single runs only; --serve\n"
        "                    and --sweep-seeds reject them with exit status 2)\n"
        "  --telemetry-period N\n"
        "                    telemetry sampling period in cycles (default 20000)\n"
        "  --sweep-seeds K   run K replicas with seeds S..S+K-1 and merge stats\n"
        "  --shards N        host workers for --sweep-seeds (default 1; results\n"
        "                    are bit-identical for any N)\n"
        "serving mode (open-arrival traffic against a worker pool):\n"
        "  --serve N         play N requests through a ProcessGroup pool and\n"
        "                    report tail latency instead of makespan\n"
        "  --serve-workers K worker processes (default 4)\n"
        "  --serve-gap G     mean inter-arrival gap in cycles (default 2000)\n"
        "  --serve-queue C   admission-queue capacity (default 16)\n"
        "  --arrival D       arrival process: poisson | fixed (default poisson)\n"
        "  --serve-mix M     comma list of episode patterns (saxpy, matmul,\n"
        "                    hash_join, pointer_chase, ...)\n"
        "  --serve-sweep G1,G2,...\n"
        "                    walk the gaps (descending = rate ascending) until\n"
        "                    p99 exceeds --p99-bound; print the max-QPS point\n"
        "  --p99-bound B     latency bound for --serve-sweep (default 60000)\n";
  }
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--n") opt.n = std::stoull(value());
    else if (arg == "--tile") opt.tile = std::stoull(value());
    else if (arg == "--seed") opt.seed = std::stoull(value());
    else if (arg == "--kind") opt.kind = value();
    else if (arg == "--platform") opt.platform = value();
    else if (arg == "--tlb") opt.tlb_entries = static_cast<unsigned>(std::stoul(value()));
    else if (arg == "--page-bits") opt.page_bits = static_cast<unsigned>(std::stoul(value()));
    else if (arg == "--cold") opt.cold = true;
    else if (arg == "--prefetch") opt.prefetch = true;
    else if (arg == "--stats") opt.dump_stats = true;
    else if (arg == "--trace") opt.trace_path = value();
    else if (arg == "--telemetry") opt.telemetry_path = value();
    else if (arg == "--telemetry-period") opt.telemetry_period = std::stoull(value());
    else if (arg == "--sweep-seeds") opt.sweep_seeds = static_cast<unsigned>(std::stoul(value()));
    else if (arg == "--shards") opt.shards = static_cast<unsigned>(std::stoul(value()));
    else if (arg == "--serve") opt.serve = std::stoull(value());
    else if (arg == "--serve-workers") opt.serve_workers = static_cast<unsigned>(std::stoul(value()));
    else if (arg == "--serve-gap") opt.serve_gap = std::stoull(value());
    else if (arg == "--serve-queue") opt.serve_queue = std::stoull(value());
    else if (arg == "--arrival") opt.arrival = value();
    else if (arg == "--serve-mix") opt.serve_mix = value();
    else if (arg == "--serve-sweep") opt.serve_sweep = value();
    else if (arg == "--p99-bound") opt.p99_bound = std::stoull(value());
    else if (arg == "--help" || arg == "-h") { Options::usage(); return false; }
    else throw std::invalid_argument("unknown option " + arg);
  }
  return true;
}
}  // namespace

/// Workload + app for one seed (the only thing a sweep replica varies).
workloads::Workload make_run_workload(const Options& opt, u64 seed) {
  workloads::WorkloadParams params;
  params.n = opt.n;
  params.tile = opt.tile;
  params.seed = seed;
  return workloads::make_workload(opt.workload, params);
}

sls::AppSpec make_run_app(const Options& opt, const workloads::Workload& wl) {
  const auto kind = opt.kind == "sw" ? sls::ThreadKind::kSoftware : sls::ThreadKind::kHardware;
  auto app = workloads::single_thread_app(wl, kind, sls::Addressing::kVirtual, !opt.cold);
  if (opt.tlb_entries > 0) {
    mem::TlbConfig tlb;
    tlb.entries = opt.tlb_entries;
    tlb.ways = std::min(4u, opt.tlb_entries);
    app.threads[0].tlb_override = tlb;
  }
  app.threads[0].prefetch_next_page = opt.prefetch;
  return app;
}

sls::PlatformSpec make_run_platform(const Options& opt) {
  sls::PlatformSpec plat = opt.platform == "7045" ? sls::zynq7045() : sls::zynq7020();
  if (opt.page_bits > 0) plat.page_table.page_bits = opt.page_bits;
  return plat;
}

/// --sweep-seeds: K independent replicas across the shard pool. Each shard
/// synthesizes and simulates its own system; results and merged stats are
/// bit-identical whatever --shards is.
int run_sweep(const Options& opt) {
  struct Replica {
    Cycles cycles = 0;
    u64 faults = 0;
    bool ok = false;
  };
  std::vector<Replica> out(opt.sweep_seeds);
  std::vector<sls::Shard> shards;
  for (unsigned k = 0; k < opt.sweep_seeds; ++k)
    shards.push_back(
        {"seed" + std::to_string(opt.seed + k), [&opt, &out, k](sim::Simulator& sim) {
           const auto wl = make_run_workload(opt, opt.seed + k);
           sls::SynthesisFlow flow(make_run_platform(opt));
           auto system = flow.synthesize(make_run_app(opt, wl)).elaborate(sim);
           wl.setup(*system);
           if (opt.cold)
             for (const auto& buf : system->image().app().buffers)
               system->process().evict(system->buffer(buf.name), buf.bytes);
           system->start_all();
           out[k].cycles = system->run_to_completion();
           out[k].ok = wl.verify(*system);
           out[k].faults = sim.stats().counter_value("faults.faults");
         }});
  sls::ShardedRunner runner(opt.shards);
  const sls::ShardedReport report = runner.run(shards);

  Table table({"seed", "cycles", "events", "faults", "verified"});
  bool all_ok = true;
  for (unsigned k = 0; k < opt.sweep_seeds; ++k) {
    all_ok = all_ok && out[k].ok;
    table.add_row({Table::num(opt.seed + k), Table::num(out[k].cycles),
                   Table::num(report.shards[k].events), Table::num(out[k].faults),
                   out[k].ok ? "yes" : "NO"});
  }
  table.print(std::cout, opt.workload + " x " + std::to_string(opt.sweep_seeds) +
                             " seeds on " + std::to_string(opt.shards) + " workers");
  if (opt.dump_stats)
    for (const auto& [name, v] : report.stats.snapshot())
      std::cout << "  " << name << " = " << v << "\n";
  return all_ok ? 0 : 1;
}

/// One serving run on a fresh simulator: ProcessGroup pool + TrafficDriver,
/// reporting the request ledger and tail latency.
sls::TrafficDriver::Report run_serve_point(const Options& opt, Cycles mean_gap,
                                           bool dump) {
  sls::PlatformSpec plat = make_run_platform(opt);
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.swap.shared = true;
  // NVMe-class backing store (fig15's profile): the default flash-class
  // timing (4000-cycle access, 4 B/cycle) puts episode service near half a
  // megacycle, which no open-loop arrival rate worth sweeping can sustain.
  plat.pager.swap.read_latency = 60;
  plat.pager.swap.write_latency = 120;
  plat.pager.swap.bytes_per_cycle = 64;
  plat.traffic.requests = opt.serve;
  plat.traffic.queue_capacity = opt.serve_queue;
  plat.traffic.arrival.mean_gap = mean_gap;
  plat.traffic.arrival.seed = opt.seed;
  plat.traffic.arrival.kind = opt.arrival == "fixed"
                                  ? sim::ArrivalConfig::Kind::kDeterministic
                                  : sim::ArrivalConfig::Kind::kPoisson;
  if (opt.arrival != "fixed" && opt.arrival != "poisson")
    throw std::invalid_argument("--arrival must be poisson or fixed");
  if (!opt.serve_mix.empty()) plat.traffic.mix = opt.serve_mix;

  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  pool_cfg.policy = plat.pager.policy;

  sim::Simulator sim;
  sls::ProcessGroup group(sim, plat, pool_cfg);
  for (unsigned i = 0; i < opt.serve_workers; ++i) {
    workloads::WorkloadParams p;
    p.n = 64;
    p.seed = opt.seed + i;
    const auto wl = workloads::make_vecadd(p);
    sls::PlatformSpec proc_plat = plat;
    // The pressure knob: each worker holds well under half its arena, so
    // steady-state episodes page against the shared swap device.
    proc_plat.pager.frame_budget = std::max<u64>(4, plat.traffic.arena_pages * 5 / 12);
    sls::SynthesisFlow flow(proc_plat);
    const auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
    group.add_process(flow.synthesize(app), "p" + std::to_string(i));
  }

  sls::TrafficDriver driver(group, plat.traffic);
  const auto rep = driver.run();
  if (dump) {
    sls::write_serving_summary(std::cout, sim.stats());
    sls::write_swap_summary(std::cout, sim.stats());
    if (opt.dump_stats)
      for (const auto& [name, v] : sim.stats().snapshot())
        std::cout << "  " << name << " = " << v << "\n";
  }
  return rep;
}

int run_serve(const Options& opt) {
  if (opt.serve_sweep.empty()) {
    const auto rep = run_serve_point(opt, opt.serve_gap, true);
    std::cout << "serve: " << rep.completed << "/" << rep.arrivals << " completed ("
              << rep.rejected << " rejected), span " << rep.span << " cycles, "
              << rep.qps_mcycle() << " req/Mcycle, p50/p95/p99 " << rep.latency_p(0.50)
              << "/" << rep.latency_p(0.95) << "/" << rep.latency_p(0.99) << " cycles\n";
    return 0;
  }
  std::vector<Cycles> gaps;
  std::string item;
  std::istringstream list(opt.serve_sweep);
  while (std::getline(list, item, ',')) gaps.push_back(std::stoull(item));
  Table table({"gap", "qps/Mcyc", "p99", "rej", "verdict"});
  const auto sweep = sls::sweep_rates(gaps, opt.p99_bound, [&](Cycles gap) {
    return run_serve_point(opt, gap, false);
  });
  for (const auto& pt : sweep.points)
    table.add_row({Table::num(pt.mean_gap), Table::num(pt.qps_mcycle, 2), Table::num(pt.p99),
                   Table::num(pt.rejected), pt.violated ? "VIOLATED" : "ok"});
  table.print(std::cout, "rate sweep (p99 bound " + std::to_string(opt.p99_bound) + " cycles)");
  std::cout << "max QPS at p99 < " << opt.p99_bound << ": " << sweep.max_qps_mcycle
            << " req/Mcycle (gap " << sweep.max_qps_gap << "c, p99 " << sweep.max_qps_p99
            << "c)" << (sweep.saturated ? "" : " — never saturated; extend the sweep")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return 0;
    if ((opt.serve > 0 || opt.sweep_seeds > 1) &&
        (!opt.trace_path.empty() || !opt.telemetry_path.empty())) {
      std::cerr << "error: --trace/--telemetry apply to single runs only\n";
      return 2;
    }
    if (opt.serve > 0) return run_serve(opt);
    if (opt.sweep_seeds > 1) return run_sweep(opt);

    const auto wl = make_run_workload(opt, opt.seed);
    auto app = make_run_app(opt, wl);
    sls::PlatformSpec plat = make_run_platform(opt);

    sls::SynthesisFlow flow(plat);
    const auto image = flow.synthesize(app);

    sim::Simulator sim;
    // Attach the trace sink before elaboration so construction-time track
    // registration and the first fault both land in the file.
    std::unique_ptr<sim::JsonTraceWriter> trace;
    if (!opt.trace_path.empty()) {
      trace = std::make_unique<sim::JsonTraceWriter>(opt.trace_path);
      sim.trace().set_sink(trace.get());
    }
    auto system = image.elaborate(sim);
    wl.setup(*system);
    if (opt.cold)
      for (const auto& buf : app.buffers)
        system->process().evict(system->buffer(buf.name), buf.bytes);
    std::unique_ptr<sim::TelemetrySampler> telemetry;
    if (!opt.telemetry_path.empty()) {
      telemetry = std::make_unique<sim::TelemetrySampler>(sim, opt.telemetry_period);
      auto& as = system->address_space();
      telemetry->add_probe("resident",
                           [&as] { return static_cast<double>(as.resident_pages()); });
      const Counter& faults = sim.stats().counter("faults.faults");
      telemetry->add_rate_probe("fault_rate",
                                [&faults] { return static_cast<double>(faults.value()); });
      const Counter& walks = sim.stats().counter("walker.walks");
      telemetry->add_rate_probe("walk_rate",
                                [&walks] { return static_cast<double>(walks.value()); });
    }
    system->start_all();
    if (telemetry) telemetry->start();
    const Cycles cycles = system->run_to_completion();
    const bool ok = wl.verify(*system);
    if (telemetry) telemetry->save_csv(opt.telemetry_path);
    if (trace) {
      trace->finish(sim.trace());
      sim.trace().set_sink(nullptr);
    }

    std::cout << opt.workload << " n=" << opt.n << " kind=" << opt.kind << " -> " << cycles
              << " cycles, " << (ok ? "verified" : "WRONG RESULT") << "\n";
    if (opt.kind != "sw") {
      std::cout << "  tlb hit rate " << system->mmu("worker").tlb().hit_rate() * 100.0
                << "%, walks " << sim.stats().counter_value("walker.walks") << ", faults "
                << sim.stats().counter_value("faults.faults") << "\n";
    }
    if (opt.dump_stats)
      for (const auto& [name, v] : sim.stats().snapshot())
        std::cout << "  " << name << " = " << v << "\n";
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
