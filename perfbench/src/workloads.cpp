// The benchmark's four workloads. Each function runs one complete pass:
// generate inputs from the run seed, synthesize, elaborate onto fresh
// simulators (so every modelled cache -- TLBs, walker cache, DRAM rows --
// starts empty), simulate, and verify. Host-time spans wrap each call into a
// layer; the pass's stat registries are folded into per-layer counts.

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include "mem/paging/frame_pool.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "perfbench.hpp"
#include "sls/dse.hpp"
#include "sls/process_group.hpp"
#include "sls/traffic.hpp"
#include "util/parallel.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace vmsls;

namespace {

constexpr u64 kPage = 4 * KiB;

u64 ws_pages(const workloads::Workload& wl) {
  u64 bytes = 0;
  for (const auto& buf : wl.buffers) bytes += buf.bytes;
  return ceil_div(bytes, kPage);
}

/// Start of a pass on both host clocks: CPU seconds of every thread, and wall.
struct PassClock {
  double cpu0 = process_cpu_seconds();
  Clock::time_point wall0 = Clock::now();
};

/// Runs a pass's `n` independent simulations on `threads` host threads, each
/// thread taking the next simulation when its previous one returns (a closed
/// loop with `threads` clients).
template <class F>
PassClock run_units(unsigned threads, std::size_t n, F&& unit) {
  const PassClock start;
  parallel_for(threads, n, std::forward<F>(unit));
  return start;
}

/// Setup sums the setup spans over threads; run is the CPU time every thread
/// of the process spent since `start`.
void close_pass(Pass& out, const PassClock& start) {
  out.run_cpu_s = process_cpu_seconds() - start.cpu0;
  out.wall_s = seconds_since(start.wall0);
  out.setup_s = out.spans.get("workloads.setup_s") + out.spans.get("sls.synthesize_s") +
                out.spans.get("sls.elaborate_s") + out.spans.get("rt.cold_evict_s");
}

/// Cold start: every buffer page returns through the timed fault path.
void cold_evict(Pass& out, sls::System& system) {
  out.spans.time("rt.cold_evict_s", [&] {
    for (const auto& buf : system.image().app().buffers)
      system.process().evict(system.buffer(buf.name), buf.bytes);
  });
}

/// Folds one finished simulator into the pass: detaches and closes its trace
/// sink, and records its events, layer counts and stat snapshot. The caller
/// holds `out.mu`.
void fold(Pass& out, const std::string& label, sim::Simulator& sim, SpanTotals& sink,
          bool traced) {
  if (traced) {
    sim.trace().set_sink(nullptr);
    sink.finish();
    out.trace.merge(sink);
  }
  out.events += sim.events_executed();
  out.counts.absorb(sim.stats());
  record_snapshot(out, label, sim.stats());
}

}  // namespace

// --- hwt_resident -------------------------------------------------------------

void pass_hwt_resident(const Options& opt, bool traced, Pass& out) {
  struct Kernel {
    const char* name;
    u64 n;
  };
  static const Kernel kKernels[] = {
      {"pointer_chase", 65536}, {"matmul", 64},         {"hash_join", 32768},
      {"spmv", 8192},           {"saxpy_burst", 262144}, {"bfs", 16384},
  };
  constexpr std::size_t kinds = std::size(kKernels);
  // Four copies of the suite, each with its own input data: 24 simulations
  // keep 4 threads evenly loaded.
  const std::size_t replicas = opt.reduced ? 1 : 4;
  double sim_cycles = 0;  // guarded by out.mu
  const PassClock started = run_units(opt.threads, replicas * kinds, [&](std::size_t u) {
    const Kernel& k = kKernels[u % kinds];
    workloads::WorkloadParams p;
    p.n = opt.reduced ? std::max<u64>(k.n / 16, 16) : k.n;
    p.seed = derive_seed(opt.seed, 100 + u);
    const auto wl = out.spans.time("workloads.setup_s",
                                   [&] { return workloads::make_workload(k.name, p); });
    const auto image = out.spans.time("sls.synthesize_s", [&] {
      sls::SynthesisFlow flow(sls::zynq7020());
      return flow.synthesize(workloads::single_thread_app(wl, sls::ThreadKind::kHardware));
    });
    sim::Simulator sim;
    SpanTotals sink;
    if (traced) sim.trace().set_sink(&sink);
    const auto system = out.spans.time("sls.elaborate_s", [&] { return image.elaborate(sim); });
    out.spans.time("workloads.setup_s", [&] { wl.setup(*system); });
    const Cycles cycles = out.spans.time("sls.simulate_s", [&] {
      system->start_all();
      const Cycles c = system->run_to_completion();
      sim.run();
      return c;
    });
    const bool ok = out.spans.time("workloads.verify_s", [&] { return wl.verify(*system); });

    const std::string label = std::string(k.name) + "#" + std::to_string(u / kinds);
    std::lock_guard<std::mutex> lock(out.mu);
    out.checks.expect(ok, label + ": golden verify failed");
    out.checks.expect(sim.stats().counter_value("faults.faults") == 0,
                      label + ": a resident kernel took a page fault");
    out.checks.expect(sim.idle(), label + ": event queue not drained");
    out.sim["cycles." + label] = static_cast<double>(cycles);
    sim_cycles += static_cast<double>(cycles);
    fold(out, label, sim, sink, traced);
  });
  out.sim["sim_cycles"] = sim_cycles;
  close_pass(out, started);
}

// --- oversub_thrash -----------------------------------------------------------

namespace {

/// One over-subscribed machine: four cold processes on one global pool.
/// Returns its makespan; `r` selects the replica's input streams.
Cycles oversub_group(const Options& opt, bool traced, std::size_t r, Pass& out) {
  const u64 scale = opt.reduced ? 8 : 1;
  std::vector<workloads::Workload> wls;
  out.spans.time("workloads.setup_s", [&] {
    for (unsigned i = 0; i < 4; ++i) {
      workloads::WorkloadParams p;
      p.seed = derive_seed(opt.seed, 200 + 10 * r + i);
      if (i < 2) {
        p.n = 16384 / scale;
        wls.push_back(workloads::make_pointer_chase(p));
      } else if (i == 2) {
        p.n = 16384 / scale;
        wls.push_back(workloads::make_hash_join(p));
      } else {
        p.n = 131072 / scale;
        wls.push_back(workloads::make_saxpy(p));
      }
    }
  });
  u64 total_ws = 0;
  for (const auto& wl : wls) total_ws += ws_pages(wl);

  // One global budget at ~800% aggregate over-subscription: the global
  // CLOCK sweep evicts across processes.
  const sls::PlatformSpec plat = sls::zynq7045();
  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kGlobal;
  pool_cfg.total_frames = std::max<u64>(8, total_ws * 100 / 800);
  pool_cfg.policy = paging::PolicyKind::kClock;
  pool_cfg.policy_seed = derive_seed(opt.seed, 209 + 10 * r);

  sim::Simulator sim;
  SpanTotals sink;
  if (traced) sim.trace().set_sink(&sink);
  auto group = out.spans.time("sls.elaborate_s", [&] {
    return std::make_unique<sls::ProcessGroup>(sim, plat, pool_cfg);
  });
  for (unsigned i = 0; i < wls.size(); ++i) {
    sls::PlatformSpec proc_plat = plat;
    proc_plat.pager.budget_mode = paging::BudgetMode::kGlobal;
    proc_plat.pager.policy = pool_cfg.policy;
    proc_plat.pager.policy_seed = pool_cfg.policy_seed;
    const auto image = out.spans.time("sls.synthesize_s", [&] {
      sls::SynthesisFlow flow(proc_plat);
      return flow.synthesize(workloads::single_thread_app(wls[i], sls::ThreadKind::kHardware));
    });
    sls::System& system = out.spans.time("sls.elaborate_s", [&]() -> sls::System& {
      return group->add_process(image, "p" + std::to_string(i));
    });
    out.spans.time("workloads.setup_s", [&] { wls[i].setup(system); });
    cold_evict(out, system);
  }
  const Cycles cycles = out.spans.time("sls.simulate_s", [&] {
    group->start_all();
    const Cycles c = group->run_to_completion();
    group->drain();
    return c;
  });
  std::vector<bool> verified(wls.size());
  out.spans.time("workloads.verify_s", [&] {
    for (unsigned i = 0; i < wls.size(); ++i) verified[i] = wls[i].verify(group->process(i));
  });

  const std::string label = "group#" + std::to_string(r);
  std::lock_guard<std::mutex> lock(out.mu);
  for (unsigned i = 0; i < wls.size(); ++i)
    out.checks.expect(verified[i], label + " " + wls[i].name + " (p" + std::to_string(i) +
                                       "): golden verify failed");
  out.checks.expect(sim.idle(), label + ": event queue not drained");
  out.checks.expect(sim.stats().counter_value("pool.evictions") > 0,
                    label + ": the pool never evicted (no pressure)");
  out.sim["cycles." + label] = static_cast<double>(cycles);
  out.sim["budget_frames." + label] = static_cast<double>(pool_cfg.total_frames);
  fold(out, label, sim, sink, traced);
  return cycles;
}

}  // namespace

void pass_oversub_thrash(const Options& opt, bool traced, Pass& out) {
  // Eight machines, each with its own input data, two per thread.
  const std::size_t replicas = opt.reduced ? 2 : 8;
  double sim_cycles = 0;  // guarded by out.mu
  const PassClock started = run_units(opt.threads, replicas, [&](std::size_t r) {
    const Cycles cycles = oversub_group(opt, traced, r, out);
    std::lock_guard<std::mutex> lock(out.mu);
    sim_cycles += static_cast<double>(cycles);
  });
  out.sim["sim_cycles"] = sim_cycles;
  close_pass(out, started);
}


// --- serve_open ---------------------------------------------------------------

namespace {

constexpr Cycles kP99Bound = 60'000;
constexpr Cycles kLight = 10'000, kMid = 5'000, kHeavy = 3'500;

/// One open-arrival rate point: fig15's serving pool with priority swap
/// dispatch. sls::TrafficDriver injects each arrival at its due cycle, so
/// generator lateness is 0 by construction.
sls::TrafficDriver::Report serve_point(const Options& opt, bool traced, Cycles gap, Pass& out) {
  sls::PlatformSpec plat = sls::zynq7020();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.policy_seed = derive_seed(opt.seed, 350);
  plat.pager.swap.shared = true;
  plat.pager.swap.sched = paging::SwapSchedPolicy::kPriority;
  plat.pager.swap.read_latency = 60;
  plat.pager.swap.write_latency = 120;
  plat.pager.swap.bytes_per_cycle = 64;
  plat.traffic.arrival.kind = sim::ArrivalConfig::Kind::kPoisson;
  plat.traffic.arrival.mean_gap = gap;
  plat.traffic.arrival.seed = derive_seed(opt.seed, 300);
  // The heavy point's tail is a headline metric and sits nearest the knee,
  // where it moves most with the arrival draw: three times the requests
  // steady its p99 across seeds.
  plat.traffic.requests = (opt.reduced ? 600 : 12000) * (gap == kHeavy ? 3 : 1);
  plat.traffic.queue_capacity = 64;
  plat.traffic.episode_touches = 24;
  plat.traffic.arena_pages = 48;
  plat.traffic.touch_cost = 20;
  plat.traffic.write_ratio = 0.25;

  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  pool_cfg.policy = plat.pager.policy;
  pool_cfg.policy_seed = plat.pager.policy_seed;

  sim::Simulator sim;
  SpanTotals sink;
  if (traced) sim.trace().set_sink(&sink);
  auto group = out.spans.time("sls.elaborate_s", [&] {
    return std::make_unique<sls::ProcessGroup>(sim, plat, pool_cfg);
  });
  for (unsigned i = 0; i < 4; ++i) {
    // The worker engine never runs: the serving episode is the workload,
    // driven through the pager. 20 frames over a 48-page arena.
    workloads::WorkloadParams p;
    p.n = 64;
    p.seed = derive_seed(opt.seed, 310 + i);
    const auto wl = out.spans.time("workloads.setup_s", [&] { return workloads::make_vecadd(p); });
    sls::PlatformSpec proc_plat = plat;
    proc_plat.pager.frame_budget = 20;
    const auto image = out.spans.time("sls.synthesize_s", [&] {
      sls::SynthesisFlow flow(proc_plat);
      return flow.synthesize(workloads::single_thread_app(wl, sls::ThreadKind::kHardware));
    });
    out.spans.time("sls.elaborate_s",
                   [&] { group->add_process(image, "p" + std::to_string(i)); });
  }
  auto traffic = out.spans.time("sls.elaborate_s", [&] {
    return std::make_unique<sls::TrafficDriver>(*group, plat.traffic);
  });
  auto rep = out.spans.time("sls.simulate_s", [&] { return traffic->run(); });

  const std::string label = "gap" + std::to_string(gap);
  Checks c;
  out.spans.time("workloads.verify_s", [&] {
    c.expect(rep.arrivals == plat.traffic.requests, label + ": arrivals != configured requests");
    c.expect(rep.admitted + rep.rejected == rep.arrivals,
             label + ": admitted + rejected != arrivals");
    c.expect(rep.completed == rep.admitted, label + ": completed != admitted");
    c.expect(rep.latency.size() == rep.completed, label + ": latency samples != completions");
    c.expect(traffic->queue_depth() == 0, label + ": admission queue not drained");
    c.expect(traffic->busy_workers() == 0, label + ": workers busy after drain");
    c.expect(group->shared_swap() != nullptr && group->shared_swap()->queue_depth() == 0,
             label + ": swap queue not drained");
    c.expect(sim.idle(), label + ": event queue not drained");
  });
  std::lock_guard<std::mutex> lock(out.mu);
  out.checks.merge(c);
  out.sim[label + ".span"] = static_cast<double>(rep.span);
  out.sim[label + ".p50"] = static_cast<double>(rep.latency_p(0.50));
  out.sim[label + ".p99"] = static_cast<double>(rep.latency_p(0.99));
  out.sim[label + ".rejected"] = static_cast<double>(rep.rejected);
  fold(out, label, sim, sink, traced);
  return rep;
}

}  // namespace

void pass_serve_open(const Options& opt, bool traced, Pass& out) {
  // light, mid and heavy, then on past heavy toward the knee. Every pass
  // runs the whole grid, so a pass does the same work whatever the seed.
  const std::vector<Cycles> gaps = {kLight, kMid, kHeavy, 3300, 3100, 2900, 2700, 2500};
  std::map<Cycles, sls::TrafficDriver::Report> by_gap;  // guarded by out.mu while units run
  const PassClock started = run_units(opt.threads, gaps.size(), [&](std::size_t i) {
    auto rep = serve_point(opt, traced, gaps[i], out);
    std::lock_guard<std::mutex> lock(out.mu);
    by_gap.emplace(gaps[i], std::move(rep));
  });

  // The knee: walk the grid in descending gap order up to the first point
  // over the p99 bound or with a rejection.
  sls::RateSweepResult sweep;
  try {
    sweep = sls::sweep_rates(gaps, kP99Bound, [&](Cycles gap) { return by_gap.at(gap); });
  } catch (const std::exception& e) {
    out.checks.expect(false, std::string("serve sweep: ") + e.what());
  }
  out.checks.expect(sweep.saturated, "serve sweep: the knee lies outside the rate grid");
  out.sim["max_qps_mcycle"] = sweep.max_qps_mcycle;
  out.sim["max_qps_gap"] = static_cast<double>(sweep.max_qps_gap);
  out.extra["sls.sweep.points"] = static_cast<double>(sweep.points.size());

  double sim_cycles = 0;
  u64 requests = 0;
  for (const auto& [gap, rep] : by_gap) {
    sim_cycles += static_cast<double>(rep.span);
    requests += rep.arrivals;
  }
  out.sim["sim_cycles"] = sim_cycles;
  out.extra["requests"] = static_cast<double>(requests);

  const struct {
    const char* name;
    Cycles gap;
  } fixed[] = {{"light", kLight}, {"mid", kMid}, {"heavy", kHeavy}};
  for (const auto& f : fixed) {
    const auto& rep = by_gap.at(f.gap);
    out.checks.tally(rep.arrivals, rep.rejected, std::string(f.name) + ": requests rejected");
    out.sim[std::string("p50_cycles.") + f.name] = static_cast<double>(rep.latency_p(0.50));
    out.sim[std::string("p99_cycles.") + f.name] = static_cast<double>(rep.latency_p(0.99));
  }
  const auto& heavy = by_gap.at(kHeavy);
  using Report = sls::TrafficDriver::Report;
  out.extra["sls.traffic.queue_wait_p99_cycles"] =
      static_cast<double>(Report::percentile(heavy.queue_wait, 0.99));
  out.extra["sls.traffic.service_p99_cycles"] =
      static_cast<double>(Report::percentile(heavy.service, 0.99));
  out.extra["sls.traffic.peak_queue"] = static_cast<double>(heavy.peak_queue);
  close_pass(out, started);
}

// --- dse_grid -----------------------------------------------------------------

void pass_dse_grid(const Options& opt, bool traced, Pass& out) {
  workloads::WorkloadParams p;
  p.n = opt.reduced ? 2048 : 16384;
  p.seed = derive_seed(opt.seed, 400);
  const auto wl =
      out.spans.time("workloads.setup_s", [&] { return workloads::make_pointer_chase(p); });
  const auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  const u64 ws = ws_pages(wl);
  const std::vector<unsigned> tlbs = {4, 8, 16, 32, 64, 128};
  const std::vector<sls::PagerCandidate> pagers = {
      {0, paging::PolicyKind::kClock},            // pressure-free
      {ws * 60 / 100, paging::PolicyKind::kClock},
      {ws * 30 / 100, paging::PolicyKind::kClock},
  };

  std::vector<double> eval_s;  // CPU seconds per candidate, guarded by out.mu
  std::atomic<bool> first{true};
  double first_eval_cpu = 0;
  const auto evaluate = [&](const sls::SystemImage& image) -> Cycles {
    // The explorer synthesizes every candidate on the calling thread before
    // it scores any, so the process's CPU time up to here is synthesis.
    if (first.exchange(false)) first_eval_cpu = process_cpu_seconds();
    const double t0 = thread_cpu_seconds();
    sim::Simulator sim;
    SpanTotals sink;
    if (traced) sim.trace().set_sink(&sink);
    const auto system = out.spans.time("sls.elaborate_s", [&] { return image.elaborate(sim); });
    out.spans.time("workloads.setup_s", [&] { wl.setup(*system); });
    cold_evict(out, *system);
    const Cycles cycles = out.spans.time("sls.simulate_s", [&] {
      system->start_all();
      const Cycles c = system->run_to_completion();
      sim.run();
      return c;
    });
    const bool ok = out.spans.time("workloads.verify_s", [&] { return wl.verify(*system); });
    const std::string label =
        "tlb" + std::to_string(image.app().thread("worker").tlb_override->entries) + "_frames" +
        std::to_string(image.platform().pager.frame_budget);
    std::lock_guard<std::mutex> lock(out.mu);
    out.checks.expect(ok, label + ": golden verify failed");
    out.checks.expect(sim.idle(), label + ": event queue not drained");
    out.sim["cycles." + label] = static_cast<double>(cycles);
    fold(out, label, sim, sink, traced);
    eval_s.push_back(thread_cpu_seconds() - t0);
    return cycles;
  };

  sls::DesignSpaceExplorer dse(sls::zynq7020());
  dse.set_threads(opt.threads);
  const PassClock started;
  const sls::DseResult result = dse.explore_pager_tlb(app, "worker", tlbs, pagers, evaluate);
  const double wall = seconds_since(started.wall0);

  out.spans.add("sls.synthesize_s", first ? 0.0 : first_eval_cpu - started.cpu0);
  bool all_measured = !result.candidates.empty();
  for (const auto& c : result.candidates) all_measured = all_measured && c.measured;
  out.checks.expect(all_measured, "dse: a candidate was not scored");
  out.checks.expect(result.best >= 0, "dse: no candidate chosen");
  out.sim["sim_cycles"] =
      result.best >= 0 ? static_cast<double>(result.candidates[result.best].cycles) : 0.0;
  out.sim["best"] = result.best;
  double all_cycles = 0;
  for (const auto& c : result.candidates) all_cycles += static_cast<double>(c.cycles);
  out.extra["cycles_simulated"] = all_cycles;  // hwt.ipc's base: every candidate ran

  double eval_sum = 0;
  for (double s : eval_s) eval_sum += s;
  const double eval_max = eval_s.empty() ? 0.0 : *std::max_element(eval_s.begin(), eval_s.end());
  const double eval_med = median(eval_s);
  out.extra["sls.dse.candidates"] = static_cast<double>(result.candidates.size());
  out.extra["sls.dse.eval_s_sum"] = eval_sum;
  out.extra["sls.dse.parallel_eff"] = wall > 0 ? eval_sum / (opt.threads * wall) : 0.0;
  out.extra["sls.dse.straggler_ratio"] = eval_med > 0 ? eval_max / eval_med : 0.0;

  // Run is the whole explore, as a DSE user waits for it.
  close_pass(out, started);
}

}  // namespace perfbench
