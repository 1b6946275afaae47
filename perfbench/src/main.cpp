// vmsls_perfbench -- runs one benchmark workload for a fixed host time and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
//
//   vmsls_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--passes N] [--reduced]
//
// A run is: one untimed warm-up pass on a single host thread, then
// closed-loop passes on 4 host threads (the next pass starts when the
// previous returns) until --seconds of host time are spent. Host times are
// CPU seconds, the median of the measured passes. Every pass must reproduce
// the warm-up pass's simulated outcome exactly (cycles, events and every stat
// snapshot); --trace 1 alternates untraced and traced passes,
// reports per-layer metrics instead of end-to-end ones, and checks that the
// traced passes are bit-identical to the untraced ones.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

using namespace perfbench;

namespace {

using PassFn = void (*)(const Options&, bool, Pass&);

struct Workload {
  const char* name;
  PassFn fn;
};

constexpr Workload kWorkloads[] = {
    {"hwt_resident", pass_hwt_resident},
    {"oversub_thrash", pass_oversub_thrash},
    {"serve_open", pass_serve_open},
    {"dse_grid", pass_dse_grid},
};

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::cerr << "vmsls_perfbench: " << msg << "\n"
            << "usage: vmsls_perfbench --workload hwt_resident|oversub_thrash|serve_open|dse_grid\n"
            << "                       [--seed N] [--seconds S] [--trace 0|1] [--passes N]\n"
            << "                       [--reduced]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string workload;
  double seconds = 10;
  bool trace = false;
  long passes = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") seconds = std::stod(value());
      else if (arg == "--trace") trace = value() == "1";
      else if (arg == "--passes") passes = std::stol(value());
      else if (arg == "--reduced") opt.reduced = true;
      else return usage(("unknown argument " + arg).c_str());
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  PassFn fn = nullptr;
  for (const auto& w : kWorkloads)
    if (workload == w.name) fn = w.fn;
  if (fn == nullptr) return usage("unknown or missing --workload");
  // Measured passes at least: 3 untraced, and with --trace 1 also 3 traced.
  const std::size_t min_passes = passes >= 1 ? static_cast<std::size_t>(passes) : 3;

  std::cout << "# workload " << workload << ", seed " << opt.seed << ", trace " << trace << "\n"
            << "# model: unvalidated (no reference-hardware results; no error figure)\n"
            << "# modelled caches (TLB, walker cache, DRAM rows) start empty in every pass\n";
  if (workload == "serve_open")
    std::cout << "# arrivals are injected at their due cycle: generator lateness is 0 by "
                 "construction\n";

  Checks checks;
  std::vector<std::unique_ptr<Pass>> plain, traced;
  const auto run = [&](const Options& o, bool with_trace) -> Pass& {
    auto pass = std::make_unique<Pass>();
    try {
      fn(o, with_trace, *pass);
    } catch (const std::exception& e) {
      pass->checks.expect(false, std::string("pass threw: ") + e.what());
    }
    checks.merge(pass->checks);
    auto& list = with_trace ? traced : plain;
    list.push_back(std::move(pass));
    return *list.back();
  };

  // Warm-up pass: untimed, on one host thread; its simulated outcome is the
  // reference, so the measured passes also show that the outcome does not
  // depend on the thread count. Peak RSS is read right after it: one pass's
  // simulations one at a time, a figure no scheduling can move (memory a
  // pass fails to free would otherwise grow it with every pass the clock
  // allows).
  Options serial = opt;
  serial.threads = 1;
  const std::map<std::string, double> reference = run(serial, false).sim;
  plain.clear();
  const double rss_mb = peak_rss_mb();

  const auto t0 = Clock::now();
  for (;;) {
    const bool enough = plain.size() >= min_passes && (!trace || traced.size() >= min_passes);
    if (enough && seconds_since(t0) >= seconds) break;
    const bool with_trace = trace && traced.size() < plain.size();
    const Pass& p = run(opt, with_trace);
    checks.expect(p.sim == reference, std::string(with_trace ? "traced" : "repeated") +
                                          " pass differs from the reference simulated outcome");
  }

  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  };
  // Host times are CPU seconds, the median over the measured passes. Time a
  // thread spends waiting for a core is not in them: on a shared host other
  // tenants come and go in phases longer than a run, and they move wall time
  // far more than CPU time.
  const auto med = [](const std::vector<std::unique_ptr<Pass>>& list, auto get) {
    std::vector<double> v;
    for (const auto& p : list) v.push_back(get(*p));
    return median(v);
  };
  const auto sim_or = [&](const std::string& name, double fallback) {
    const auto it = reference.find(name);
    return it == reference.end() ? fallback : it->second;
  };
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  if (!trace) {
    add("setup_s", med(plain, [](const Pass& p) { return p.setup_s; }), "s");
    add("run_cpu_s", med(plain, [](const Pass& p) { return p.run_cpu_s; }), "s");
    add("peak_rss_mb", rss_mb, "MiB");
    add("ok_frac", 1.0 - per(static_cast<double>(checks.failed), static_cast<double>(checks.attempted)),
        "ratio");
    add("sim_cycles", sim_or("sim_cycles", 0), "cycles");
    // Serving figures exist on serve_open only; elsewhere they read a
    // constant 1 so every run carries every end-to-end metric.
    for (const char* q : {"p50", "p99"})
      for (const char* rate : {"light", "mid", "heavy"}) {
        const std::string name = std::string(q) + "_cycles." + rate;
        add(name, sim_or(name, 1), "cycles");
      }
    add("max_qps_mcycle", sim_or("max_qps_mcycle", 1), "req/Mcycle");
  } else {
    const Pass& first = *plain.front();  // counts are identical in every pass
    const auto count = [&](const char* name) {
      return static_cast<double>(first.counts.count(name));
    };
    const auto mean = [&](const char* hist) { return first.counts.hist(hist).mean(); };
    const auto p99 = [&](const char* hist) {
      return static_cast<double>(first.counts.hist(hist).percentile(0.99));
    };
    const auto share = [&](const char* a, const char* b) { return per(count(a), count(a) + count(b)); };
    const auto extra = [&](const Pass& p, const char* name) {
      const auto it = p.extra.find(name);
      return it == p.extra.end() ? 0.0 : it->second;
    };
    const auto span = [&](const char* name) {
      return med(plain, [name](const Pass& p) { return p.spans.get(name); });
    };
    const double simulate_s = span("sls.simulate_s");

    for (const char* s : {"sls.synthesize_s", "sls.elaborate_s", "workloads.setup_s",
                          "rt.cold_evict_s", "sls.simulate_s", "workloads.verify_s"})
      add(s, span(s), "s");
    add("pass.wall_s", med(plain, [](const Pass& p) { return p.wall_s; }), "s");
    add("sim.events", static_cast<double>(first.events), "count");
    add("sim.host_ns_per_event", per(simulate_s * 1e9, static_cast<double>(first.events)), "ns");

    add("hwt.instructions", count("hwt.instructions"), "count");
    add("hwt.mem_ops", count("hwt.mem_ops"), "count");
    const double ipc_cycles = extra(first, "cycles_simulated") > 0
                                  ? extra(first, "cycles_simulated")
                                  : sim_or("sim_cycles", 0);
    add("hwt.ipc", per(count("hwt.instructions"), ipc_cycles), "instr/cycle");
    add("hwt.mem_latency_mean_cycles", mean("hwt.mem_latency"), "cycles");

    add("mem.tlb.lookups", count("hwt.mmu.tlb.hits") + count("hwt.mmu.tlb.misses"), "count");
    add("mem.tlb.hit_rate", share("hwt.mmu.tlb.hits", "hwt.mmu.tlb.misses"), "ratio");
    add("mem.walker.walks", count("walker.walks"), "count");
    add("mem.walker.pte_reads", count("walker.mem_reads"), "count");
    add("mem.walker.cache_hit_rate", share("walker.cache_hits", "walker.cache_misses"), "ratio");
    add("mem.walker.walk_latency_mean_cycles", mean("walker.walk_latency"), "cycles");
    add("mem.walker.queue_wait_mean_cycles", mean("walker.queue_wait"), "cycles");
    add("mem.bus.requests", count("bus.requests"), "count");
    add("mem.bus.queue_wait_mean_cycles", mean("bus.queue_wait"), "cycles");
    add("mem.dram.row_hit_rate", share("dram.row_hits", "dram.row_misses"), "ratio");

    add("paging.swap_ins", count("pager.swap_ins"), "count");
    add("paging.evictions", count("pager.evictions"), "count");
    add("paging.writebacks", count("pager.writebacks"), "count");
    add("paging.host_us_per_swap_in", per(simulate_s * 1e6, count("pager.swap_ins")), "us");
    add("paging.fault_stall_mean_cycles", mean("pager.fault_stall"), "cycles");
    add("paging.fault_stall_p99_cycles", p99("pager.fault_stall"), "cycles");
    add("paging.pool.evictions", count("pool.evictions"), "count");
    add("paging.pool.cross_evictions", count("pool.cross_evictions"), "count");
    add("paging.swap.reads", count("swap.reads"), "count");
    add("paging.swap.writes", count("swap.writes"), "count");
    add("paging.swap.queue_wait_mean_cycles", mean("swap.queue_wait"), "cycles");
    add("paging.swap.queue_wait_p99_cycles", p99("swap.queue_wait"), "cycles");
    add("paging.swap.queue_depth_mean", mean("swap.sched.queue_depth"), "count");
    add("paging.swap.wait_writeback_p99_cycles", p99("swap.wait_write"), "cycles");

    add("rt.os.services", count("os.services"), "count");
    add("rt.os.queue_wait_mean_cycles", mean("os.queue_wait"), "cycles");
    add("rt.shootdowns", count("proc.shootdowns"), "count");

    for (const char* name : {"sls.traffic.queue_wait_p99_cycles", "sls.traffic.service_p99_cycles"})
      add(name, extra(first, name), "cycles");
    add("sls.traffic.peak_queue", extra(first, "sls.traffic.peak_queue"), "count");
    add("sls.traffic.host_us_per_request", per(simulate_s * 1e6, extra(first, "requests")), "us");
    add("sls.sweep.points", extra(first, "sls.sweep.points"), "count");

    add("sls.dse.candidates", extra(first, "sls.dse.candidates"), "count");
    add("sls.dse.eval_s_sum", med(plain, [&](const Pass& p) { return extra(p, "sls.dse.eval_s_sum"); }),
        "s");
    for (const char* name : {"sls.dse.parallel_eff", "sls.dse.straggler_ratio"})
      add(name, med(plain, [&](const Pass& p) { return extra(p, name); }), "ratio");

    // Traced passes: simulated-cycle span totals and the tracing overhead.
    for (const auto& p : traced) {
      checks.expect(p->trace.fault_mismatches() == 0,
                    "traced pass: a fault span != evict + queue + io");
      checks.expect(count("pager.swap_ins") == 0 || p->trace.faults_checked() > 0,
                    "traced pass: the pagers swapped in but no fault span closed");
    }
    const SpanTotals& t = traced.front()->trace;
    const auto cycles = [&](const char* track, const char* span_name) {
      return static_cast<double>(t.cycles(track, span_name));
    };
    add("trace.pager.fault_cycles", cycles("pager", "fault"), "cycles");
    add("trace.pager.evict_cycles", cycles("pager", "evict"), "cycles");
    add("trace.swap.queue_cycles", cycles("swap", "queue"), "cycles");
    add("trace.swap.io_cycles", cycles("swap", "io"), "cycles");
    add("trace.os.service_cycles", cycles("os", "service"), "cycles");
    const double traced_s =
        med(traced, [](const Pass& p) { return p.spans.get("sls.simulate_s"); });
    add("sim.trace.overhead_ratio", per(traced_s, simulate_s), "ratio");
  }

  std::cout << "# passes: " << plain.size() << " untraced, " << traced.size()
            << " traced (after 1 warm-up); checks " << checks.attempted - checks.failed << "/"
            << checks.attempted << " passed\n";
  for (const auto& [name, value] : reference)
    if (name.find('/') == std::string::npos)
      std::cout << "# sim " << name << " = " << json_number(value) << "\n";
  for (const auto& failure : checks.failures) std::cout << "# FAILED: " << failure << "\n";
  for (const auto& m : metrics)
    std::cout << "# " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";

  const bool correct = checks.failed == 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << checks.attempted
     << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}
