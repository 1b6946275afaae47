// Shared pieces of the repository benchmark: host-time spans around layer
// calls, per-layer counts folded out of a simulator's stat registry, an
// in-memory trace sink that totals simulated-cycle span durations, and the
// per-pass record every workload returns.
//
// The benchmark only drives libvmsls through its public headers; nothing
// here is compiled into the library.
#pragma once

#include <chrono>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace perfbench {

using vmsls::Cycles;
using vmsls::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed so far by every thread of this process
/// (CLOCK_PROCESS_CPUTIME_ID), or by the calling thread alone
/// (CLOCK_THREAD_CPUTIME_ID). Time a thread spends waiting for a core is not
/// in them, so on a shared host other tenants move them far less than they
/// move wall time.
inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double process_cpu_seconds() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_seconds() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// Derives an independent 64-bit seed for `stream` from the run seed
/// (splitmix64), so every input generator gets its own stream.
u64 derive_seed(u64 seed, u64 stream);

/// Host CPU seconds per layer metric ("sls.synthesize_s", ...), summed over
/// the calls a pass makes. A span is the calling thread's CPU time across one
/// call into a layer, so only calls that do all their work on the calling
/// thread are wrapped. Thread-safe: DSE evaluators add from pool threads.
class Spans {
 public:
  template <class F>
  decltype(auto) time(const std::string& name, F&& f) {
    const double t0 = thread_cpu_seconds();
    struct Stop {
      Spans* self;
      const std::string& name;
      double t0;
      ~Stop() { self->add(name, thread_cpu_seconds() - t0); }
    } stop{this, name, t0};
    return f();
  }
  void add(const std::string& name, double seconds);
  double get(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> seconds_;
};

/// Per-layer work counts folded out of one or more stat registries. Counter
/// and histogram names are normalized by dropping the process instance
/// ("p3.") and the hardware-thread name ("hwt.worker." -> "hwt."), so the
/// counts of every process and kernel of a pass add up.
class LayerCounts {
 public:
  void absorb(const vmsls::StatRegistry& reg);

  u64 count(const std::string& name) const;
  const vmsls::Histogram& hist(const std::string& name) const;
  /// Ratio a / (a + b), 0 when both are 0.
  double share(const std::string& a, const std::string& b) const;

 private:
  std::map<std::string, u64> counts_;
  std::map<std::string, vmsls::Histogram> hists_;
};

/// In-memory TraceSink: totals span durations (simulated cycles) per
/// (track class, span name) and checks, per causal fault id, that a fault
/// span equals the sum of its evict, queue and io sub-spans.
class SpanTotals final : public vmsls::sim::TraceSink {
 public:
  void on_event(const vmsls::sim::TraceContext& ctx, const vmsls::sim::TraceEvent& ev) override;

  /// Closes the books: runs the per-fault identity over every fault whose
  /// span ended. Call once after the traced simulator drained.
  void finish();
  void merge(const SpanTotals& other);

  u64 cycles(const std::string& track_class, const std::string& span) const;
  u64 faults_checked() const noexcept { return faults_checked_; }
  u64 fault_mismatches() const noexcept { return fault_mismatches_; }

 private:
  struct Parts {
    Cycles fault = 0, evict = 0, queue = 0, io = 0;
    bool have_fault = false;
  };
  struct OpenKey {
    vmsls::sim::TraceTrack track;
    const char* name;
    u64 id;
    bool operator==(const OpenKey& o) const {
      return track == o.track && id == o.id && std::string_view(name) == o.name;
    }
  };
  struct OpenHash {
    std::size_t operator()(const OpenKey& k) const {
      return std::hash<u64>()(k.id * 1315423911u + k.track) ^ std::hash<std::string_view>()(k.name);
    }
  };
  const std::string& track_class(const vmsls::sim::TraceContext& ctx, vmsls::sim::TraceTrack t);

  std::vector<std::string> classes_;  // per track index; "" = not yet classified
  std::unordered_map<OpenKey, Cycles, OpenHash> open_;
  std::unordered_map<u64, Parts> by_id_;
  std::map<std::string, u64> totals_;  // "<class>.<span>" -> cycles
  u64 faults_checked_ = 0;
  u64 fault_mismatches_ = 0;
};

/// Correctness ledger of a pass: every check is one attempted operation.
struct Checks {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
  /// `n` operations of which `bad` failed (rejected requests).
  void tally(u64 n, u64 bad, const std::string& what);
  void merge(const Checks& other);
};

/// Everything one pass of a workload produces. A pass runs its simulations
/// on several host threads; `spans` is thread-safe and `mu` guards every
/// other member while they run.
struct Pass {
  Spans spans;         // host seconds per layer metric, summed over threads
  std::mutex mu;
  double setup_s = 0;    // CPU seconds, inputs -> first simulated cycle
  double run_cpu_s = 0;  // CPU seconds of the pass, every thread
  double wall_s = 0;     // wall time of the pass
  /// Deterministic simulated outcome (end-to-end metrics, per-point and
  /// per-kernel cycles, every stat snapshot): repetitions and the traced run
  /// must reproduce it exactly.
  std::map<std::string, double> sim;
  LayerCounts counts;
  SpanTotals trace;
  u64 events = 0;
  Checks checks;
  /// Layer figures that are neither host spans nor registry counts
  /// (traffic tails, sweep and DSE bookkeeping).
  std::map<std::string, double> extra;
};

struct Options {
  u64 seed = 1;
  bool reduced = false;  // self-test sizes
  unsigned threads = 4;  // host threads per pass (the warm-up pass runs on 1)
};

/// Records `reg`'s full snapshot into `pass.sim` under `label`, so
/// repetitions compare every counter and histogram moment.
void record_snapshot(Pass& pass, const std::string& label, const vmsls::StatRegistry& reg);

// --- the four workloads (workloads.cpp) -----------------------------------
// Each runs one complete pass; `traced` attaches a SpanTotals sink to every
// simulator the pass creates.
void pass_hwt_resident(const Options& opt, bool traced, Pass& out);
void pass_oversub_thrash(const Options& opt, bool traced, Pass& out);
void pass_serve_open(const Options& opt, bool traced, Pass& out);
void pass_dse_grid(const Options& opt, bool traced, Pass& out);

}  // namespace perfbench
