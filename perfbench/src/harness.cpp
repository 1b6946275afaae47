#include <algorithm>
#include <cctype>

#include "perfbench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

u64 derive_seed(u64 seed, u64 stream) {
  u64 z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- Spans ------------------------------------------------------------------

void Spans::add(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_[name] += seconds;
}

double Spans::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = seconds_.find(name);
  return it == seconds_.end() ? 0.0 : it->second;
}

// --- LayerCounts --------------------------------------------------------------

namespace {

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

/// "p3.pager.evictions" -> "pager.evictions"; "hwt.worker.mem_ops" ->
/// "hwt.mem_ops"; "proc.p1.hash_join.shootdowns" -> "proc.shootdowns".
std::string normalize(std::string name) {
  if (name.size() > 2 && name[0] == 'p' && std::isdigit(static_cast<unsigned char>(name[1]))) {
    std::size_t i = 1;
    while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) ++i;
    if (i < name.size() && name[i] == '.') name.erase(0, i + 1);
  }
  if (starts_with(name, "hwt.")) {
    const std::size_t dot = name.find('.', 4);
    if (dot != std::string::npos) name.erase(4, dot - 3);
  } else if (starts_with(name, "proc.")) {
    name = "proc." + name.substr(name.rfind('.') + 1);
  }
  return name;
}

const char* const kCounters[] = {
    "hwt.instructions", "hwt.mem_ops",        "hwt.mmu.tlb.hits",    "hwt.mmu.tlb.misses",
    "walker.walks",     "walker.mem_reads",   "walker.cache_hits",   "walker.cache_misses",
    "bus.requests",     "dram.row_hits",      "dram.row_misses",     "pager.swap_ins",
    "pager.evictions",  "pager.writebacks",   "pool.evictions",      "pool.cross_evictions",
    "os.services",      "proc.shootdowns",    "faults.faults",
};
const char* const kHistograms[] = {
    "hwt.mem_latency", "walker.walk_latency", "walker.queue_wait",
    "bus.queue_wait",  "pager.fault_stall",   "os.queue_wait",
};

}  // namespace

void LayerCounts::absorb(const vmsls::StatRegistry& reg) {
  for (const auto& [name, c] : reg.counters()) {
    const std::string n = normalize(name);
    for (const char* want : kCounters)
      if (n == want) counts_[n] += c.value();
  }
  for (const auto& [name, h] : reg.histograms()) {
    const std::string n = normalize(name);
    for (const char* want : kHistograms)
      if (n == want) hists_[n].merge(h);
  }
  // Swap schedulers: one per pager, or one shared by the group. Find them by
  // their queue-depth histogram so the per-owner aliases of a shared
  // scheduler ("p0.pager.swap.reads") are not counted twice.
  const std::string depth = ".sched.queue_depth";
  for (const auto& [name, h] : reg.histograms()) {
    if (name.size() <= depth.size() ||
        name.compare(name.size() - depth.size(), depth.size(), depth) != 0)
      continue;
    const std::string sched = name.substr(0, name.size() - depth.size());
    hists_["swap.sched.queue_depth"].merge(h);
    counts_["swap.reads"] += reg.counter_value(sched + ".reads");
    counts_["swap.writes"] += reg.counter_value(sched + ".writes");
    const auto& hs = reg.histograms();
    for (const char* part : {".queue_wait", ".sched.wait_demand_write", ".sched.wait_writeback"}) {
      const auto it = hs.find(sched + part);
      if (it == hs.end()) continue;
      // Dirty-page write-outs of both classes form one "writeback wait".
      hists_[std::string(part) == ".queue_wait" ? "swap.queue_wait" : "swap.wait_write"].merge(
          it->second);
    }
  }
}

u64 LayerCounts::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

const vmsls::Histogram& LayerCounts::hist(const std::string& name) const {
  static const vmsls::Histogram kEmpty;
  const auto it = hists_.find(name);
  return it == hists_.end() ? kEmpty : it->second;
}

double LayerCounts::share(const std::string& a, const std::string& b) const {
  const double x = static_cast<double>(count(a));
  const double total = x + static_cast<double>(count(b));
  return total > 0 ? x / total : 0.0;
}

// --- SpanTotals ---------------------------------------------------------------

const std::string& SpanTotals::track_class(const vmsls::sim::TraceContext& ctx,
                                           vmsls::sim::TraceTrack t) {
  if (classes_.size() <= t) classes_.resize(t + 1);
  std::string& cls = classes_[t];
  if (cls.empty()) {
    const std::string& name = ctx.track_name(t);
    const std::string last = name.substr(name.rfind('.') + 1);
    // "faults" is the rt fault handler: its "service" span is the OS trip.
    cls = last == "pager" ? "pager" : last == "swap" ? "swap" : last == "faults" ? "os" : last;
  }
  return cls;
}

void SpanTotals::on_event(const vmsls::sim::TraceContext& ctx, const vmsls::sim::TraceEvent& ev) {
  using Kind = vmsls::sim::TraceEvent::Kind;
  if (ev.kind == Kind::kBegin) {
    open_[OpenKey{ev.track, ev.name, ev.id}] = ev.ts;
    return;
  }
  if (ev.kind != Kind::kEnd) return;
  const auto it = open_.find(OpenKey{ev.track, ev.name, ev.id});
  if (it == open_.end()) return;
  const Cycles dur = ev.ts - it->second;
  open_.erase(it);
  const std::string name = ev.name;
  totals_[track_class(ctx, ev.track) + "." + name] += dur;
  if (ev.id == 0) return;
  if (name == "fault") {
    Parts& p = by_id_[ev.id];
    p.fault = dur;
    p.have_fault = true;
  } else if (name == "evict") {
    by_id_[ev.id].evict += dur;
  } else if (name == "queue") {
    by_id_[ev.id].queue += dur;
  } else if (name == "io") {
    by_id_[ev.id].io += dur;
  }
}

void SpanTotals::finish() {
  for (const auto& [id, p] : by_id_) {
    if (!p.have_fault) continue;  // writeback / prefetch / request ids
    ++faults_checked_;
    if (p.fault != p.evict + p.queue + p.io) ++fault_mismatches_;
  }
  by_id_.clear();
  open_.clear();
}

void SpanTotals::merge(const SpanTotals& other) {
  for (const auto& [k, v] : other.totals_) totals_[k] += v;
  faults_checked_ += other.faults_checked_;
  fault_mismatches_ += other.fault_mismatches_;
}

u64 SpanTotals::cycles(const std::string& track_class, const std::string& span) const {
  const auto it = totals_.find(track_class + "." + span);
  return it == totals_.end() ? 0 : it->second;
}

// --- Checks -------------------------------------------------------------------

void Checks::expect(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }

void Checks::tally(u64 n, u64 bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 32) failures.push_back(what);
}

void Checks::merge(const Checks& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& f : other.failures)
    if (failures.size() < 32) failures.push_back(f);
}

void record_snapshot(Pass& pass, const std::string& label, const vmsls::StatRegistry& reg) {
  for (const auto& [name, value] : reg.snapshot()) pass.sim[label + "/" + name] = value;
}

}  // namespace perfbench
