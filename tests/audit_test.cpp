// The ledger audit: a small pressured run audits clean, and every identity
// the audit covers can fail. The run is a two-process ProcessGroup paging
// against one shared swap device, both processes mapping the same input
// file MAP_SHARED (so frames are shared and refcounts exceed one). Each
// failure case perturbs one field of the clean snapshot and must be
// reported as exactly that identity, naming its pager, device, cache,
// frame, or pool.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "mem/backing_file.hpp"
#include "mem/paging/frame_pool.hpp"
#include "sls/audit.hpp"
#include "sls/process_group.hpp"
#include "sls/synthesis.hpp"
#include "workloads/workloads.hpp"

namespace vmsls::sls {
namespace {

constexpr u64 kPage = 4 * KiB;

/// Runs the pressured group once and snapshots it after the queue drains.
Ledgers pressured_run() {
  sim::Simulator sim;
  PlatformSpec plat = zynq7045();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.swap.shared = true;
  plat.pager.bcache.capacity_blocks = 1;  // tiny: refaults miss to the file device
  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  ProcessGroup group(sim, plat, pool_cfg);

  workloads::WorkloadParams params;
  params.n = 2048;
  params.seed = 3;  // identical data in both processes: the file is shared
  std::vector<workloads::Workload> wls;
  mem::BackingFile* file = nullptr;
  for (unsigned i = 0; i < 2; ++i) {
    wls.push_back(workloads::make_hash_join(params));
    u64 bytes = 0;
    for (const auto& buf : wls[i].buffers) bytes += buf.bytes;
    PlatformSpec proc_plat = plat;
    proc_plat.pager.frame_budget = std::max<u64>(2, ceil_div(bytes, kPage) / 2);
    SynthesisFlow flow(proc_plat);
    auto app = workloads::single_thread_app(wls[i], ThreadKind::kHardware);
    System& sys = group.add_process(flow.synthesize(app), "p" + std::to_string(i));
    // The probe keys are read-only input: map them from one shared file.
    const auto& keys = wls[i].buffers.at(1);
    if (file == nullptr) file = &group.files().create("keys.dat", keys.bytes);
    sys.address_space().bind_file(sys.buffer(keys.name), keys.bytes, *file, 0, /*shared=*/true);
    wls[i].setup(sys);
    for (const auto& buf : wls[i].buffers) sys.process().evict(sys.buffer(buf.name), buf.bytes);
  }
  group.start_all();
  group.run_to_completion();
  group.drain();
  for (unsigned i = 0; i < 2; ++i) EXPECT_TRUE(wls[i].verify(group.process(i)));
  return snapshot_ledgers(group);
}

const Ledgers& clean() {
  static const Ledgers snap = pressured_run();
  return snap;
}

TEST(Audit, PressuredSharedRunAuditsClean) {
  const Ledgers& s = clean();
  EXPECT_EQ(audit(s), std::vector<std::string>{});
  // The run must exercise every ledger, or a clean audit proves nothing.
  ASSERT_EQ(s.pagers.size(), 2u);
  ASSERT_EQ(s.swaps.size(), 1u);  // one shared device
  ASSERT_EQ(s.caches.size(), 1u);
  ASSERT_TRUE(s.pool.has_value());
  for (const PagerLedger& p : s.pagers) {
    EXPECT_GT(p.unmaps, 0u) << p.name;
    EXPECT_GT(p.swap_reads, 0u) << p.name;
    EXPECT_GT(p.file_reads, 0u) << p.name;
  }
  EXPECT_GT(s.pagers[0].shared_releases + s.pagers[1].shared_releases, 0u);
  EXPECT_GT(s.swaps[0].writes, 0u);
  EXPECT_GT(s.caches[0].misses, 0u);
  bool shared_frame = false;
  for (const FrameLedger& f : s.frames) shared_frame |= f.mappings > 1;
  EXPECT_TRUE(shared_frame);
}

struct Breakage {
  std::function<void(Ledgers&)> bump;
  std::string expected;  // the violation's prefix: identity and subject
};

TEST(Audit, EachIdentityFailsAlone) {
  const Ledgers& s = clean();
  ASSERT_FALSE(s.frames.empty());
  const std::string frame = "frame " + std::to_string(s.frames[0].frame);
  const std::vector<Breakage> cases = {
      // An unmap with a matching map keeps the residency ledger balanced.
      {[](Ledgers& x) {
         ++x.pagers[0].unmaps;
         ++x.pagers[0].maps;
       },
       "unmaps == swap_releases + file_drops + file_writebacks + shared_releases violated for "
       "p0.pager"},
      {[](Ledgers& x) { ++x.pagers[1].resident; },
       "resident == maps - unmaps violated for p1.pager"},
      {[](Ledgers& x) { ++x.pagers[0].stray_pages; },
       "every page record in exactly one lifecycle (stray records) violated for p0.pager"},
      {[](Ledgers& x) { ++x.pagers[1].pinned_pages; },
       "drained: no pinned pages violated for p1.pager"},
      {[](Ledgers& x) { ++x.pagers[0].pending_pages; },
       "drained: no pending frame reservations violated for p0.pager"},
      {[](Ledgers& x) { ++x.pagers[1].inflight_pages; },
       "drained: no in-flight faults violated for p1.pager"},
      {[](Ledgers& x) { ++x.pagers[1].swap_ins; },
       "swap reads == swap_ins + prefetches violated for p1.pager"},
      {[](Ledgers& x) { ++x.pagers[0].pageouts; },
       "swap writes == writebacks + pageouts violated for p0.pager"},
      {[](Ledgers& x) { ++x.pagers[1].file_reads; },
       "file_reads == client hits + client misses violated for p1.pager"},
      {[](Ledgers& x) { ++x.swaps[0].reads; },
       "device reads == sum of owner reads violated for swap"},
      {[](Ledgers& x) { ++x.swaps[0].writes; },
       "device writes == sum of owner writes violated for swap"},
      {[](Ledgers& x) { ++x.caches[0].hits; },
       "client windows == cache totals violated for bcache"},
      {[](Ledgers& x) { ++x.caches[0].device_reads; },
       "cache misses == device_reads + merged_reads violated for bcache"},
      {[](Ledgers& x) { ++x.frames[0].refcount; },
       "refcount == page-table mappings violated for " + frame},
      {[](Ledgers& x) { ++x.pool->mapped_pages; },
       "pool mapped_pages == page-table mappings violated for pool"},
      {[](Ledgers& x) { ++x.pool->resident_pages; },
       "pool resident_pages == mapped frames violated for pool"},
  };
  for (const Breakage& c : cases) {
    SCOPED_TRACE(c.expected);
    Ledgers broken = s;
    c.bump(broken);
    const std::vector<std::string> violations = audit(broken);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rfind(c.expected, 0), 0u) << violations[0];
  }
}

TEST(Audit, BaselineWindowsCountersButNotState) {
  const Ledgers& s = clean();
  EXPECT_EQ(audit(s, &s), std::vector<std::string>{});
  // A counter drift inside the baseline unbalances the window...
  Ledgers base = s;
  ++base.pagers[1].shared_releases;
  const std::vector<std::string> violations = audit(s, &base);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rfind("unmaps == ", 0), 0u) << violations[0];
  EXPECT_NE(violations[0].find("p1.pager"), std::string::npos) << violations[0];
  // ...while state identities read `now` alone.
  base = s;
  ++base.frames[0].refcount;
  ++base.pool->resident_pages;
  ++base.pagers[0].stray_pages;
  ++base.pagers[1].inflight_pages;
  EXPECT_EQ(audit(s, &base), std::vector<std::string>{});
  // A baseline over different pagers is a caller bug, not a violation.
  base = s;
  base.pagers.pop_back();
  EXPECT_THROW(audit(s, &base), std::invalid_argument);
}

}  // namespace
}  // namespace vmsls::sls
