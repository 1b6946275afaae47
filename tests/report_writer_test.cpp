#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "hwt/builder.hpp"
#include "sls/report_writer.hpp"
#include "sls/synthesis.hpp"

namespace vmsls::sls {
namespace {

SynthesisReport make_report() {
  hwt::KernelBuilder kb("k");
  kb.mbox_get(1, 0).mbox_put(1, 1).halt();
  AppSpec app;
  app.name = "rep";
  app.add_mailbox("args", 8);
  app.add_mailbox("done", 4);
  app.add_hw_thread("worker", kb.build(), {"args", "done"});
  SynthesisFlow flow(zynq7020());
  return flow.synthesize(app).report();
}

TEST(ReportWriter, MarkdownContainsAllSections) {
  std::ostringstream os;
  write_report_markdown(os, make_report(), "demo report");
  const std::string s = os.str();
  EXPECT_NE(s.find("# demo report"), std::string::npos);
  EXPECT_NE(s.find("## Resources"), std::string::npos);
  EXPECT_NE(s.find("## Address map"), std::string::npos);
  EXPECT_NE(s.find("## Pass timings"), std::string::npos);
  EXPECT_NE(s.find("hwt:worker"), std::string::npos);
  EXPECT_NE(s.find("**total**"), std::string::npos);
}

TEST(ReportWriter, MarkdownListsDemotions) {
  SynthesisReport report = make_report();
  report.demoted_threads.push_back("slowpoke");
  std::ostringstream os;
  write_report_markdown(os, report, "t");
  EXPECT_NE(os.str().find("demoted to software: slowpoke"), std::string::npos);
}

TEST(ReportWriter, StatsCsvRoundTrip) {
  StatRegistry stats;
  stats.counter("a.b").add(5);
  stats.histogram("h").record(16);
  std::ostringstream os;
  write_stats_csv(os, stats);
  const std::string s = os.str();
  EXPECT_NE(s.find("name,value"), std::string::npos);
  EXPECT_NE(s.find("a.b,5"), std::string::npos);
  EXPECT_NE(s.find("h.count,1"), std::string::npos);
  EXPECT_NE(s.find("h.mean,16"), std::string::npos);
}

TEST(ReportWriter, FileWritersCreateFiles) {
  const std::string dir = ::testing::TempDir();
  save_report_markdown(dir + "/report.md", make_report(), "file test");
  StatRegistry stats;
  stats.counter("x").add(1);
  save_stats_csv(dir + "/stats.csv", stats);
  std::ifstream md(dir + "/report.md"), csv(dir + "/stats.csv");
  EXPECT_TRUE(md.good());
  EXPECT_TRUE(csv.good());
}

TEST(ReportWriter, BadPathThrows) {
  StatRegistry stats;
  EXPECT_THROW(save_stats_csv("/nonexistent-dir-xyz/s.csv", stats), std::runtime_error);
}

// The six component summaries, pinned: each writer's exact active line(s)
// on a hand-filled registry, and its inactive note on an empty one.
std::string pager_summary(const StatRegistry& stats, const std::string& pager,
                          const std::string& faults) {
  std::ostringstream os;
  write_pager_summary(os, stats, pager, faults);
  return os.str();
}

TEST(SummaryWriters, PagerActive) {
  StatRegistry stats;
  stats.counter("p0.pager.evictions").add(5);
  stats.counter("p0.pager.swap_ins").add(3);
  stats.counter("p0.pager.swap.writes").add(2);
  stats.counter("p0.pager.writebacks").add(2);
  stats.counter("p0.pager.file_reads").add(1);
  stats.counter("p0.pager.zero_fills").add(4);
  stats.histogram("p0.pager.fault_stall").record(100);
  stats.histogram("p0.pager.fault_stall").record(300);
  stats.histogram("p0.pager.swap.queue_wait").record(20);
  stats.counter("p0.faults.faults").add(7);
  EXPECT_EQ(pager_summary(stats, "p0.pager", "p0.faults"),
            "pager: evictions=5 swap_ins=3 swap_outs=2 writebacks=2 file_reads=1 file_drops=0 "
            "file_writebacks=0 zero_fills=4 reclaims=0 mean_fault_stall=200 "
            "p50_fault_stall=511 p95_fault_stall=511 p99_fault_stall=511 "
            "fault_stall_overflow=0 swap_queue_wait=20 faults=7\n");
  // Readahead adds the accuracy line.
  stats.counter("p0.pager.prefetches").add(4);
  stats.counter("p0.pager.prefetch_useful").add(2);
  stats.counter("p0.pager.prefetch_late").add(1);
  stats.counter("p0.pager.prefetch_wasted").add(1);
  const std::string s = pager_summary(stats, "p0.pager", "p0.faults");
  EXPECT_EQ(s.substr(s.find('\n') + 1), "pager: prefetches=4 useful=2 late=1 wasted=1 accuracy=0.75 coverage=0.5\n");
}

TEST(SummaryWriters, PagerInactive) {
  StatRegistry stats;
  stats.counter("faults.faults").add(1);
  EXPECT_EQ(pager_summary(stats, "pager", "faults"),
            "pager: inactive (no frame budget configured)\n");
}

TEST(SummaryWriters, SwapActiveAndInactive) {
  StatRegistry stats;
  stats.counter("swap.reads").add(6);
  stats.counter("swap.writes").add(4);
  stats.counter("swap.bytes").add(40960);
  stats.histogram("swap.queue_wait").record(10);
  stats.histogram("swap.queue_wait").record(30);
  stats.histogram("swap.sched.queue_depth").record(1);
  stats.histogram("swap.sched.queue_depth").record(3);
  stats.counter("swap.sched.demand_reads").add(5);
  stats.counter("swap.sched.prefetch_reads").add(1);
  stats.counter("swap.sched.writebacks").add(4);
  stats.counter("swap.sched.wb_promotions").add(1);
  stats.histogram("swap.sched.wait_demand_read").record(8);
  stats.histogram("swap.sched.wait_writeback").record(50);
  std::ostringstream os;
  write_swap_summary(os, stats);
  EXPECT_EQ(os.str(), "swap: reads=6 writes=4 bytes=40960 queue_wait_mean=20 queue_wait_max=30 "
            "queue_wait_p95=31 queue_wait_p99=31 queue_wait_overflow=0 queue_depth_mean=2 "
            "queue_depth_max=3\n"
            "swap.sched: demand_reads=5 prefetch_reads=1 writebacks=4 wb_promotions=1\n"
            "swap.sched.wait: demand_read(mean=8,p99=15) writeback(mean=50,p99=63)\n");
  std::ostringstream none;
  write_swap_summary(none, stats, "pager.swap");
  EXPECT_EQ(none.str(), "swap: inactive (no swap front end named 'pager.swap')\n");
}

TEST(SummaryWriters, ServingActiveAndInactive) {
  StatRegistry stats;
  stats.counter("traffic.arrivals").add(10);
  stats.counter("traffic.admitted").add(9);
  stats.counter("traffic.rejected").add(1);
  stats.counter("traffic.completed").add(9);
  stats.histogram("traffic.latency").record(100);
  stats.histogram("traffic.latency").record(200);
  stats.histogram("traffic.queue_wait").record(5);
  stats.histogram("traffic.service").record(50);
  std::ostringstream os;
  write_serving_summary(os, stats);
  EXPECT_EQ(os.str(), "serving: arrivals=10 admitted=9 rejected=1 completed=9 latency_p50=255 "
            "latency_p95=255 latency_p99=255 latency_max=200 queue_wait_mean=5 "
            "queue_wait_p99=7 service_mean=50\n");
  std::ostringstream none;
  write_serving_summary(none, stats, "fifo");
  EXPECT_EQ(none.str(), "serving: inactive (no traffic driver named 'fifo')\n");
}

TEST(SummaryWriters, FileCacheActiveAndInactive) {
  StatRegistry stats;
  stats.counter("pager.bcache.hits").add(3);
  stats.counter("pager.bcache.misses").add(1);
  stats.counter("pager.bcache.merged_reads").add(1);
  stats.counter("pager.bcache.reads").add(1);
  stats.counter("pager.bcache.writes").add(2);
  stats.counter("pager.bcache.flushes").add(1);
  stats.counter("pager.bcache.evictions").add(2);
  stats.histogram("pager.bcache.read_wait").record(40);
  std::ostringstream os;
  write_file_cache_summary(os, stats, "pager.bcache");
  EXPECT_EQ(os.str(), "bcache: hits=3 misses=1 hit_rate=0.75 merged_reads=1 device_reads=1 "
            "device_writes=2 flushes=1 evictions=2 read_wait_mean=40 read_wait_max=40\n");
  std::ostringstream none;
  write_file_cache_summary(none, stats);
  EXPECT_EQ(none.str(), "bcache: inactive (no buffer cache named 'bcache')\n");
}

TEST(SummaryWriters, FramePoolActiveAndInactive) {
  StatRegistry stats;
  stats.counter("pool.evictions").add(4);
  stats.counter("pool.cross_evictions").add(2);
  stats.counter("pool.rebalances").add(1);
  std::ostringstream os;
  write_frame_pool_summary(os, stats);
  EXPECT_EQ(os.str(), "pool: evictions=4 cross_evictions=2 rebalances=1\n");
  std::ostringstream none;
  write_frame_pool_summary(none, StatRegistry{});
  EXPECT_EQ(none.str(), "pool: inactive (no shared frame pool)\n");
}

TEST(SummaryWriters, OffloadActiveAndInactive) {
  StatRegistry stats;
  stats.counter("offload.copies").add(2);
  stats.counter("offload.bytes").add(8192);
  stats.counter("offload.pages_pinned").add(2);
  stats.counter("offload.pin_faults").add(1);
  std::ostringstream os;
  write_offload_summary(os, stats);
  EXPECT_EQ(os.str(), "offload: copies=2 bytes=8192 pages_pinned=2 pin_faults=1 pin_stalls=0 "
            "chunked_runs=0\n");
  std::ostringstream none;
  write_offload_summary(none, StatRegistry{});
  EXPECT_EQ(none.str(), "offload: inactive (system synthesized without the DMA baseline)\n");
}

}  // namespace
}  // namespace vmsls::sls
