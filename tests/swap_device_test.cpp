// SwapDevice unit tests: transfer timing, port serialization and the busy()
// yield window; and the slot bookkeeping edges the pager and pageout daemon
// rely on, which the SwapScheduler keeps in the owners' page-state records —
// note_swapped by-fiat entries, slot recycling across swap-in / re-eviction
// cycles, and the slot_limit hard error.
#include <gtest/gtest.h>

#include "mem/paging/swap_device.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "test_util.hpp"

namespace vmsls::paging {
namespace {

TEST(SwapDevice, TransfersPayLatencyPlusBandwidth) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.read_latency = 50;
  cfg.bytes_per_cycle = 8;
  SwapDevice dev(sim, cfg, 4096, "swap");

  Cycles write_done = 0, read_done = 0;
  dev.write_page([&] { write_done = sim.now(); });
  test::run_until_drained(sim);
  EXPECT_EQ(write_done, 100u + 4096 / 8);

  const Cycles t0 = sim.now();
  dev.read_pages(1, [&] { read_done = sim.now(); });
  test::run_until_drained(sim);
  EXPECT_EQ(read_done - t0, 50u + 4096 / 8);

  // A clustered read pays one access latency for the whole run.
  const Cycles t1 = sim.now();
  dev.read_pages(3, [&] { read_done = sim.now(); });
  test::run_until_drained(sim);
  EXPECT_EQ(read_done - t1, 50u + 3 * 4096 / 8);
  EXPECT_EQ(dev.reads(), 4u);
  EXPECT_EQ(dev.writes(), 1u);
}

TEST(SwapDevice, OperationsSerializeOnThePort) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 8;
  SwapDevice dev(sim, cfg, 4096, "swap");
  const Cycles per_op = 100 + 4096 / 8;

  Cycles first = 0, second = 0;
  dev.write_page([&] { first = sim.now(); });
  dev.write_page([&] { second = sim.now(); });
  test::run_until_drained(sim);
  EXPECT_EQ(first, per_op);
  EXPECT_EQ(second, 2 * per_op);
}

TEST(SwapSlots, ReadOfUnheldPageIsAnError) {
  sim::Simulator sim;
  SwapScheduler sched(sim, SwapConfig{}, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  EXPECT_THROW(sched.read(owner, 3, SwapReqClass::kDemandRead, [] {}), std::logic_error);
  sched.note_swapped(owner, 3);
  EXPECT_NO_THROW(sched.read(owner, 3, SwapReqClass::kDemandRead, [] {}));
}

TEST(SwapSlots, NoteSwappedIsInstantAndIdempotent) {
  // By-fiat bookkeeping: experiment setup lands pages in swap with zero
  // device time and no transfer, and re-noting a held page changes nothing.
  sim::Simulator sim;
  SwapScheduler sched(sim, SwapConfig{}, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  sched.note_swapped(owner, 11);
  sched.note_swapped(owner, 12);
  EXPECT_TRUE(sim.idle());  // no transfer scheduled
  EXPECT_EQ(sched.slots_in_use(), 2u);
  EXPECT_EQ(sched.writes(), 0u);
  EXPECT_FALSE(sched.busy());

  sched.note_swapped(owner, 11);  // idempotent: the slot is not double-allocated
  EXPECT_EQ(sched.slots_in_use(), 2u);
  EXPECT_TRUE(sched.holds(owner, 11));
  EXPECT_TRUE(sched.holds(owner, 12));
  EXPECT_FALSE(sched.holds(owner, 13));
}

TEST(SwapSlots, SlotFreedOnReadCompletionAndReallocatedOnReEviction) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.read_latency = 50;
  cfg.bytes_per_cycle = 8;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  sched.write(owner, 5, SwapReqClass::kWriteback, [] {});
  test::run_until_drained(sim);
  ASSERT_TRUE(sched.holds(owner, 5));

  // The slot stays allocated for the whole transfer — freeing it at issue
  // time would let a concurrent eviction steal the slot mid-read — and is
  // released exactly at completion.
  bool read_done = false;
  sched.read(owner, 5, SwapReqClass::kDemandRead, [&] { read_done = true; });
  EXPECT_TRUE(sched.holds(owner, 5));  // still held: the transfer is in flight
  EXPECT_EQ(sched.slots_in_use(), 1u);
  test::run_until_drained(sim);
  EXPECT_TRUE(read_done);
  EXPECT_FALSE(sched.holds(owner, 5));  // freed at completion
  EXPECT_EQ(sched.slots_in_use(), 0u);

  // Re-eviction of the same page allocates a fresh slot and pays a second
  // write: occupancy tracks pages that are out, not pages that ever were.
  sched.write(owner, 5, SwapReqClass::kWriteback, [] {});
  test::run_until_drained(sim);
  EXPECT_TRUE(sched.holds(owner, 5));
  EXPECT_EQ(sched.slots_in_use(), 1u);
  EXPECT_EQ(sched.writes(), 2u);
  EXPECT_EQ(sched.reads(), 1u);
}

TEST(SwapDevice, BusyWindowCoversQueuedTransfers) {
  // busy() is the pageout daemon's yield signal: it must hold from issue
  // until the *last* queued transfer completes, and clear exactly at the
  // completion instant so a tick landing then may submit its batch.
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 8;
  SwapDevice dev(sim, cfg, 4096, "swap");
  const Cycles per_op = 100 + 4096 / 8;

  EXPECT_FALSE(dev.busy());  // idle device
  Cycles busy_at_first_completion = 0;
  bool busy_at_second_completion = true;
  dev.write_page([&] { busy_at_first_completion = dev.busy(); });
  dev.write_page([&] { busy_at_second_completion = dev.busy(); });
  EXPECT_TRUE(dev.busy());

  // Step to the first completion: the second transfer still occupies the
  // port, so the window must not have closed early.
  while (sim.now() < per_op && sim.step()) {
  }
  EXPECT_TRUE(busy_at_first_completion);
  test::run_until_drained(sim);
  EXPECT_FALSE(busy_at_second_completion);  // port free at its own completion
  EXPECT_FALSE(dev.busy());
}

TEST(SwapSlots, SlotLimitIsAHardError) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.slot_limit = 2;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  sched.note_swapped(owner, 1);
  sched.note_swapped(owner, 2);
  sched.note_swapped(owner, 2);  // re-note of a held page does not consume a slot
  EXPECT_THROW(sched.note_swapped(owner, 3), std::runtime_error);
  // write allocates through the same bookkeeping, so it hits the same
  // wall; a held page can still be re-written (no new slot).
  EXPECT_THROW(sched.write(owner, 4, SwapReqClass::kWriteback, [] {}), std::runtime_error);
  EXPECT_NO_THROW(sched.write(owner, 1, SwapReqClass::kWriteback, [] {}));
}

}  // namespace
}  // namespace vmsls::paging
