#include <gtest/gtest.h>

#include "cpu/cached_port.hpp"
#include "cpu/cpu.hpp"
#include "test_util.hpp"

namespace vmsls::cpu {
namespace {

using test::MemorySystem;

struct CachedPortFixture : ::testing::Test {
  MemorySystem ms;
  mem::CacheHierarchy caches{ms.sim, ms.bus, mem::CacheHierarchyConfig{}, "c"};
  CachedMemPort port{ms.sim, ms.as, caches, "p"};

  std::vector<u8> read_sync(VirtAddr va, u32 bytes) {
    std::vector<u8> out(bytes);
    bool done = false;
    port.read(va, out, [&] { done = true; });
    while (ms.sim.step()) {
    }
    EXPECT_TRUE(done);
    return out;
  }

  Cycles write_sync(VirtAddr va, std::span<const u8> data) {
    const Cycles t0 = ms.sim.now();
    bool done = false;
    port.write(va, data, [&] { done = true; });
    while (ms.sim.step()) {
    }
    EXPECT_TRUE(done);
    return ms.sim.now() - t0;
  }
};

TEST_F(CachedPortFixture, RoundTripThroughAddressSpace) {
  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  const u64 v = 0xcafe1234;
  write_sync(va + 8, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  EXPECT_EQ(ms.as.read_u64(va + 8), v);
  const auto back = read_sync(va + 8, 8);
  u64 r = 0;
  std::memcpy(&r, back.data(), 8);
  EXPECT_EQ(r, v);
}

TEST_F(CachedPortFixture, DemandMapsUntouchedPages) {
  const VirtAddr va = ms.as.alloc(4096);
  EXPECT_FALSE(ms.as.is_mapped(va));
  read_sync(va, 8);
  EXPECT_TRUE(ms.as.is_mapped(va));
}

TEST_F(CachedPortFixture, WarmAccessIsFaster) {
  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  const u64 v = 1;
  const Cycles cold = write_sync(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  const Cycles warm = write_sync(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  EXPECT_LT(warm, cold);
}

TEST_F(CachedPortFixture, CrossPageAccessWorks) {
  const VirtAddr va = ms.as.alloc(2 * 4096, 4096);
  ms.as.populate(va, 2 * 4096);
  std::vector<u8> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i + 1);
  write_sync(va + 4096 - 32, std::span<const u8>(data.data(), data.size()));
  EXPECT_EQ(read_sync(va + 4096 - 32, 64), data);
}

TEST_F(CachedPortFixture, MissesGenerateBusTraffic) {
  const VirtAddr va = ms.as.alloc(64 * KiB, 4096);
  ms.as.populate(va, 64 * KiB);
  // Stream well past L1: fills must reach the bus.
  for (u64 off = 0; off < 64 * KiB; off += 4 * KiB) read_sync(va + off, 8);
  EXPECT_GT(ms.sim.stats().counter_value("bus.requests"), 0u);
}

// Pinned timing: a cross-page write then a read of the same bytes; the
// completion cycles of both (cold then warm caches) must stay exactly as
// recorded here.
TEST_F(CachedPortFixture, CrossPageWriteThenReadPinned) {
  const VirtAddr va = ms.as.alloc(2 * 4096, 4096);
  ms.as.populate(va, 2 * 4096);
  std::vector<u8> data(200);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 5 + 9);
  const Cycles write_cycles = write_sync(va + 4096 - 72, data);
  const Cycles write_done = ms.sim.now();
  const auto back = read_sync(va + 4096 - 72, 200);
  EXPECT_EQ(back, data);
  EXPECT_EQ(write_cycles, 145u);
  EXPECT_EQ(write_done, 145u);
  EXPECT_EQ(ms.sim.now(), 152u);
  EXPECT_EQ(ms.sim.stats().counter_value("bus.requests"), 7u);
  EXPECT_EQ(ms.sim.stats().counter_value("c.l1.misses"), 7u);
}

TEST(CpuConfig, EngineConfigCarriesClockAndCosts) {
  CpuConfig cfg;
  const auto ecfg = engine_config(cfg);
  EXPECT_EQ(ecfg.cost.ilp, 1u);
  EXPECT_NEAR(ecfg.clock.ratio(), 10.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace vmsls::cpu
