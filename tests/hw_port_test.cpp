#include <gtest/gtest.h>

#include "hwt/builder.hpp"
#include "hwt/engine.hpp"
#include "hwt/hw_port.hpp"
#include "test_util.hpp"

namespace vmsls::hwt {
namespace {

using test::MemorySystem;

struct HwPortFixture : ::testing::Test, mem::FaultSink {
  MemorySystem ms;
  mem::WalkerConfig wcfg;
  std::unique_ptr<mem::PageWalker> walker;
  std::unique_ptr<mem::Mmu> mmu;
  std::unique_ptr<HwMemPort> port;
  int faults = 0;
  u8 fault_fill = 0;  // nonzero: fill each page mapped on a fault with this byte

  void raise(mem::FaultRequest req) override {
    ++faults;
    ms.as.map_page(req.va);
    if (fault_fill != 0) {
      const std::vector<u8> fill(4096, fault_fill);
      ms.as.write(align_down(req.va, 4096), fill);
    }
    ms.sim.schedule_in(50, [retry = req.retry] { retry(); });
  }

  void make_port(HwPortConfig cfg = {}) {
    walker = std::make_unique<mem::PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(), wcfg,
                                               "w");
    mmu = std::make_unique<mem::Mmu>(ms.sim, *walker, mem::MmuConfig{}, "mmu", 0);
    mmu->set_fault_sink(this);
    port = std::make_unique<HwMemPort>(ms.sim, *mmu, ms.bus, ms.pm, cfg, "port");
  }

  std::vector<u8> read_sync(VirtAddr va, u32 bytes) {
    std::vector<u8> out(bytes);
    bool done = false;
    port->read(va, out, [&] { done = true; });
    ms.run_all();
    EXPECT_TRUE(done);
    return out;
  }

  void write_sync(VirtAddr va, std::span<const u8> data) {
    bool done = false;
    port->write(va, data, [&] { done = true; });
    ms.run_all();
    ASSERT_TRUE(done);
  }
};

TEST_F(HwPortFixture, ReadSeesSoftwareWrites) {
  make_port();
  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  ms.as.write_u64(va + 16, 0x1122334455667788ull);
  const auto data = read_sync(va + 16, 8);
  u64 v = 0;
  std::memcpy(&v, data.data(), 8);
  EXPECT_EQ(v, 0x1122334455667788ull);
}

TEST_F(HwPortFixture, WriteVisibleToSoftware) {
  make_port();
  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  const u64 v = 0xfeedface;
  write_sync(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  EXPECT_EQ(ms.as.read_u64(va), v);
}

TEST_F(HwPortFixture, PageCrossingBurstSplits) {
  make_port();
  const VirtAddr va = ms.as.alloc(2 * 4096, 4096);
  ms.as.populate(va, 2 * 4096);
  std::vector<u8> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  // Write straddling the page boundary: two translations needed.
  write_sync(va + 4096 - 128, std::span<const u8>(data.data(), data.size()));
  const auto back = read_sync(va + 4096 - 128, 256);
  EXPECT_EQ(back, data);
  EXPECT_GE(ms.sim.stats().counter_value("mmu.translations"), 4u);
}

TEST_F(HwPortFixture, BurstCapSplitsLargeTransfers) {
  HwPortConfig cfg;
  cfg.max_burst_bytes = 64;
  make_port(cfg);
  const VirtAddr va = ms.as.alloc(4096, 4096);
  ms.as.populate(va, 4096);
  read_sync(va, 512);  // 8 bus transactions of 64 B
  EXPECT_GE(ms.sim.stats().counter_value("bus.requests"), 8u);
}

TEST_F(HwPortFixture, FaultingAccessCompletesAfterService) {
  make_port();
  const VirtAddr va = ms.as.alloc(4096);  // not populated
  const u64 v = 42;
  write_sync(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(ms.as.read_u64(va), 42u);
}

TEST_F(HwPortFixture, StatsCountTraffic) {
  make_port();
  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  read_sync(va, 64);
  const u64 v = 1;
  write_sync(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  EXPECT_EQ(ms.sim.stats().counter_value("port.reads"), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("port.writes"), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("port.bytes"), 72u);
}

// Pinned timing: a 128 B read straddling a page boundary, split into 64 B
// bursts, whose second page faults. Completion cycle, data, and traffic
// must stay exactly as recorded here.
TEST_F(HwPortFixture, CrossPageReadWithFaultPinned) {
  HwPortConfig cfg;
  cfg.max_burst_bytes = 64;
  make_port(cfg);
  fault_fill = 0xA5;
  const VirtAddr va = ms.as.alloc(2 * 4096, 4096);
  ms.as.populate(va, 4096);  // second page faults
  std::vector<u8> first(4096);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = static_cast<u8>(i * 7 + 3);
  ms.as.write(va, first);

  Cycles done_at = 0;
  std::vector<u8> out(128);
  port->read(va + 4096 - 96, out, [&] { done_at = ms.sim.now(); });
  ms.run_all();

  for (std::size_t i = 0; i < 96; ++i) EXPECT_EQ(out[i], first[4096 - 96 + i]) << i;
  for (std::size_t i = 96; i < 128; ++i) EXPECT_EQ(out[i], 0xA5) << i;
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(done_at, 184u);
  EXPECT_EQ(ms.sim.stats().counter_value("bus.requests"), 10u);
  EXPECT_EQ(ms.sim.stats().counter_value("mmu.translations"), 4u);
}

// Pinned timing: an engine burst load across a page boundary lands in the
// scratchpad at exactly the recorded cycle.
TEST_F(HwPortFixture, EngineBurstLoadAcrossPagePinned) {
  make_port();
  const VirtAddr va = ms.as.alloc(2 * 4096, 4096);
  ms.as.populate(va, 2 * 4096);
  std::vector<u8> src(2 * 4096);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<u8>(i * 13 + 1);
  ms.as.write(va, src);

  KernelBuilder kb("k", 1024);
  kb.li(1, 16)
      .li(2, static_cast<i64>(va + 4096 - 200))
      .li(3, 600)
      .burst_load(1, 2, 3)
      .spad_load(4, 1, 0)
      .halt();
  Engine engine(ms.sim, kb.build(), EngineConfig{}, "eng");
  engine.attach_mem_port(0, port.get());
  bool halted = false;
  engine.start([&] { halted = true; });
  ms.run_all();

  ASSERT_TRUE(halted);
  for (std::size_t i = 0; i < 600; ++i)
    ASSERT_EQ(engine.spad()[16 + i], src[4096 - 200 + i]) << i;
  EXPECT_EQ(engine.spad()[15], 0);
  EXPECT_EQ(engine.spad()[16 + 600], 0);
  EXPECT_EQ(engine.halt_time(), 176u);
  EXPECT_EQ(engine.stall_cycles(), 173u);
  EXPECT_EQ(ms.sim.stats().counter_value("bus.requests"), 8u);
}

TEST_F(HwPortFixture, ZeroByteAccessRejected) {
  make_port();
  EXPECT_THROW(port->read(0, std::span<u8>(), [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace vmsls::hwt
