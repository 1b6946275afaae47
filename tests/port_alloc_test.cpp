// Allocation gate for the hardware-thread memory path.
//
// This binary replaces the global operator new/delete with counting
// versions that forward to malloc/free (so the sanitizer runtimes still see
// and check every block). After a warm-up pass sizes the pools (event
// nodes, transfer/translation/walk records, bus and walker FIFOs), the same
// steady-state work must perform zero heap allocations: memory ops through
// HwMemPort and CachedMemPort, TLB-miss walks, page-crossing bursts, and an
// engine load/store loop.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cpu/cached_port.hpp"
#include "hwt/builder.hpp"
#include "hwt/engine.hpp"
#include "hwt/hw_port.hpp"
#include "test_util.hpp"

namespace {
std::atomic<unsigned long long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace vmsls {
namespace {

using test::MemorySystem;

/// Runs `work` once to warm up, then again under the counter; returns the
/// allocations the second run made.
template <typename F>
unsigned long long steady_state_allocs(F&& work) {
  work();
  const unsigned long long before = g_allocs.load();
  work();
  return g_allocs.load() - before;
}

struct HwPathFixture : ::testing::Test {
  MemorySystem ms;
  std::unique_ptr<mem::PageWalker> walker;
  std::unique_ptr<mem::Mmu> mmu;
  std::unique_ptr<hwt::HwMemPort> port;

  void make(mem::MmuConfig mcfg) {
    walker = std::make_unique<mem::PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(),
                                               mem::WalkerConfig{}, "w");
    mmu = std::make_unique<mem::Mmu>(ms.sim, *walker, mcfg, "mmu", 0);
    port = std::make_unique<hwt::HwMemPort>(ms.sim, *mmu, ms.bus, ms.pm, hwt::HwPortConfig{},
                                            "port");
  }
};

TEST_F(HwPathFixture, ScalarReadsAndWritesOnTlbHits) {
  mem::MmuConfig mcfg;
  mcfg.tlb.hit_latency = 1;
  make(mcfg);
  const VirtAddr va = ms.as.alloc(4096, 4096);
  ms.as.populate(va, 4096);
  u64 word = 0;
  unsigned completed = 0;
  const auto allocs = steady_state_allocs([&] {
    for (u64 i = 0; i < 256; ++i) {
      word = i;
      port->write(va + (i % 512) * 8,
                  std::span<const u8>(reinterpret_cast<const u8*>(&word), 8),
                  [&completed] { ++completed; });
      ms.run_all();
      port->read(va + (i % 512) * 8, std::span<u8>(reinterpret_cast<u8*>(&word), 8),
                 [&completed] { ++completed; });
      ms.run_all();
      ASSERT_EQ(word, i);
    }
  });
  EXPECT_EQ(completed, 1024u);
  EXPECT_GT(ms.sim.stats().counter_value("mmu.tlb.hits"), 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST_F(HwPathFixture, TlbMissWalks) {
  make(mem::MmuConfig{});
  const u64 pages = 64;  // four times the default 16-entry TLB
  const VirtAddr va = ms.as.alloc(pages * 4096, 4096);
  ms.as.populate(va, pages * 4096);
  u64 word = 0;
  const auto allocs = steady_state_allocs([&] {
    for (u64 p = 0; p < pages; ++p) {
      port->read(va + p * 4096, std::span<u8>(reinterpret_cast<u8*>(&word), 8), [] {});
      ms.run_all();
    }
  });
  EXPECT_GE(ms.sim.stats().counter_value("w.walks"), 2 * pages);
  EXPECT_EQ(allocs, 0u);
}

TEST_F(HwPathFixture, PageCrossingBurst) {
  make(mem::MmuConfig{});
  const VirtAddr va = ms.as.alloc(3 * 4096, 4096);
  ms.as.populate(va, 3 * 4096);
  std::vector<u8> buf(4096, 0x5a);
  const auto allocs = steady_state_allocs([&] {
    port->write(va + 2048, std::span<const u8>(buf), [] {});
    ms.run_all();
    port->read(va + 2048, std::span<u8>(buf), [] {});
    ms.run_all();
  });
  EXPECT_EQ(buf[0], 0x5a);
  EXPECT_EQ(allocs, 0u);
}

TEST(CachedPathAllocs, ReadsAndWritesWithL2Misses) {
  MemorySystem ms;
  mem::CacheHierarchy caches{ms.sim, ms.bus, mem::CacheHierarchyConfig{}, "c"};
  cpu::CachedMemPort port{ms.sim, ms.as, caches, "p"};
  const u64 bytes = 2 * MiB;  // four times the default 512 KiB L2
  const VirtAddr va = ms.as.alloc(bytes, 4096);
  ms.as.populate(va, bytes);
  u64 word = 0;
  const auto allocs = steady_state_allocs([&] {
    for (u64 off = 0; off < bytes; off += 4 * KiB + 32) {
      word = off;
      port.write(va + off, std::span<const u8>(reinterpret_cast<const u8*>(&word), 8), [] {});
      ms.run_all();
      port.read(va + off, std::span<u8>(reinterpret_cast<u8*>(&word), 8), [] {});
      ms.run_all();
    }
  });
  EXPECT_GT(ms.sim.stats().counter_value("c.l2.misses"), 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(EngineAllocs, LoadStoreLoop) {
  MemorySystem ms;
  mem::PageWalker walker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), mem::WalkerConfig{}, "w");
  mem::Mmu mmu(ms.sim, walker, mem::MmuConfig{}, "mmu", 0);
  hwt::HwMemPort port(ms.sim, mmu, ms.bus, ms.pm, hwt::HwPortConfig{}, "port");
  const u64 n = 4096;
  const VirtAddr va = ms.as.alloc(n * 8, 4096);
  ms.as.populate(va, n * 8);

  // for (i = 0; i < 2n; ++i) a[i % n] += 1   — two passes over the array.
  hwt::KernelBuilder kb("k");
  kb.li(1, static_cast<i64>(va))
      .li(2, 0)
      .li(3, static_cast<i64>(2 * n))
      .label("loop")
      .andi(4, 2, static_cast<i64>(n - 1))
      .shli(4, 4, 3)
      .add(4, 4, 1)
      .load(5, 4)
      .addi(5, 5, 1)
      .store(4, 5)
      .addi(2, 2, 1)
      .sltu(6, 2, 3)
      .bnez(6, "loop")
      .halt();
  hwt::Engine engine(ms.sim, kb.build(), hwt::EngineConfig{}, "eng");
  engine.attach_mem_port(0, &port);
  bool halted = false;
  engine.start([&halted] { halted = true; });

  // The first pass warms every pool; the second pass must not allocate.
  while (ms.sim.step() && engine.reg(2) < static_cast<i64>(n)) {
  }
  const unsigned long long before = g_allocs.load();
  while (ms.sim.step()) {
  }
  const unsigned long long allocs = g_allocs.load() - before;
  ASSERT_TRUE(halted);
  EXPECT_EQ(ms.as.read_u64(va), 2u);
  EXPECT_EQ(ms.as.read_u64(va + (n - 1) * 8), 2u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace vmsls
