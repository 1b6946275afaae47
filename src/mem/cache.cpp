#include "mem/cache.hpp"

#include <utility>

namespace vmsls::mem {

CacheLevel::CacheLevel(const CacheConfig& cfg, StatRegistry& stats, std::string name)
    : cfg_(cfg),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses")),
      writebacks_(stats.counter(name + ".writebacks")) {
  require(is_pow2(cfg.line_bytes), "cache line size must be a power of two");
  require(cfg.ways > 0, "cache must have ways");
  const u64 lines = cfg.size_bytes / cfg.line_bytes;
  require(lines % cfg.ways == 0, "cache lines must divide evenly into ways");
  sets_ = static_cast<unsigned>(lines / cfg.ways);
  require(sets_ > 0, "cache must have at least one set");
  ways_.resize(lines);
}

CacheLevel::Outcome CacheLevel::access(PhysAddr addr, bool is_write) {
  const u64 line = addr / cfg_.line_bytes;
  const unsigned set = static_cast<unsigned>(line % sets_);
  const u64 tag = line / sets_;

  Way* victim = nullptr;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Way& way = ways_[static_cast<std::size_t>(set) * cfg_.ways + w];
    if (way.valid && way.tag == tag) {
      way.lru = ++tick_;
      way.dirty = way.dirty || is_write;
      hits_.add();
      return Outcome{true, false, 0};
    }
    if (!way.valid) {
      if (victim == nullptr || victim->valid) victim = &way;
    } else if (victim == nullptr || (victim->valid && way.lru < victim->lru)) {
      victim = &way;
    }
  }

  misses_.add();
  Outcome out;
  if (victim->valid && victim->dirty) {
    out.writeback = true;
    out.writeback_addr = (victim->tag * sets_ + set) * cfg_.line_bytes;
    writebacks_.add();
  }
  victim->valid = true;
  victim->dirty = is_write;
  victim->tag = tag;
  victim->lru = ++tick_;
  return out;
}

void CacheLevel::flush() {
  for (auto& way : ways_) way.valid = false;
}

CacheHierarchy::CacheHierarchy(sim::Simulator& sim, MemoryBus& bus,
                               const CacheHierarchyConfig& cfg, std::string name)
    : sim_(sim),
      bus_(bus),
      cfg_(cfg),
      l1_(cfg.l1, sim.stats(), name + ".l1"),
      l2_(cfg.l2, sim.stats(), name + ".l2") {
  require(cfg.l1.line_bytes == cfg.l2.line_bytes, "L1/L2 line sizes must match");
}

void CacheHierarchy::access(PhysAddr addr, u32 bytes, bool is_write, sim::EventFn done) {
  require(bytes > 0, "cache access must touch at least one byte");
  Walk* w = walks_.acquire();
  const u64 line_bytes = cfg_.l1.line_bytes;
  w->next_line = align_down(addr, line_bytes);
  w->end = addr + bytes;
  w->is_write = is_write;
  w->done = std::move(done);
  step(w);
}

void CacheHierarchy::step(Walk* w) {
  const u64 line_bytes = cfg_.l1.line_bytes;
  if (w->next_line >= w->end) {
    sim_.schedule_now([this, w] {
      sim::EventFn done = std::move(w->done);
      walks_.release(w);
      done();
    });
    return;
  }
  const PhysAddr line_addr = w->next_line;
  w->next_line += line_bytes;

  const auto o1 = l1_.access(line_addr, w->is_write);
  if (o1.hit) {
    sim_.schedule_in(cfg_.l1.hit_latency, [this, w] { step(w); });
    return;
  }
  // L1 miss: a dirty L1 victim is absorbed by L2 (both track the line; we
  // charge the L2 access below). Look up L2.
  if (o1.writeback) {
    const auto wb = l2_.access(o1.writeback_addr, /*is_write=*/true);
    if (wb.writeback)
      bus_.request(BusRequest{wb.writeback_addr, static_cast<u32>(line_bytes), true, [] {}});
  }
  const auto o2 = l2_.access(line_addr, w->is_write);
  if (o2.writeback)
    bus_.request(BusRequest{o2.writeback_addr, static_cast<u32>(line_bytes), true, [] {}});
  const Cycles lookup_cost = cfg_.l1.hit_latency + cfg_.l2.hit_latency;
  if (o2.hit) {
    sim_.schedule_in(lookup_cost, [this, w] { step(w); });
    return;
  }
  // L2 miss: fill the line from DRAM, then continue with the next line.
  sim_.schedule_in(lookup_cost, [this, w, line_addr, line_bytes] {
    bus_.request(
        BusRequest{line_addr, static_cast<u32>(line_bytes), false, [this, w] { step(w); }});
  });
}

}  // namespace vmsls::mem
