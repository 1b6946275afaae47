// The physical machine every System elaborates onto.
//
// A Machine is the board below the processes: physical memory, the frame
// allocator over it, the DRAM + bus pair, the OS service cores, and the
// file registry. Every System needs all six and shares them with any other
// System on the same machine. A standalone System builds a private Machine;
// a ProcessGroup builds one and elaborates each process onto it.
//
// The group services — the memory-pressure FramePool, the shared swap
// front end, the buffer cache and the MAP_SHARED frame index — stay null on
// a one-process machine. A ProcessGroup fills them in before it adds a
// process; a null service leaves each pager with its private counterpart
// (no pool, a private swap device, a private buffer cache, no dedup).
#pragma once

#include <memory>

#include "mem/backing_file.hpp"
#include "mem/bus.hpp"
#include "mem/dram.hpp"
#include "mem/frame_share.hpp"
#include "mem/frames.hpp"
#include "mem/paging/buffer_cache.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "mem/physmem.hpp"
#include "rt/os.hpp"
#include "sls/platform.hpp"

namespace vmsls::sls {

struct Machine {
  /// Sizes memory, DRAM, bus, and OS cores from `platform`; frames and
  /// file blocks are one platform page.
  Machine(sim::Simulator& sim, const PlatformSpec& platform);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  mem::PhysicalMemory pm;
  mem::FrameAllocator frames;
  mem::DramModel dram;
  mem::MemoryBus bus;
  rt::OsModel os;
  mem::FileStore files;

  std::unique_ptr<paging::FramePool> pool;
  std::unique_ptr<paging::SwapScheduler> swap;
  std::unique_ptr<paging::BufferCache> bcache;
  std::unique_ptr<mem::FrameShareIndex> share;
};

}  // namespace vmsls::sls
