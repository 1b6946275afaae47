#include "sls/machine.hpp"

namespace vmsls::sls {

namespace {
u64 page_bytes(const PlatformSpec& platform) { return 1ull << platform.page_table.page_bits; }
}  // namespace

Machine::Machine(sim::Simulator& sim, const PlatformSpec& platform)
    : pm(platform.dram.size_bytes),
      frames(0, platform.dram.size_bytes / page_bytes(platform), page_bytes(platform)),
      dram(platform.dram, sim.stats(), "dram"),
      bus(sim, dram, platform.bus, "bus"),
      os(sim, platform.os, "os"),
      files(page_bytes(platform)) {}

}  // namespace vmsls::sls
