// Cycle-accounted kernel executor.
//
// Executes kernel IR with a pluggable cost model and pluggable ports.
// Non-blocking instructions run in batches inside one simulator event,
// accumulating local-clock cycles; the engine yields to the event queue at
// every blocking operation (memory, OS call, delay) and at a batch limit,
// so component interleaving is exact at every externally visible point.
//
// Cost model defaults describe a pipelined HLS datapath (II=1 ALU);
// the CPU model overrides them (see cpu/cpu.hpp).
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "hwt/kernel.hpp"
#include "hwt/ports.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace vmsls::hwt {

struct CostModel {
  Cycles alu = 1;
  Cycles mul = 1;      // pipelined multiplier
  Cycles divu = 18;    // iterative divider
  Cycles branch = 1;
  Cycles spad = 1;     // BRAM access
  Cycles mem_issue = 1;  // cycles to present a request on a memory port
  Cycles os_issue = 1;   // cycles to present an OS call

  /// Sustained instruction-level parallelism of the datapath. An HLS tool
  /// pipelines loop bodies at II=1, turning a ~8-op body into one cycle of
  /// spatial hardware, so the fabric retires several IR ops per cycle
  /// (default 8); the in-order CPU model uses 1. Raw op costs accumulate
  /// and are divided by this at every yield point, so blocking operations
  /// still serialize exactly.
  unsigned ilp = 8;
};

/// Cost model approximating an in-order applications processor.
CostModel cpu_cost_model();

struct EngineConfig {
  CostModel cost{};
  sim::ClockDomain clock{1, 1};  // engine clock relative to the fabric clock
  u64 batch_limit = 8192;        // max straight-line instructions per event
};

class Engine {
 public:
  Engine(sim::Simulator& sim, Kernel kernel, const EngineConfig& cfg, std::string name);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Ports must be attached for every interface the kernel uses before
  /// `start`. Pointers must outlive the engine.
  void attach_mem_port(unsigned index, MemPort* port);
  void attach_os_port(OsPort* port);

  /// Begins execution at pc 0; `on_halt` fires when the kernel halts.
  /// `start_delay` models wrapper/launch latency.
  void start(std::function<void()> on_halt, Cycles start_delay = 0);

  bool halted() const noexcept { return halted_; }
  bool running() const noexcept { return started_ && !halted_; }

  // Introspection for tests and the runtime.
  i64 reg(unsigned r) const;
  void set_reg(unsigned r, i64 v);
  std::span<const u8> spad() const noexcept { return spad_; }
  u64 instructions_retired() const noexcept { return instret_; }
  Cycles halt_time() const noexcept { return halt_time_; }
  Cycles start_time() const noexcept { return start_time_; }
  Cycles stall_cycles() const noexcept { return stall_cycles_; }
  const Kernel& kernel() const noexcept { return kernel_; }
  const std::string& name() const noexcept { return name_; }

 private:
  void resume();
  /// Raw accumulated op cost -> datapath cycles (ILP credit, rounding up).
  Cycles effective(Cycles local_cost) const noexcept;
  void yield_then_resume(Cycles local_cost);
  void finish_mem_op(Cycles issued_at);
  [[noreturn]] void trap(const std::string& what) const;

  void exec_alu(const Instr& in);
  u64 spad_read(u64 offset, u8 size) const;
  void spad_write(u64 offset, u8 size, u64 value);

  sim::Simulator& sim_;
  Kernel kernel_;
  EngineConfig cfg_;
  std::string name_;

  std::array<i64, kNumRegs> regs_{};
  std::vector<u8> spad_;
  std::array<MemPort*, 4> mem_ports_{};
  u64 mem_word_ = 0;  // port buffer of the scalar load/store in flight
  OsPort* os_port_ = nullptr;

  u64 pc_ = 0;
  bool started_ = false;
  bool halted_ = false;
  std::function<void()> on_halt_;
  u64 instret_ = 0;
  Cycles start_time_ = 0;
  Cycles halt_time_ = 0;
  Cycles stall_cycles_ = 0;

  Counter& stat_instret_;
  Counter& stat_mem_ops_;
  Counter& stat_os_ops_;
  Histogram& stat_mem_latency_;
};

}  // namespace vmsls::hwt
