#include "hwt/engine.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace vmsls::hwt {

CostModel cpu_cost_model() {
  CostModel c;
  c.alu = 1;
  c.mul = 4;
  c.divu = 24;
  c.branch = 3;   // average including mispredictions
  c.spad = 2;     // L1-resident temporary: load-use latency amortized
  c.mem_issue = 1;
  c.os_issue = 1;
  c.ilp = 1;  // single-issue in-order core
  return c;
}

Engine::Engine(sim::Simulator& sim, Kernel kernel, const EngineConfig& cfg, std::string name)
    : sim_(sim),
      kernel_(std::move(kernel)),
      cfg_(cfg),
      name_(std::move(name)),
      spad_(kernel_.iface.spad_bytes, 0),
      stat_instret_(sim.stats().counter(name_ + ".instructions")),
      stat_mem_ops_(sim.stats().counter(name_ + ".mem_ops")),
      stat_os_ops_(sim.stats().counter(name_ + ".os_ops")),
      stat_mem_latency_(sim.stats().histogram(name_ + ".mem_latency")) {
  verify(kernel_);
}

void Engine::attach_mem_port(unsigned index, MemPort* port) {
  require(index < mem_ports_.size(), "memory port index out of range");
  require(port != nullptr, "null memory port");
  mem_ports_[index] = port;
}

void Engine::attach_os_port(OsPort* port) {
  require(port != nullptr, "null OS port");
  os_port_ = port;
}

void Engine::start(std::function<void()> on_halt, Cycles start_delay) {
  require(!started_, "engine started twice");
  for (unsigned p = 0; p < kernel_.iface.mem_ports; ++p)
    require(mem_ports_[p] != nullptr,
            name_ + ": kernel uses memory port " + std::to_string(p) + " but none is attached");
  if (kernel_.iface.mailboxes > 0 || kernel_.iface.semaphores > 0)
    require(os_port_ != nullptr, name_ + ": kernel uses OS services but no OS port is attached");
  started_ = true;
  on_halt_ = std::move(on_halt);
  start_time_ = sim_.now() + start_delay;
  sim_.schedule_in(start_delay, [this] { resume(); });
}

i64 Engine::reg(unsigned r) const {
  require(r < kNumRegs, "register index out of range");
  return regs_[r];
}

void Engine::set_reg(unsigned r, i64 v) {
  require(r < kNumRegs, "register index out of range");
  regs_[r] = v;
}

void Engine::trap(const std::string& what) const {
  throw std::runtime_error(name_ + " @pc=" + std::to_string(pc_) + ": " + what);
}

u64 Engine::spad_read(u64 offset, u8 size) const {
  if (offset + size > spad_.size()) trap("scratchpad read out of bounds");
  u64 v = 0;
  std::memcpy(&v, spad_.data() + offset, size);
  return v;
}

void Engine::spad_write(u64 offset, u8 size, u64 value) {
  if (offset + size > spad_.size()) trap("scratchpad write out of bounds");
  std::memcpy(spad_.data() + offset, &value, size);
}

void Engine::exec_alu(const Instr& in) {
  const i64 a = regs_[in.ra];
  const i64 b = regs_[in.rb];
  const u64 ua = static_cast<u64>(a);
  const u64 ub = static_cast<u64>(b);
  i64 r = 0;
  switch (in.op) {
    case Op::kLi: r = in.imm; break;
    case Op::kMov: r = a; break;
    case Op::kAdd: r = static_cast<i64>(ua + ub); break;
    case Op::kSub: r = static_cast<i64>(ua - ub); break;
    case Op::kMul: r = static_cast<i64>(ua * ub); break;
    case Op::kDivU: r = ub == 0 ? -1 : static_cast<i64>(ua / ub); break;
    case Op::kRemU: r = ub == 0 ? a : static_cast<i64>(ua % ub); break;
    case Op::kAnd: r = static_cast<i64>(ua & ub); break;
    case Op::kOr: r = static_cast<i64>(ua | ub); break;
    case Op::kXor: r = static_cast<i64>(ua ^ ub); break;
    case Op::kShl: r = static_cast<i64>(ua << (ub & 63)); break;
    case Op::kShr: r = static_cast<i64>(ua >> (ub & 63)); break;
    case Op::kAddi: r = static_cast<i64>(ua + static_cast<u64>(in.imm)); break;
    case Op::kMuli: r = static_cast<i64>(ua * static_cast<u64>(in.imm)); break;
    case Op::kAndi: r = static_cast<i64>(ua & static_cast<u64>(in.imm)); break;
    case Op::kShli: r = static_cast<i64>(ua << (in.imm & 63)); break;
    case Op::kShri: r = static_cast<i64>(ua >> (in.imm & 63)); break;
    case Op::kSlt: r = a < b ? 1 : 0; break;
    case Op::kSltu: r = ua < ub ? 1 : 0; break;
    case Op::kSeq: r = a == b ? 1 : 0; break;
    case Op::kSne: r = a != b ? 1 : 0; break;
    case Op::kMin: r = a < b ? a : b; break;
    case Op::kMax: r = a > b ? a : b; break;
    default: trap("exec_alu on non-ALU op");
  }
  regs_[in.rd] = r;
}

Cycles Engine::effective(Cycles local_cost) const noexcept {
  const unsigned ilp = cfg_.cost.ilp == 0 ? 1 : cfg_.cost.ilp;
  return (local_cost + ilp - 1) / ilp;
}

void Engine::yield_then_resume(Cycles local_cost) {
  sim_.schedule_in(cfg_.clock.to_ref(effective(local_cost)), [this] { resume(); });
}

void Engine::resume() {
  Cycles local = 0;  // cost accumulated in the engine's own clock domain
  u64 batch = 0;

  while (true) {
    if (pc_ >= kernel_.code.size()) trap("fell off end of kernel");
    const Instr& in = kernel_.code[pc_];

    if (++batch > cfg_.batch_limit) {
      // Yield to keep single events bounded; resume in the same local cycle
      // budget we accumulated.
      yield_then_resume(local);
      return;
    }

    switch (in.op) {
      case Op::kNop:
        local += cfg_.cost.alu;
        ++pc_;
        break;

      case Op::kLi: case Op::kMov:
      case Op::kAdd: case Op::kSub: case Op::kAnd: case Op::kOr: case Op::kXor:
      case Op::kShl: case Op::kShr: case Op::kAddi: case Op::kAndi:
      case Op::kShli: case Op::kShri:
      case Op::kSlt: case Op::kSltu: case Op::kSeq: case Op::kSne:
      case Op::kMin: case Op::kMax:
        exec_alu(in);
        local += cfg_.cost.alu;
        ++instret_;
        ++pc_;
        break;

      case Op::kMul: case Op::kMuli:
        exec_alu(in);
        local += cfg_.cost.mul;
        ++instret_;
        ++pc_;
        break;

      case Op::kDivU: case Op::kRemU:
        exec_alu(in);
        local += cfg_.cost.divu;
        ++instret_;
        ++pc_;
        break;

      case Op::kBeqz:
        local += cfg_.cost.branch;
        ++instret_;
        pc_ = (regs_[in.ra] == 0) ? static_cast<u64>(in.imm) : pc_ + 1;
        break;

      case Op::kBnez:
        local += cfg_.cost.branch;
        ++instret_;
        pc_ = (regs_[in.ra] != 0) ? static_cast<u64>(in.imm) : pc_ + 1;
        break;

      case Op::kJmp:
        local += cfg_.cost.branch;
        ++instret_;
        pc_ = static_cast<u64>(in.imm);
        break;

      case Op::kSpadLoad:
        regs_[in.rd] = static_cast<i64>(spad_read(static_cast<u64>(regs_[in.ra] + in.imm), in.size));
        local += cfg_.cost.spad;
        ++instret_;
        ++pc_;
        break;

      case Op::kSpadStore:
        spad_write(static_cast<u64>(regs_[in.ra] + in.imm), in.size, static_cast<u64>(regs_[in.rb]));
        local += cfg_.cost.spad;
        ++instret_;
        ++pc_;
        break;

      case Op::kDelay: {
        ++instret_;
        ++pc_;
        // The explicit delay is absolute pipeline depth, not subject to ILP.
        sim_.schedule_in(
            cfg_.clock.to_ref(effective(local) + static_cast<Cycles>(in.imm)),
            [this] { resume(); });
        return;
      }

      case Op::kHalt: {
        ++instret_;
        stat_instret_.add(instret_);
        const Cycles at = cfg_.clock.to_ref(effective(local));
        sim_.schedule_in(at, [this] {
          halted_ = true;
          halt_time_ = sim_.now();
          if (on_halt_) on_halt_();
        });
        return;
      }

      case Op::kLoad: case Op::kStore: case Op::kBurstLoad: case Op::kBurstStore: {
        ++instret_;
        stat_mem_ops_.add();
        // Scalars move through mem_word_ (the engine blocks on every memory
        // op, so one word suffices); bursts read and write the scratchpad.
        const bool burst = in.op == Op::kBurstLoad || in.op == Op::kBurstStore;
        const bool load = in.op == Op::kLoad || in.op == Op::kBurstLoad;
        VirtAddr va = static_cast<VirtAddr>(regs_[in.ra] + in.imm);
        u8* buf = reinterpret_cast<u8*>(&mem_word_);
        u64 bytes = in.size;
        if (burst) {
          const u64 spad_off = static_cast<u64>(regs_[in.rd]);
          va = static_cast<VirtAddr>(regs_[in.ra]);
          bytes = static_cast<u64>(regs_[in.rb]);
          if (bytes == 0) trap(load ? "zero-length burst load" : "zero-length burst store");
          if (spad_off + bytes > spad_.size())
            trap(load ? "burst load overflows scratchpad" : "burst store overruns scratchpad");
          buf = spad_.data() + spad_off;
        }
        const u64 v = in.op == Op::kStore ? static_cast<u64>(regs_[in.rb]) : 0;
        const Instr snapshot = in;
        const Cycles issue = cfg_.clock.to_ref(effective(local) + cfg_.cost.mem_issue);
        sim_.schedule_in(issue, [this, va, buf, bytes, v, snapshot] {
          const Cycles issued_at = sim_.now();
          if (snapshot.op == Op::kLoad || snapshot.op == Op::kStore) mem_word_ = v;
          sim::EventFn done = [this, issued_at, snapshot] {
            if (snapshot.op == Op::kLoad) regs_[snapshot.rd] = static_cast<i64>(mem_word_);
            ++pc_;
            finish_mem_op(issued_at);
          };
          MemPort* port = mem_ports_[snapshot.port];
          if (snapshot.op == Op::kLoad || snapshot.op == Op::kBurstLoad)
            port->read(va, std::span<u8>(buf, bytes), std::move(done));
          else
            port->write(va, std::span<const u8>(buf, bytes), std::move(done));
        });
        return;
      }

      case Op::kMboxGet: {
        ++instret_;
        stat_os_ops_.add();
        const Instr snapshot = in;
        const Cycles issue = cfg_.clock.to_ref(effective(local) + cfg_.cost.os_issue);
        sim_.schedule_in(issue, [this, snapshot] {
          os_port_->mbox_get(static_cast<unsigned>(snapshot.imm), [this, snapshot](i64 v) {
            regs_[snapshot.rd] = v;
            ++pc_;
            resume();
          });
        });
        return;
      }

      case Op::kMboxPut: {
        ++instret_;
        stat_os_ops_.add();
        const Instr snapshot = in;
        const i64 v = regs_[in.ra];
        const Cycles issue = cfg_.clock.to_ref(effective(local) + cfg_.cost.os_issue);
        sim_.schedule_in(issue, [this, snapshot, v] {
          os_port_->mbox_put(static_cast<unsigned>(snapshot.imm), v, [this] {
            ++pc_;
            resume();
          });
        });
        return;
      }

      case Op::kSemWait: {
        ++instret_;
        stat_os_ops_.add();
        const Instr snapshot = in;
        const Cycles issue = cfg_.clock.to_ref(effective(local) + cfg_.cost.os_issue);
        sim_.schedule_in(issue, [this, snapshot] {
          os_port_->sem_wait(static_cast<unsigned>(snapshot.imm), [this] {
            ++pc_;
            resume();
          });
        });
        return;
      }

      case Op::kSemPost: {
        ++instret_;
        stat_os_ops_.add();
        const Instr snapshot = in;
        const Cycles issue = cfg_.clock.to_ref(effective(local) + cfg_.cost.os_issue);
        sim_.schedule_in(issue, [this, snapshot] {
          os_port_->sem_post(static_cast<unsigned>(snapshot.imm), [this] {
            ++pc_;
            resume();
          });
        });
        return;
      }
    }
  }
}

void Engine::finish_mem_op(Cycles issued_at) {
  const Cycles waited = sim_.now() - issued_at;
  stall_cycles_ += waited;
  stat_mem_latency_.record(waited);
  resume();
}

}  // namespace vmsls::hwt
