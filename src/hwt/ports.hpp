// Abstract interfaces between a kernel engine and the rest of the system.
//
// The engine is agnostic to what is behind its ports. The hardware-thread
// configuration plugs in HwMemPort (TLB/MMU + fabric bus) and the delegate
// OS interface; the software configuration plugs in a cached CPU port and
// the direct syscall interface. This is the seam that lets one kernel
// description serve as both the accelerator and its software baseline.
#pragma once

#include <functional>
#include <span>

#include "sim/event_fn.hpp"
#include "util/pool.hpp"
#include "util/units.hpp"

namespace vmsls::hwt {

/// A memory port: reads and writes by *virtual* address, into and out of
/// caller-owned buffers.
///
/// Contract:
///   * The buffer (`dst` / `src`) belongs to the caller and must stay live
///     and unchanged until `done` fires. A read fills `dst` at some point
///     before `done`; a write may read `src` at any point before `done`.
///   * `done` fires exactly once, when the transaction (including
///     translation, faults and interconnect time) is complete.
///   * `done` may run inline, inside the read/write call, when the access
///     adds no modeled latency; callers must not assume it runs after the
///     current event returns.
class MemPort {
 public:
  virtual ~MemPort() = default;

  virtual void read(VirtAddr va, std::span<u8> dst, sim::EventFn done) = 0;
  virtual void write(VirtAddr va, std::span<const u8> src, sim::EventFn done) = 0;
};

/// The transfer loop both concrete ports share: a transfer is split at page
/// boundaries (a translation is valid for one page) and at `max_chunk`
/// bytes, and the chunks are issued one after another. Each port supplies
/// only `issue` — how one chunk reaches memory — and, optionally, `finish`.
/// Transfer records are pooled, so steady-state traffic allocates nothing.
class ChunkedPort : public MemPort {
 protected:
  struct Xfer {
    VirtAddr va = 0;
    u8* dst = nullptr;        // read target (null for writes)
    const u8* src = nullptr;  // write source (null for reads)
    u64 size = 0;
    u64 pos = 0;  // bytes issued
    bool is_write = false;
    sim::EventFn done;
  };

  ChunkedPort(u64 page_bytes, u64 max_chunk) : page_bytes_(page_bytes), max_chunk_(max_chunk) {}

  /// Starts a transfer of `size` bytes: a read into `dst`, or a write from
  /// `src` (exactly one of them is non-null).
  void transfer(VirtAddr va, u8* dst, const u8* src, u64 size, sim::EventFn done);

  /// Issues the chunk [va, va + bytes), at offset `off` of the caller's
  /// buffer; the port calls step(x) once the chunk has completed.
  virtual void issue(Xfer* x, VirtAddr va, u64 off, u32 bytes) = 0;
  /// Runs after the last chunk, before `done` (the cached port's functional
  /// access happens here).
  virtual void finish(const Xfer& /*x*/) {}

  /// Issues the next chunk of `x`, or completes the transfer.
  void step(Xfer* x);

 private:
  u64 page_bytes_;
  u64 max_chunk_;
  Pool<Xfer> xfers_;
};

/// The OS-service interface (mailboxes and semaphores). Blocking semantics:
/// callbacks fire when the operation completes, possibly after waiting on a
/// peer thread. These calls are rare (a handful per kernel run), so they
/// keep std::function.
class OsPort {
 public:
  virtual ~OsPort() = default;

  virtual void mbox_get(unsigned mbox, std::function<void(i64)> done) = 0;
  virtual void mbox_put(unsigned mbox, i64 value, std::function<void()> done) = 0;
  virtual void sem_wait(unsigned sem, std::function<void()> done) = 0;
  virtual void sem_post(unsigned sem, std::function<void()> done) = 0;
};

}  // namespace vmsls::hwt
