#include "hwt/ports.hpp"

#include <algorithm>
#include <utility>

namespace vmsls::hwt {

void ChunkedPort::transfer(VirtAddr va, u8* dst, const u8* src, u64 size, sim::EventFn done) {
  Xfer* x = xfers_.acquire();
  x->va = va;
  x->dst = dst;
  x->src = src;
  x->size = size;
  x->pos = 0;
  x->is_write = src != nullptr;
  x->done = std::move(done);
  step(x);
}

void ChunkedPort::step(Xfer* x) {
  if (x->pos >= x->size) {
    finish(*x);
    sim::EventFn done = std::move(x->done);
    xfers_.release(x);  // recycle before the caller issues its next access
    done();
    return;
  }
  const VirtAddr va = x->va + x->pos;
  const u64 to_page_end = page_bytes_ - (va & (page_bytes_ - 1));
  const u32 chunk =
      static_cast<u32>(std::min<u64>({to_page_end, x->size - x->pos, max_chunk_}));
  const u64 off = x->pos;
  x->pos += chunk;
  issue(x, va, off, chunk);
}

}  // namespace vmsls::hwt
