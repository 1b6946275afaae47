/* Heap-allocation counter, loaded with LD_PRELOAD (see count_allocs.py).
 *
 * Wraps malloc, calloc, realloc and the aligned allocators (operator new
 * reaches malloc), forwards each call to glibc's own implementation, and
 * on exit writes one line to stderr:
 *
 *   [alloc_count] allocations=N
 *
 * N counts calls that return a new block: realloc counts only when it is
 * handed a null pointer. Build: cc -O2 -shared -fPIC -o alloc_count.so
 * alloc_count.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <stddef.h>
#include <stdio.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);

static unsigned long long allocations;

static void count(void) { __atomic_fetch_add(&allocations, 1, __ATOMIC_RELAXED); }

void* malloc(size_t n) {
  count();
  return __libc_malloc(n);
}

void* calloc(size_t k, size_t n) {
  count();
  return __libc_calloc(k, n);
}

void* realloc(void* p, size_t n) {
  if (p == NULL) count();
  return __libc_realloc(p, n);
}

void* memalign(size_t align, size_t n) {
  count();
  return __libc_memalign(align, n);
}

void* aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void** out, size_t align, size_t n) {
  void* p = memalign(align, n);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

__attribute__((destructor)) static void report(void) {
  char buf[64];
  const int len = snprintf(buf, sizeof buf, "[alloc_count] allocations=%llu\n",
                           __atomic_load_n(&allocations, __ATOMIC_RELAXED));
  ssize_t ignored = write(2, buf, (size_t)len);
  (void)ignored;
}
