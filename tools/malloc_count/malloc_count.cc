// LD_PRELOAD malloc counter. Counts every malloc() call the process makes
// and, at exit, writes the total to the file named by $MALLOC_COUNT_OUT
// (stderr if unset). libstdc++'s operator new allocates through malloc,
// so coroutine frames, std::function boxes and container nodes are all
// counted. tools/count_allocs.py builds this, runs a bench under it and
// divides by the bench's executed events; to use it by hand:
//
//   c++ -O2 -shared -fPIC -o malloc_count.so tools/malloc_count/malloc_count.cc
//   MALLOC_COUNT_OUT=mallocs.txt LD_PRELOAD=$PWD/malloc_count.so \
//       ./build/bench/kv_soak --short
//
// The counter adds one relaxed atomic increment per call and forwards to
// glibc's allocator, so allocation behaviour is otherwise unchanged.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

extern "C" void* __libc_malloc(size_t size);

namespace {

std::atomic<uint64_t> g_mallocs{0};

__attribute__((destructor)) void Report() {
  char line[32];
  int n = std::snprintf(line, sizeof line, "%llu\n",
                        static_cast<unsigned long long>(g_mallocs.load()));
  const char* path = std::getenv("MALLOC_COUNT_OUT");
  int fd = path != nullptr ? open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644) : 2;
  if (fd < 0) {
    return;
  }
  ssize_t written = write(fd, line, static_cast<size_t>(n));
  (void)written;
  if (fd != 2) {
    close(fd);
  }
}

}  // namespace

extern "C" void* malloc(size_t size) {
  g_mallocs.fetch_add(1, std::memory_order_relaxed);
  return __libc_malloc(size);
}
