// Fixed-size I/O buffer pool with pluggable placement — the experimental
// knob of Figure 3. The paper modifies Junction to allocate TX/RX buffers
// from the CXL memory pool instead of local memory; here the same stack
// code runs against either placement and the PlacedMemory accessors apply
// software coherence exactly when the placement demands it.
#ifndef SRC_STACK_BUFFER_POOL_H_
#define SRC_STACK_BUFFER_POOL_H_

#include <memory>
#include <vector>

#include "src/core/placed_memory.h"

namespace cxlpool::stack {

enum class Placement : uint8_t {
  kLocalDram,
  kCxlPool,
};

class BufferPool {
 public:
  static Result<std::unique_ptr<BufferPool>> Create(cxl::HostAdapter& host,
                                                    Placement placement,
                                                    uint32_t buffer_count,
                                                    uint32_t buffer_size);

  // Pops a free buffer; kResourceExhausted when empty.
  Result<uint64_t> Alloc();
  void Free(uint64_t addr);

  uint32_t buffer_size() const { return buffer_size_; }
  size_t available() const { return free_.size(); }
  size_t capacity() const { return buffer_count_; }
  // Base address of the backing region; buffer i lives at
  // base() + i * buffer_size(). Chaos harnesses use this to aim media
  // faults (line poison) at live value buffers.
  uint64_t base() const { return mem_.base(); }

  // Coherence-correct accessors for buffer contents.
  core::PlacedMemory& memory() { return mem_; }

 private:
  BufferPool(core::PlacedMemory mem, uint32_t buffer_count, uint32_t buffer_size)
      : buffer_count_(buffer_count), buffer_size_(buffer_size), mem_(std::move(mem)) {}

  uint32_t buffer_count_;
  uint32_t buffer_size_;
  core::PlacedMemory mem_;
  std::vector<uint64_t> free_;
};

}  // namespace cxlpool::stack

#endif  // SRC_STACK_BUFFER_POOL_H_
