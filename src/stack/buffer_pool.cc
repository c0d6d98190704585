#include "src/stack/buffer_pool.h"

#include <algorithm>

#include "src/common/check.h"

namespace cxlpool::stack {

Result<std::unique_ptr<BufferPool>> BufferPool::Create(cxl::HostAdapter& host,
                                                       Placement placement,
                                                       uint32_t buffer_count,
                                                       uint32_t buffer_size) {
  if (buffer_count == 0 || buffer_size == 0) {
    return InvalidArgument("empty buffer pool");
  }
  // Cacheline-align buffers so no two buffers share a line (false sharing
  // across the coherence boundary would corrupt data).
  buffer_size = static_cast<uint32_t>(CachelineCeil(buffer_size));

  uint64_t bytes = static_cast<uint64_t>(buffer_count) * buffer_size;
  ASSIGN_OR_RETURN(core::PlacedMemory mem,
                   core::PlacedMemory::Allocate(host, placement == Placement::kCxlPool,
                                                bytes));
  auto pool = std::unique_ptr<BufferPool>(
      new BufferPool(std::move(mem), buffer_count, buffer_size));
  pool->free_.reserve(buffer_count);
  for (uint32_t i = 0; i < buffer_count; ++i) {
    pool->free_.push_back(pool->base() + static_cast<uint64_t>(i) * buffer_size);
  }
  return pool;
}

Result<uint64_t> BufferPool::Alloc() {
  if (free_.empty()) {
    return ResourceExhausted("buffer pool empty");
  }
  uint64_t addr = free_.back();
  free_.pop_back();
  return addr;
}

void BufferPool::Free(uint64_t addr) {
  CXLPOOL_DCHECK(addr >= base() &&
                 addr < base() + static_cast<uint64_t>(buffer_count_) * buffer_size_);
  CXLPOOL_DCHECK((addr - base()) % buffer_size_ == 0);
  free_.push_back(addr);
}

}  // namespace cxlpool::stack
