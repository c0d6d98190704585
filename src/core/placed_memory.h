// PlacedMemory: driver data structures whose placement is a policy
// decision (local DRAM vs CXL pool), with coherence-correct accessors.
//
// Descriptor rings and completion structures shared with a DMA device
// through the non-coherent CXL pool must be published with non-temporal
// stores and consumed with HostAdapter::ReadFresh, which invalidates and
// then loads (paper §4.1). When the same structures live in local DRAM
// those fences are pure overhead. Drivers write against this interface
// and stay placement-agnostic. Both accessors pick the HostAdapter access
// and return it unstarted: the caller co_awaits it in place, and the
// caller's span must outlive that co_await.
//
// PlacedMemory owns its allocation: a pool segment returns to the pool
// when the object is destroyed. Local DRAM is bump-allocated per host and
// never returned.
#ifndef SRC_CORE_PLACED_MEMORY_H_
#define SRC_CORE_PLACED_MEMORY_H_

#include <optional>
#include <span>
#include <utility>

#include "src/common/status.h"
#include "src/cxl/host_adapter.h"

namespace cxlpool::core {

class PlacedMemory {
 public:
  // Allocates `bytes` in shared CXL pool memory when `in_cxl`, else in
  // `host`'s local DRAM.
  static Result<PlacedMemory> Allocate(cxl::HostAdapter& host, bool in_cxl,
                                       uint64_t bytes) {
    if (!in_cxl) {
      ASSIGN_OR_RETURN(uint64_t base, host.AllocateDram(bytes));
      return PlacedMemory(host, base, std::nullopt);
    }
    ASSIGN_OR_RETURN(cxl::PoolSegment segment, host.cxl_pool().Allocate(bytes));
    uint64_t base = segment.base;
    return PlacedMemory(host, base, std::move(segment));
  }

  PlacedMemory(PlacedMemory&& other) noexcept
      : host_(other.host_),
        base_(other.base_),
        segment_(std::exchange(other.segment_, std::nullopt)) {}
  PlacedMemory& operator=(PlacedMemory&&) = delete;
  ~PlacedMemory() {
    if (segment_) {
      (void)host_.cxl_pool().Free(*segment_);
    }
  }

  cxl::HostAdapter& host() { return host_; }
  // True when the memory lives in (non-coherent) CXL pool memory and is
  // shared with agents outside this host's coherence domain.
  bool sw_coherence() const { return segment_.has_value(); }
  uint64_t base() const { return base_; }

  // Makes `in` visible to DMA/other hosts at `addr`.
  cxl::HostAdapter::Access Publish(uint64_t addr, std::span<const std::byte> in) {
    if (sw_coherence()) {
      return host_.StoreNt(addr, in);
    }
    return host_.Store(addr, in);
  }

  // Reads the current pool/DRAM contents of [addr, addr+out.size()),
  // bypassing any stale cached copy.
  cxl::HostAdapter::Access ReadFresh(uint64_t addr, std::span<std::byte> out) {
    if (!sw_coherence()) {
      return host_.Load(addr, out);
    }
    return host_.ReadFresh(addr, out);
  }

 private:
  PlacedMemory(cxl::HostAdapter& host, uint64_t base,
               std::optional<cxl::PoolSegment> segment)
      : host_(host), base_(base), segment_(std::move(segment)) {}

  cxl::HostAdapter& host_;
  uint64_t base_;
  std::optional<cxl::PoolSegment> segment_;  // set iff placed in the pool
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_PLACED_MEMORY_H_
