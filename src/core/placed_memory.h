// PlacedMemory: coherence-correct accessors for driver data structures
// whose placement is a policy decision (local DRAM vs CXL pool).
//
// Descriptor rings and completion structures shared with a DMA device
// through the non-coherent CXL pool must be published with non-temporal
// stores and consumed with HostAdapter::ReadFresh, which invalidates and
// then loads (paper §4.1). When the same structures live in local DRAM
// those fences are pure overhead. Drivers write against this interface
// and stay placement-agnostic.
#ifndef SRC_CORE_PLACED_MEMORY_H_
#define SRC_CORE_PLACED_MEMORY_H_

#include <span>

#include "src/common/status.h"
#include "src/cxl/host_adapter.h"
#include "src/sim/task.h"

namespace cxlpool::core {

class PlacedMemory {
 public:
  // `sw_coherence` is true when the region lives in (non-coherent) CXL
  // pool memory and is shared with agents outside this host's coherence
  // domain.
  PlacedMemory(cxl::HostAdapter& host, bool sw_coherence)
      : host_(host), sw_coherence_(sw_coherence) {}

  cxl::HostAdapter& host() { return host_; }
  bool sw_coherence() const { return sw_coherence_; }

  // Makes `in` visible to DMA/other hosts at `addr`.
  sim::Task<Status> Publish(uint64_t addr, std::span<const std::byte> in) {
    if (sw_coherence_) {
      return host_.StoreNt(addr, in);
    }
    return host_.Store(addr, in);
  }

  // Reads the current pool/DRAM contents of [addr, addr+out.size()),
  // bypassing any stale cached copy.
  sim::Task<Status> ReadFresh(uint64_t addr, std::span<std::byte> out) {
    if (!sw_coherence_) {
      return host_.Load(addr, out);
    }
    return host_.ReadFresh(addr, out);
  }

 private:
  cxl::HostAdapter& host_;
  bool sw_coherence_;
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_PLACED_MEMORY_H_
