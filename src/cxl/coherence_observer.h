// Line-granular instrumentation hooks for the software coherence protocol.
//
// When an observer is attached to a HostAdapter (see CxlPod and
// analysis::CoherenceChecker), every CPU- and DMA-side operation on CXL
// pool memory emits one event per touched 64 B line, stamped with
// simulated time. Local-DRAM accesses emit nothing: that memory is
// hardware-coherent and carries no protocol obligations. With no observer
// attached the hooks cost a single null check per line — the checker is
// strictly opt-in per pod.
#ifndef SRC_CXL_COHERENCE_OBSERVER_H_
#define SRC_CXL_COHERENCE_OBSERVER_H_

#include <cstdint>
#include <string_view>

#include "src/common/ids.h"
#include "src/common/units.h"

namespace cxlpool::cxl {

// What happened to one pool line. "Publish" ops make bytes visible to
// other coherence domains; "consume" ops refresh or drop a private copy.
enum class CoherenceOp : uint8_t {
  kLoadHit,          // cached load served from this host's private copy
  kLoadMiss,         // load fetched from the pool and cached
  kStoreHit,         // cached write-back store dirtied an existing copy
  kStoreMiss,        // RFO fetch + dirty (unpublished write begins)
  kStoreNt,          // non-temporal store: publish to the pool
  kFlushWriteback,   // Flush/ReadFresh wrote a dirty line back (publish)
  kInvalidateDrop,   // clean private copy dropped (next load refetches)
  kEvictClean,       // capacity eviction of a clean copy
  kEvictWriteback,   // capacity eviction wrote a dirty line back (publish)
  kDirtyLost,        // dirty (unpublished) copy destroyed without writeback
  kDmaReadHit,       // device DMA read served from this host's dirty cache
  kDmaReadMiss,      // device DMA read served from pool media
  kDmaWrite,         // device DMA write: publish via this host's root complex
};

std::string_view CoherenceOpName(CoherenceOp op);

struct CoherenceEvent {
  HostId host;        // the coherence domain issuing the access
  CoherenceOp op;
  uint64_t line_addr; // 64 B aligned pool address
  Nanos time;         // simulated time of the access
};

class CoherenceObserver {
 public:
  virtual ~CoherenceObserver() = default;

  // One pool line was touched. Called synchronously from the adapter.
  virtual void OnLineEvent(const CoherenceEvent& ev) = 0;

  // `host` announced [addr, addr+len) ready for other agents — a doorbell
  // ring, RPC send, or ownership transfer that references the region. At
  // this moment the region must contain no unpublished (dirty cached)
  // lines belonging to `host`.
  virtual void OnHandoff(HostId host, uint64_t addr, uint64_t len,
                         std::string_view what, Nanos time) = 0;
};

}  // namespace cxlpool::cxl

#endif  // SRC_CXL_COHERENCE_OBSERVER_H_
