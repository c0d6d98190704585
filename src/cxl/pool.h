// CxlPool: the set of multi-headed devices plus the segment allocator that
// hands out pool memory to hosts (private segments) and to the datapath
// (shared, software-coherent segments). Also owns address routing,
// including 256 B interleaving across several MHDs' links.
#ifndef SRC_CXL_POOL_H_
#define SRC_CXL_POOL_H_

#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/cxl/mhd.h"
#include "src/cxl/params.h"
#include "src/mem/address_map.h"
#include "src/mem/cache.h"
#include "src/sim/event_loop.h"

namespace cxlpool::cxl {

// A range of pool memory handed out by Allocate*. Interleaved segments
// stripe consecutive 256 B granules across `mhds`.
struct PoolSegment {
  uint64_t base = 0;
  uint64_t size = 0;
  std::vector<MhdId> mhds;  // size 1 for non-interleaved

  bool interleaved() const { return mhds.size() > 1; }
  uint64_t end() const { return base + size; }
  // The MHD serving `addr`, which must lie in this segment: granule-accurate
  // for interleaved segments.
  MhdId MhdFor(uint64_t addr) const {
    if (!interleaved()) {
      return mhds.front();
    }
    return mhds[(addr - base) / kInterleaveGranule % mhds.size()];
  }
};

class CxlPool {
 public:
  // Registers pool regions into `map` so devices and hosts resolve pool
  // addresses through the same address space. Posted writes commit on
  // `loop`.
  CxlPool(sim::EventLoop& loop, mem::AddressMap& map) : loop_(loop), map_(map) {}
  CxlPool(const CxlPool&) = delete;
  CxlPool& operator=(const CxlPool&) = delete;

  // Adds an MHD of the given capacity; returns its id.
  MhdId AddMhd(uint64_t capacity_bytes);

  MultiHeadedDevice& mhd(MhdId id);
  const MultiHeadedDevice& mhd(MhdId id) const;
  size_t mhd_count() const { return mhds_.size(); }

  // Allocates `size` bytes on a single MHD. With no `preferred`, picks the
  // least-utilized healthy MHD (capacity-based). Sizes are rounded up to
  // 4 KiB.
  Result<PoolSegment> Allocate(uint64_t size, MhdId preferred = MhdId::Invalid());

  // Allocates `size` bytes striped across the given MHDs at the CPU
  // interleave granule (256 B). Used to aggregate link bandwidth (§3).
  Result<PoolSegment> AllocateInterleaved(uint64_t size, std::vector<MhdId> mhds);

  // Returns the segment's bytes to the utilization accounting. Address
  // space is not recycled (monotone bump allocation keeps routing simple;
  // the 1 TiB window is far larger than any experiment).
  Status Free(const PoolSegment& segment);

  // The segment containing `addr`, or nullptr if it is not pool memory.
  // Segments are never erased (Free only returns their capacity), so the
  // pointer stays valid for the pool's lifetime.
  const PoolSegment* SegmentAt(uint64_t addr) const;

  // Which MHD serves the byte at `addr` (granule-accurate for interleaved
  // segments). kNotFound if the address is not pool memory.
  Result<MhdId> RouteAddress(uint64_t addr) const;

  uint64_t used_bytes(MhdId id) const;
  uint64_t total_capacity() const;
  uint64_t total_used() const;

  // Poisoned 64B lines across all pool media (MHD media plus the dedicated
  // backends of interleaved segments). End-of-storm assertions use this to
  // prove the scrubber drained every injected poison.
  size_t PoisonedLineCount() const;

  // --- CXL 3.0 Back-Invalidate emulation (paper §3) ---
  // When enabled on a pod, the pool keeps a snoop filter of which hosts
  // cache each line; a pool write (nt-store or device DMA) back-invalidates
  // every remote cached copy, so consumers may use plain cached loads. No
  // shipping CPU or MHD supports this today — it exists here as the
  // ablation the paper contrasts software coherence against.
  void set_back_invalidate(bool enabled) { back_invalidate_ = enabled; }
  bool back_invalidate() const { return back_invalidate_; }

  // Registers a host's cache for snooping (wired by CxlPod).
  void RegisterSnoopTarget(HostId host, mem::WriteBackCache* cache);
  // Records that `host` holds a copy of `line_addr`.
  void TrackCacher(uint64_t line_addr, HostId host);
  void UntrackCacher(uint64_t line_addr, HostId host);
  // Drops every remote copy of the lines in [addr, addr+len); returns the
  // number of snoop invalidations issued (each costs snoop latency at the
  // writer).
  int BackInvalidate(uint64_t addr, uint64_t len, HostId writer);

  // --- Posted writes in flight (same-address ordering) ---
  // A posted write (nt-store or device DMA) is accepted quickly but its
  // bytes reach the MHD only at its commit time. Readers of a line with a
  // pending commit are served from the controller's write buffer: they
  // complete no earlier than the commit and then observe the new data.
  // Unrelated lines are unaffected (CXL.mem has no cross-address ordering).
  //
  // Post copies `in` (bound for [addr, addr+in.size()) in `region`) and
  // schedules its one commit event. The commit time is `visible_at`, but
  // never earlier than a still-pending commit to any of the same lines, so
  // back-to-back posted writes to one address drain per-address FIFO
  // (jitter must not let an older write land after, and silently revert, a
  // newer one). Returns that ordered commit time. `region` must outlive the
  // write; regions are never unregistered.
  Nanos Post(const mem::Region& region, uint64_t addr, std::span<const std::byte> in,
             Nanos visible_at);
  // Latest pending commit time overlapping [addr, addr+len), or 0.
  Nanos PendingCommitTime(uint64_t addr, uint64_t len) const;
  // Posted writes whose bytes have not reached media yet.
  size_t inflight_writes() const { return live_writes_; }

 private:
  struct SegmentInfo {
    PoolSegment segment;
    bool freed = false;
  };

  // A posted write between its issue and its commit.
  struct PostedWrite {
    uint64_t id = 0;          // what its commit event carries
    uint64_t first_line = 0;  // [first_line, end_line): the lines it covers
    uint64_t end_line = 0;
    Nanos commit = 0;
    const mem::Region* region = nullptr;
    uint64_t addr = 0;
    std::vector<std::byte> bytes;
  };

  // The commit event of write `id`: its bytes reach media and it leaves
  // the in-flight set.
  void Land(uint64_t id);

  sim::EventLoop& loop_;
  mem::AddressMap& map_;
  std::vector<std::unique_ptr<MultiHeadedDevice>> mhds_;
  std::vector<uint64_t> mhd_used_;        // bytes allocated per MHD
  std::vector<uint64_t> mhd_bump_;        // media bump offset per MHD
  // Interleaved segments get dedicated striped backends (bytes contiguous,
  // timing routed per-granule to member MHDs' links).
  std::vector<std::unique_ptr<mem::MemoryBackend>> striped_backends_;
  std::map<uint64_t, SegmentInfo> segments_;  // keyed by base
  uint64_t next_base_ = kPoolWindowBase;
  // Posted writes in flight, in no particular order, are
  // writes_[0, live_writes_). Entries past that keep their byte storage for
  // reuse by later writes.
  std::vector<PostedWrite> writes_;
  size_t live_writes_ = 0;
  uint64_t next_write_id_ = 0;

  // Back-Invalidate snoop filter state.
  bool back_invalidate_ = false;
  std::vector<std::pair<HostId, mem::WriteBackCache*>> snoop_targets_;
  std::unordered_map<uint64_t, uint32_t> cacher_bits_;  // line -> host bitmap
};

}  // namespace cxlpool::cxl

#endif  // SRC_CXL_POOL_H_
