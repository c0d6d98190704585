// Highly-available pool memory (paper §5 "Highly-available CXL pods").
//
// MHD-based pods offer λ redundant paths: dense topologies place λ copies
// of critical state on distinct MHDs so that the failure of any device or
// link leaves the data reachable. This is the software half of that story:
// a ReplicatedRegion writes every replica (posted nt-stores, so the extra
// copies ride in parallel) and reads from the first healthy replica.
//
// Media RAS closes the loop: every full-line Publish records a per-64B-line
// checksum, and a background scrubber (ScrubLoop) sweeps the replicas,
// detecting poisoned or divergent lines and repairing them from a healthy
// copy. Scrub repairs are full-line nt-stores, which also clear the poison
// on the repaired media line (fresh ECC).
//
// Intended for control-plane state that must survive MHD failures — e.g.
// orchestrator metadata or channel bootstrap blocks — not for bulk I/O
// buffers (a lost RX buffer is retransmitted; lost orchestrator state is
// an outage).
#ifndef SRC_CXL_REPLICATION_H_
#define SRC_CXL_REPLICATION_H_

#include <vector>

#include "src/common/status.h"
#include "src/cxl/host_adapter.h"
#include "src/cxl/pool.h"
#include "src/obs/registry.h"
#include "src/sim/poll.h"

namespace cxlpool::cxl {

class ReplicatedRegion {
 public:
  // Allocates `size` bytes on `replicas` DISTINCT healthy MHDs. Fails if
  // the pool has fewer healthy MHDs than requested (λ cannot exceed the
  // pod's path redundancy). Counts under `scope` (callers name the region
  // there, e.g. {"region": "control-plane"}):
  //   replication.publishes
  //   replication.degraded_writes  >= 1 replica was unreachable
  //   replication.failover_reads   primary unreachable, a replica served
  //   scrub.lines_scrubbed         lines swept (once per line per sweep)
  //   scrub.repairs                bad replica copies repaired from a
  //                                healthy one
  //   scrub.unrecoverable          poison seen but no healthy copy matched
  //                                (transient unavailability is not: the
  //                                next sweep retries)
  //   scrub.conflicts              no healthy replica matched the published
  //                                checksum (or, with none on record,
  //                                healthy replicas disagreed): every copy
  //                                diverged, e.g. both sides of a partition
  //                                scribbled. The scrubber converges them on
  //                                a DETERMINISTIC winner — the lowest
  //                                healthy replica index — and flags the
  //                                line here; it never byte-merges.
  static Result<ReplicatedRegion> Create(CxlPool& pool, uint64_t size,
                                         int replicas, const obs::Scope& scope);

  // Writes `in` at offset to EVERY replica. Posted writes overlap, so the
  // latency cost over a single write is one extra link serialization, not
  // λ× the commit latency. Fails only if ALL replicas are unreachable;
  // partially-failed writes count in replication.degraded_writes.
  sim::Task<Status> Publish(HostAdapter& host, uint64_t offset,
                            std::span<const std::byte> in);

  // Reads from the first reachable replica (primary first) with
  // HostAdapter::ReadFresh, like any cross-host consume.
  sim::Task<Status> ReadFresh(HostAdapter& host, uint64_t offset,
                              std::span<std::byte> out);

  // --- Background scrubber ---
  // One full sweep: reads every 64B line from every replica, detects
  // poison (kDataLoss) and divergence (checksum / cross-replica mismatch),
  // and repairs bad replicas from a healthy copy via full-line nt-stores.
  // A line with no healthy copy at all counts as scrub_unrecoverable and
  // is retried on the next sweep (the outage may be transient).
  sim::Task<Status> ScrubOnce(HostAdapter& host);

  // Periodic sweep driver. Spawn with sim::Spawn; stops when `stop` fires.
  // The region must NOT be moved while the loop is running (the coroutine
  // holds `this`).
  sim::Task<> ScrubLoop(HostAdapter& host, Nanos interval,
                        sim::StopToken& stop);

  uint64_t size() const { return size_; }
  int replicas() const { return static_cast<int>(segments_.size()); }
  const PoolSegment& segment(int i) const { return segments_.at(i); }

 private:
  ReplicatedRegion() = default;

  // Number of 64B lines the scrubber sweeps (covers all of size_; the
  // allocator's 4 KiB rounding guarantees full-line access stays in
  // bounds even when size_ is not line-aligned).
  uint64_t LineCount() const;

  uint64_t size_ = 0;
  std::vector<PoolSegment> segments_;
  // Per-line FNV-1a checksum of the last fully-covering Publish; the
  // parallel `known` flag is false for lines never published whole (a
  // partial publish invalidates the line's checksum).
  std::vector<uint64_t> line_checksums_;
  std::vector<uint8_t> checksum_known_;
  obs::Counter* publishes_ = nullptr;
  obs::Counter* degraded_writes_ = nullptr;
  obs::Counter* failover_reads_ = nullptr;
  obs::Counter* lines_scrubbed_ = nullptr;
  obs::Counter* scrub_repairs_ = nullptr;
  obs::Counter* scrub_unrecoverable_ = nullptr;
  obs::Counter* scrub_conflicts_ = nullptr;
};

}  // namespace cxlpool::cxl

#endif  // SRC_CXL_REPLICATION_H_
