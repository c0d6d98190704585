// HostAdapter: one host's view of the simulated memory system.
//
// CPU-side operations (Load/Store/StoreNt/Flush/ReadFresh) route through a
// per-host write-back cache for CXL pool addresses, charging calibrated
// latency plus link-bandwidth serialization in simulated time. Pool memory
// is NOT coherent across hosts: cached loads can return stale bytes and
// dirty stores stay invisible to the pool until flushed — the software
// coherence protocol (paper §4.1) uses StoreNt to publish and ReadFresh
// (invalidate, then load) to consume.
//
// Device-side operations (DmaRead/DmaWrite) model inbound PCIe DMA through
// this host's root complex: coherent with THIS host's cache (snooped) but
// not with any other host's — which is exactly the asymmetry the paper's
// datapath is designed around.
#ifndef SRC_CXL_HOST_ADAPTER_H_
#define SRC_CXL_HOST_ADAPTER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/cxl/coherence_observer.h"
#include "src/cxl/link.h"
#include "src/cxl/params.h"
#include "src/cxl/pool.h"
#include "src/mem/address_map.h"
#include "src/mem/cache.h"
#include "src/obs/registry.h"
#include "src/sim/bandwidth.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace cxlpool::netsim {
class FaultPlane;
}  // namespace cxlpool::netsim

namespace cxlpool::cxl {

class HostAdapter {
 public:
  struct Config {
    CxlTiming timing;
    // Cache capacity (in 64 B lines) dedicated to CXL-mapped memory.
    size_t cache_lines = 128 * 1024;  // 8 MiB
  };

  // Counts the host.* series declared with its members into `metrics` under
  // {"host": id}; the cache counts cache.* under the same scope.
  HostAdapter(HostId id, sim::EventLoop& loop, mem::AddressMap& map, CxlPool& pool,
              obs::Registry& metrics, Config config);
  HostAdapter(const HostAdapter&) = delete;
  HostAdapter& operator=(const HostAdapter&) = delete;

  HostId id() const { return id_; }
  sim::EventLoop& loop() { return loop_; }
  const CxlTiming& timing() const { return config_.timing; }

  // Wires this host's local DRAM window (created by CxlPod).
  void AttachDram(uint64_t base, uint64_t size, double bytes_per_ns);
  // Bump-allocates host-local DRAM (for local I/O buffers).
  Result<uint64_t> AllocateDram(uint64_t size);

  // Registers the CXL link this host uses to reach link->mhd().
  void ConnectLink(CxlLink* link);
  // The link to an MHD, or nullptr if not connected.
  CxlLink* LinkTo(MhdId mhd) const;

  // --- Host-crash fault model (paper §5) ---
  // A crashed host issues no memory traffic: every CPU- and DMA-side
  // operation fails with kUnavailable until the host is repaired. Crash
  // listeners fire on every transition (crashed=true on failure, false on
  // repair) in registration order — PcieDevice uses this to fail attached
  // devices together with their host. Prefer CxlPod::FailHost/RepairHost,
  // which also sever the host's CXL links.
  bool crashed() const { return crashed_; }
  void SetCrashed(bool crashed);
  void AddCrashListener(const void* key, std::function<void(bool)> fn);
  void RemoveCrashListener(const void* key);

  // --- CPU-side timed operations (coroutines; complete in simulated time).
  // Cached load; may return stale pool bytes if another agent wrote the
  // pool since this host cached the line.
  sim::Task<Status> Load(uint64_t addr, std::span<std::byte> out);
  // Cached write-back store; NOT visible to other hosts until flushed.
  sim::Task<Status> Store(uint64_t addr, std::span<const std::byte> in);
  // Non-temporal store: bypasses the cache, immediately visible in the
  // pool. The publish primitive of the software coherence protocol.
  sim::Task<Status> StoreNt(uint64_t addr, std::span<const std::byte> in);
  // clwb + fence over [addr, addr+len): writes back dirty lines, drops them.
  sim::Task<Status> Flush(uint64_t addr, uint64_t len);
  // Self-invalidates [addr, addr+out.size()), then loads it, so the bytes
  // come from the pool rather than a stale cached copy. The consume
  // primitive of the software coherence protocol. Dirty lines are written
  // back first, like clflush; an invalidation error skips the load.
  sim::Task<Status> ReadFresh(uint64_t addr, std::span<std::byte> out);

  // --- Device-side (inbound PCIe DMA through this host's root complex).
  sim::Task<Status> DmaRead(uint64_t addr, std::span<std::byte> out);
  sim::Task<Status> DmaWrite(uint64_t addr, std::span<const std::byte> in);

  // Untimed helpers for tests: direct backend access, no cache interaction.
  void PeekBackend(uint64_t addr, std::span<std::byte> out) const;
  void PokeBackend(uint64_t addr, std::span<const std::byte> in);

  mem::WriteBackCache& cache() { return cache_; }
  // This host's metrics scope ({"host": id} in the pod's registry).
  // Components running on the host (rings, RPC, stacks, devices attached
  // here) take their handles from it.
  const obs::Scope& metrics() const { return metrics_; }
  mem::AddressMap& address_map() { return map_; }
  CxlPool& cxl_pool() { return pool_; }

  // --- Coherence-protocol instrumentation (src/analysis) ---
  // When set, pool-line accesses emit CoherenceEvents; nullptr (default)
  // disables instrumentation at the cost of one branch per line.
  void set_coherence_observer(CoherenceObserver* obs) { coherence_observer_ = obs; }
  CoherenceObserver* coherence_observer() const { return coherence_observer_; }

  // --- Message-fabric fault plane (src/netsim) ---
  // Set by CxlPod: the directed per-link partition/loss model that the
  // msg ring receivers consult for host-to-host frames. Raw memory
  // traffic never goes through it. nullptr = perfectly reliable fabric.
  void set_fault_plane(netsim::FaultPlane* plane) { fault_plane_ = plane; }
  netsim::FaultPlane* fault_plane() const { return fault_plane_; }

  // Announces a software handoff of [addr, addr+len) — called by
  // messaging/driver layers at the moment a doorbell/RPC/ownership
  // transfer references the region. No-op without an observer.
  void NoteHandoff(uint64_t addr, uint64_t len, std::string_view what) {
    if (coherence_observer_ != nullptr) {
      coherence_observer_->OnHandoff(id_, addr, len, what, loop_.now());
    }
  }

 private:
  // Resolves + validates a CPU or DMA access. Local DRAM must belong to
  // this host (a CPU cannot load another host's DRAM; a device cannot DMA
  // into another host's DRAM — that is precisely what requires either a
  // PCIe switch or, per this paper, the CXL pool).
  Result<const mem::Region*> ResolveAccess(uint64_t addr, uint64_t len);

  // Health-checked link for a pool address.
  Result<CxlLink*> RouteCxl(uint64_t addr);

  // Applies the configured lognormal jitter to a CXL base latency.
  Nanos JitterCxl(Nanos base);

  // The accessors share the plain helpers below; each accessor coroutine
  // keeps only what crosses its awaits.

  // Bytes per CXL link for one access (defined in the .cc).
  class LinkTally;

  enum class AccessKind : uint8_t {
    kRead,         // Load, DmaRead, ReadFresh's load: fills `out`
    kStore,        // cached Store: copies `in`
    kPostedWrite,  // StoreNt, DmaWrite: copies `in`
    kFlush,        // Flush, ReadFresh's invalidation: moves no bytes
  };

  // The start every accessor shares. Resolves [addr, addr+len). A local
  // DRAM access is served here and completes at the returned time
  // (*in_dram is set). A pool access may go on to its lines at the
  // returned time: reads and cached stores wait there for same-line
  // posted writes to commit.
  Result<Nanos> Begin(AccessKind kind, uint64_t addr, uint64_t len,
                      std::span<std::byte> out, std::span<const std::byte> in,
                      bool* in_dram);

  // Walks a Load (kRead) or Store (kStore) through this host's cache line
  // by line, fetching misses from pool media. Returns its completion time.
  Result<Nanos> CachedAccess(AccessKind kind, uint64_t addr, uint64_t len,
                             std::span<std::byte> out, std::span<const std::byte> in);

  // DmaRead's line walk: snoops this host's cache, else reads pool media.
  // Returns its completion time.
  Result<Nanos> SnoopedRead(uint64_t addr, std::span<std::byte> out);

  // When the line fetches tallied in `fetched`, all issued now, complete:
  // the later of the pipelined read latency and each link's serialization
  // plus `serial_tail`. Draws one jitter sample per link.
  Nanos FetchDone(LinkTally& fetched, Nanos serial_tail);

  // The posted write shared by StoreNt (`op` kStoreNt) and DmaWrite
  // (kDmaWrite): drops this host's cached copies, schedules the media
  // commit and returns when the writer may move on.
  Result<Nanos> PostWrite(CoherenceOp op, uint64_t addr, std::span<const std::byte> in);

  // Takes this host's copies of [addr, addr+len) out of the cache, moving
  // dirty ones to `writebacks`, and returns when those writebacks land;
  // the issue cost is `per_line` for each touched line.
  Result<Nanos> TakeLines(uint64_t addr, uint64_t len, Nanos per_line,
                          std::vector<mem::WriteBackCache::EvictedLine>* writebacks);
  // Applies the writebacks TakeLines collected once they have landed.
  void WriteBack(std::span<const mem::WriteBackCache::EvictedLine> writebacks);

  // Writes an evicted dirty line back to the pool (async with respect to
  // the evicting operation). Drops the data if the path is unhealthy.
  void WritebackEvicted(const mem::WriteBackCache::EvictedLine& ev);

  // Emits a CoherenceEvent for one pool line if an observer is attached.
  void EmitCoherence(CoherenceOp op, uint64_t line_addr) {
    if (coherence_observer_ != nullptr) {
      coherence_observer_->OnLineEvent({id_, op, line_addr, loop_.now()});
    }
  }

  HostId id_;
  sim::EventLoop& loop_;
  mem::AddressMap& map_;
  CxlPool& pool_;
  Config config_;
  obs::Scope metrics_;
  mem::WriteBackCache cache_;

  std::vector<CxlLink*> links_;  // indexed by MHD id; may contain nullptr

  bool crashed_ = false;
  // Insertion-ordered (NOT pointer-ordered) so notification order is
  // deterministic across runs.
  std::vector<std::pair<const void*, std::function<void(bool)>>> crash_listeners_;

  CoherenceObserver* coherence_observer_ = nullptr;
  netsim::FaultPlane* fault_plane_ = nullptr;

  uint64_t dram_base_ = 0;
  uint64_t dram_size_ = 0;
  uint64_t dram_bump_ = 0;
  sim::BandwidthQueue dram_bw_;
  sim::Rng jitter_rng_;

  obs::Counter* loads_ = metrics_.GetCounter("host.loads");
  obs::Counter* load_bytes_ = metrics_.GetCounter("host.load_bytes");
  obs::Counter* stores_ = metrics_.GetCounter("host.stores");
  obs::Counter* store_bytes_ = metrics_.GetCounter("host.store_bytes");
  obs::Counter* nt_stores_ = metrics_.GetCounter("host.nt_stores");
  obs::Counter* nt_store_bytes_ = metrics_.GetCounter("host.nt_store_bytes");
  obs::Counter* flushes_ = metrics_.GetCounter("host.flushes");
  // Dirty lines a Flush or ReadFresh wrote back, counted as each lands.
  obs::Counter* flushed_dirty_lines_ = metrics_.GetCounter("host.flushed_dirty_lines");
  // ReadFresh calls; each whose invalidation succeeds also counts a load.
  obs::Counter* invalidates_ = metrics_.GetCounter("host.invalidates");
  obs::Counter* dma_reads_ = metrics_.GetCounter("host.dma_reads");
  obs::Counter* dma_writes_ = metrics_.GetCounter("host.dma_writes");
  // Dirty lines dropped because an nt-store or DMA write overwrote them or
  // a writeback target was unreachable. Nonzero values indicate a protocol
  // bug in the code under test.
  obs::Counter* lost_dirty_lines_ = metrics_.GetCounter("host.lost_dirty_lines");
  // Loads / DMA reads that hit a poisoned media line and returned kDataLoss
  // instead of bytes (media RAS, paper §5 gray failures).
  obs::Counter* poisoned_reads_ = metrics_.GetCounter("host.poisoned_reads");
};

}  // namespace cxlpool::cxl

#endif  // SRC_CXL_HOST_ADAPTER_H_
