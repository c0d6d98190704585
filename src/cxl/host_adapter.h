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
// Every accessor returns an Access: an awaitable the caller co_awaits in
// place, with no coroutine frame. Its stages run as plain code, the first
// when it is awaited and each later one at a wake-up the event loop
// delivers, and the awaiting coroutine resumes once, when it completes.
//
// Device-side operations (DmaRead/DmaWrite) model inbound PCIe DMA through
// this host's root complex: coherent with THIS host's cache (snooped) but
// not with any other host's — which is exactly the asymmetry the paper's
// datapath is designed around.
//
// The adapter is also how a component running on this host reaches
// observability: it counts through metrics(), starts spans with tracer()
// and leaves flight-recorder notes with FlightNote(), all backed by the
// pod's obs::Observability bundle (CxlPodConfig::obs).
#ifndef SRC_CXL_HOST_ADAPTER_H_
#define SRC_CXL_HOST_ADAPTER_H_

#include <coroutine>
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
#include "src/obs/obs.h"
#include "src/sim/bandwidth.h"
#include "src/sim/event_loop.h"
#include "src/sim/random.h"

namespace cxlpool::netsim {
class FaultPlane;
}  // namespace cxlpool::netsim

namespace cxlpool::cxl {

class HostAdapter {
 public:
  // An access in flight; defined below.
  class [[nodiscard]] Access;

  struct Config {
    CxlTiming timing;
    // Cache capacity (in 64 B lines) dedicated to CXL-mapped memory.
    size_t cache_lines = 128 * 1024;  // 8 MiB
  };

  // Counts the host.* series declared with its members into `metrics` under
  // {"host": id}; the cache counts cache.* under the same scope. `obs` (the
  // pod's bundle, nullable) backs tracer() and FlightNote().
  HostAdapter(HostId id, sim::EventLoop& loop, mem::AddressMap& map, CxlPool& pool,
              obs::Registry& metrics, obs::Observability* obs, Config config);
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

  // --- CPU-side timed operations (complete in simulated time). Each is
  // lazy: it starts when awaited, and reads or fills its span then and at
  // later stages, so the span must outlive the co_await.
  // Cached load; may return stale pool bytes if another agent wrote the
  // pool since this host cached the line.
  Access Load(uint64_t addr, std::span<std::byte> out);
  // Cached write-back store; NOT visible to other hosts until flushed.
  Access Store(uint64_t addr, std::span<const std::byte> in);
  // Non-temporal store: bypasses the cache, immediately visible in the
  // pool. The publish primitive of the software coherence protocol.
  Access StoreNt(uint64_t addr, std::span<const std::byte> in);
  // clwb + fence over [addr, addr+len): writes back dirty lines, drops them.
  Access Flush(uint64_t addr, uint64_t len);
  // Self-invalidates [addr, addr+out.size()), then loads it, so the bytes
  // come from the pool rather than a stale cached copy. The consume
  // primitive of the software coherence protocol. Dirty lines are written
  // back first, like clflush; an invalidation error skips the load, and a
  // host that crashed during the invalidation fails the load.
  Access ReadFresh(uint64_t addr, std::span<std::byte> out);

  // --- Device-side (inbound PCIe DMA through this host's root complex).
  Access DmaRead(uint64_t addr, std::span<std::byte> out);
  Access DmaWrite(uint64_t addr, std::span<const std::byte> in);

  // Untimed helper for tests: direct backend read, no cache interaction.
  void PeekBackend(uint64_t addr, std::span<std::byte> out) const;

  mem::WriteBackCache& cache() { return cache_; }

  // --- Observability: the three pillars, reached the same way ---
  // This host's metrics scope ({"host": id} in the pod's registry).
  // Components running on the host (rings, RPC, stacks, devices attached
  // here) take their handles from it.
  const obs::Scope& metrics() const { return metrics_; }
  // The pod's tracer, or null when the pod has no bundle or tracing is
  // off. Hook sites pass it to obs::MaybeStartTrace / MaybeStartSpan and
  // label their spans with this host's id.
  obs::Tracer* tracer() const { return obs_ != nullptr ? obs_->tracer() : nullptr; }
  // Records one printf-style event in this host's flight-recorder ring at
  // the current sim time. No-op when the pod has no bundle.
  void FlightNote(const char* category, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

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
  // Where an access's range lives, found once when the access is issued.
  // The access keeps these pointers across its waits: regions and pool
  // segments are never unregistered, so they stay valid.
  struct Resolved {
    const mem::Region* region = nullptr;
    const PoolSegment* segment = nullptr;  // nullptr in local DRAM
  };

  // Resolves + validates a CPU or DMA access. Local DRAM must belong to
  // this host (a CPU cannot load another host's DRAM; a device cannot DMA
  // into another host's DRAM — that is precisely what requires either a
  // PCIe switch or, per this paper, the CXL pool).
  Result<Resolved> ResolveAccess(uint64_t addr, uint64_t len);
  // kUnavailable while this host is crashed.
  Status CheckAlive() const;

  // Health-checked link for the pool line at `addr` in `segment`: the MHD
  // is up and this host's link to it is connected and up.
  Result<CxlLink*> RouteLine(const PoolSegment& segment, uint64_t addr);

  // Applies the configured lognormal jitter to a CXL base latency.
  Nanos JitterCxl(Nanos base);

  // The accessors' stages are the plain helpers below.

  // Bytes per CXL link for one access (defined in the .cc).
  class LinkTally;

  enum class AccessKind : uint8_t {
    kRead,   // Load, DmaRead, ReadFresh's load: fills `out`
    kStore,  // Store, and StoreNt/DmaWrite to local DRAM: copies `in`
  };

  // The start of a load or store on a resolved range. A local DRAM access
  // is served here and completes at the returned time. A pool read or
  // cached store goes on to its lines at the returned time, once same-line
  // posted writes have committed; a posted write to the pool starts in
  // PostWrite instead.
  Result<Nanos> Begin(AccessKind kind, const Resolved& where, uint64_t addr,
                      uint64_t len, std::span<std::byte> out,
                      std::span<const std::byte> in);

  // Walks a Load (kRead) or Store (kStore) through this host's cache line
  // by line, fetching misses from pool media. Returns its completion time.
  Result<Nanos> CachedAccess(AccessKind kind, const Resolved& where, uint64_t addr,
                             uint64_t len, std::span<std::byte> out,
                             std::span<const std::byte> in);

  // DmaRead's line walk: snoops this host's cache, else reads pool media.
  // Returns its completion time.
  Result<Nanos> SnoopedRead(const Resolved& where, uint64_t addr,
                            std::span<std::byte> out);

  // When the line fetches tallied in `fetched`, all issued now, complete:
  // the later of the pipelined read latency and each link's serialization
  // plus `serial_tail`. Draws one jitter sample per link.
  Nanos FetchDone(LinkTally& fetched, Nanos serial_tail);

  // The posted write shared by StoreNt (`op` kStoreNt) and DmaWrite
  // (kDmaWrite): drops this host's cached copies, hands the bytes to the
  // pool to commit and returns when the writer may move on.
  Result<Nanos> PostWrite(CoherenceOp op, const Resolved& where, uint64_t addr,
                          std::span<const std::byte> in);

  // Takes this host's copies of [addr, addr+len) out of the cache, moving
  // dirty ones to `writebacks`, and returns when those writebacks land;
  // the issue cost is `per_line` for each touched line.
  Result<Nanos> TakeLines(const PoolSegment& segment, uint64_t addr, uint64_t len,
                          Nanos per_line,
                          std::vector<mem::WriteBackCache::EvictedLine>* writebacks);
  // Applies the writebacks TakeLines collected once they have landed.
  void WriteBack(const mem::Region& region,
                 std::span<const mem::WriteBackCache::EvictedLine> writebacks);

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
  obs::Observability* obs_;
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

// One HostAdapter access, awaited in place: `Status st = co_await
// host.Load(addr, buf);`. It has no frame of its own. Awaiting it runs its
// first stage; a stage whose start time has come runs at once, exactly
// where a coroutine's `co_await sim::WaitUntil` would not have yielded, and
// a later one is one wake-up queued on the event loop at that time. The
// awaiting coroutine is resumed from the last stage. The loop holds the
// access's address while it waits, so it is neither copied nor moved: it
// is built in place where it is returned or awaited.
class [[nodiscard]] HostAdapter::Access final : public sim::Waker {
 public:
  Access(const Access&) = delete;
  Access& operator=(const Access&) = delete;

  bool await_ready() { return Advance(); }
  void await_suspend(std::coroutine_handle<> waiter) { waiter_ = waiter; }
  Status await_resume() { return std::move(status_); }

 private:
  friend class HostAdapter;

  enum class Op : uint8_t {
    kLoad,
    kStore,
    kStoreNt,
    kFlush,
    kReadFresh,
    kDmaRead,
    kDmaWrite,
  };
  // What runs next.
  enum class Stage : uint8_t {
    kIssue,      // count, resolve, then the op's first step
    kLines,      // Load/Store/ReadFresh: the cache walk; DmaRead: the snoop
    kWriteBack,  // Flush/ReadFresh: apply the landed writebacks (a
                 // ReadFresh then starts its load)
    kDone,       // resume the awaiting coroutine
  };

  Access(HostAdapter& host, Op op, uint64_t addr, uint64_t len, std::byte* out,
         const std::byte* in)
      : host_(&host), addr_(addr), len_(len), out_(out), in_(in), op_(op) {}

  // Runs every stage whose start time has come. True when the access is
  // done; otherwise one wake-up is queued for the next stage.
  bool Advance();
  void Wake() override;
  // Runs the current stage, sets the next one and returns when it starts.
  Nanos RunStage();
  // Starts the load a Load, Store, DmaRead or ReadFresh makes: a pool
  // access goes on to kLines, a local DRAM one is done.
  Nanos StartLines(AccessKind kind);
  // Ends the access at once with `status`.
  Nanos Fail(Status status);
  std::span<std::byte> out() const { return {out_, out_ != nullptr ? len_ : 0}; }
  std::span<const std::byte> in() const { return {in_, in_ != nullptr ? len_ : 0}; }

  HostAdapter* host_;
  uint64_t addr_;
  uint64_t len_;
  std::byte* out_;       // the bytes a read fills, or nullptr
  const std::byte* in_;  // the bytes a write copies, or nullptr
  Resolved where_;
  std::coroutine_handle<> waiter_;
  Status status_;
  std::vector<mem::WriteBackCache::EvictedLine> writebacks_;
  Op op_;
  Stage stage_ = Stage::kIssue;
};

inline HostAdapter::Access HostAdapter::Load(uint64_t addr, std::span<std::byte> out) {
  return Access(*this, Access::Op::kLoad, addr, out.size(), out.data(), nullptr);
}
inline HostAdapter::Access HostAdapter::Store(uint64_t addr,
                                              std::span<const std::byte> in) {
  return Access(*this, Access::Op::kStore, addr, in.size(), nullptr, in.data());
}
inline HostAdapter::Access HostAdapter::StoreNt(uint64_t addr,
                                                std::span<const std::byte> in) {
  return Access(*this, Access::Op::kStoreNt, addr, in.size(), nullptr, in.data());
}
inline HostAdapter::Access HostAdapter::Flush(uint64_t addr, uint64_t len) {
  return Access(*this, Access::Op::kFlush, addr, len, nullptr, nullptr);
}
inline HostAdapter::Access HostAdapter::ReadFresh(uint64_t addr,
                                                  std::span<std::byte> out) {
  return Access(*this, Access::Op::kReadFresh, addr, out.size(), out.data(), nullptr);
}
inline HostAdapter::Access HostAdapter::DmaRead(uint64_t addr, std::span<std::byte> out) {
  return Access(*this, Access::Op::kDmaRead, addr, out.size(), out.data(), nullptr);
}
inline HostAdapter::Access HostAdapter::DmaWrite(uint64_t addr,
                                                 std::span<const std::byte> in) {
  return Access(*this, Access::Op::kDmaWrite, addr, in.size(), nullptr, in.data());
}

}  // namespace cxlpool::cxl

#endif  // SRC_CXL_HOST_ADAPTER_H_
