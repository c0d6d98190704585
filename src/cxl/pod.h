// CxlPod: a rack-scale unit of hosts connected to a CXL memory pool
// (paper §3). Builds the full fabric: per-host local DRAM windows, MHDs,
// one CXL link per (host, MHD) pair — the dense MHD topology in which every
// host reaches every MHD, giving λ = #MHDs redundant capacity paths — and
// the shared address map everything resolves through.
#ifndef SRC_CXL_POD_H_
#define SRC_CXL_POD_H_

#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/cxl/host_adapter.h"
#include "src/cxl/link.h"
#include "src/cxl/pool.h"
#include "src/mem/address_map.h"
#include "src/mem/backend.h"
#include "src/netsim/fault_plane.h"
#include "src/obs/obs.h"
#include "src/sim/event_loop.h"

namespace cxlpool::cxl {

struct CxlPodConfig {
  int num_hosts = 4;
  int num_mhds = 2;
  uint64_t mhd_capacity = 64 * kMiB;
  uint64_t dram_per_host = 64 * kMiB;
  LinkSpec link;  // default PCIe-5.0 x8 per (host, MHD) link
  CxlTiming timing;
  size_t cache_lines_per_host = 128 * 1024;  // 8 MiB of cached CXL lines
  // Seed for the message-fabric fault plane's per-frame loss draws.
  uint64_t fault_plane_seed = 0x9E3779B97F4A7C15ULL;
  // The observability bundle behind every host's metrics(), tracer() and
  // FlightNote(): components count into its registry, trace with its
  // tracer and note into its flight recorder. Null: the pod counts into a
  // registry of its own, and tracing and flight notes are off. A rack
  // built with an obs::Observability passes it here.
  obs::Observability* obs = nullptr;
};

class CxlPod {
 public:
  CxlPod(sim::EventLoop& loop, const CxlPodConfig& config);
  CxlPod(const CxlPod&) = delete;
  CxlPod& operator=(const CxlPod&) = delete;

  sim::EventLoop& loop() { return loop_; }
  mem::AddressMap& address_map() { return map_; }
  CxlPool& pool() { return *pool_; }
  const CxlPodConfig& config() const { return config_; }
  // The pod's metrics registry (CxlPodConfig::obs's, or its own).
  obs::Registry& metrics() { return *metrics_; }
  // CxlPodConfig::obs (null when the pod has none).
  obs::Observability* obs() const { return config_.obs; }

  int host_count() const { return static_cast<int>(hosts_.size()); }
  HostAdapter& host(int i) { return *hosts_.at(i); }
  HostAdapter& host(HostId id) { return *hosts_.at(id.value()); }

  // The link host `h` uses to reach MHD `m`, or nullptr.
  CxlLink* link(HostId h, MhdId m) { return host(h).LinkTo(m); }

  // --- Failure injection (E6 and topology tests) ---
  void FailMhd(MhdId m) { pool_->mhd(m).set_failed(true); }
  void RepairMhd(MhdId m) { pool_->mhd(m).set_failed(false); }
  void FailLink(HostId h, MhdId m);
  void RepairLink(HostId h, MhdId m);

  // Host crash (§5 fault model): severs every CXL link of `h`, marks the
  // adapter crashed (all its memory traffic fails), and fails every PCIe
  // device attached to it (via the adapter's crash listeners). The host's
  // agent loops go dormant and its RPC servers abort; the orchestrator's
  // liveness sweep notices the missing heartbeats. RepairHost reverses all
  // of it — the rebooted host re-registers through its next report.
  void FailHost(HostId h);
  void RepairHost(HostId h);
  bool HostCrashed(HostId h) const { return hosts_.at(h.value())->crashed(); }

  // Message-fabric partition/loss model (ISSUE 9). Every msg channel
  // created over this pod's hosts consults it per consumed frame:
  // FaultPlane::Cut / Partition / SetLossy sever or degrade host-to-host
  // messaging (reports, control RPCs, forwarded MMIO, peer probes) while
  // leaving raw pool memory traffic intact — the "partitioned but alive"
  // regime a probe-only liveness sweep misclassifies as death.
  netsim::FaultPlane& fault_plane() { return fault_plane_; }

  // Media RAS injection (§5 gray failures): marks the 64B line backing pool
  // address `addr` poisoned — subsequent loads / DMA reads of the line
  // return kDataLoss until a full-line write (e.g. scrubber repair) clears
  // it. CHECK-fails on unmapped addresses (injector bug, not a sim event).
  void PoisonLine(uint64_t addr);
  void ClearPoison(uint64_t addr);
  bool LinePoisoned(uint64_t addr) const {
    return map_.RangePoisoned(addr, 1);
  }
  // Poisoned lines across all MHD media, for end-of-storm assertions.
  size_t PoisonedLineCount() const;

  // Number of healthy, distinct paths from host `h` into pool capacity
  // (healthy links to healthy MHDs) — the λ redundancy of §5.
  int HealthyPaths(HostId h) const;

  // --- Coherence-protocol checking (opt-in; see analysis::CoherenceChecker) ---
  // Attaches `obs` to every host adapter (nullptr detaches). With no
  // observer the instrumentation costs one branch per touched line.
  void SetCoherenceObserver(CoherenceObserver* obs);

  // Dirty pool lines destroyed without a writeback, summed over all hosts.
  // Nonzero on a fault-free run means the code under test broke the
  // software coherence protocol — benches and examples assert zero.
  uint64_t TotalLostDirtyLines() const;

 private:
  sim::EventLoop& loop_;
  CxlPodConfig config_;
  obs::Registry own_metrics_;
  obs::Registry* metrics_;
  mem::AddressMap map_;
  std::unique_ptr<CxlPool> pool_;
  std::vector<std::unique_ptr<mem::MemoryBackend>> dram_;
  std::vector<std::unique_ptr<HostAdapter>> hosts_;
  std::vector<std::unique_ptr<CxlLink>> links_;
  netsim::FaultPlane fault_plane_;
};

}  // namespace cxlpool::cxl

#endif  // SRC_CXL_POD_H_
