#include "src/cxl/pod.h"

#include <string>

#include "src/common/check.h"

namespace cxlpool::cxl {

CxlPod::CxlPod(sim::EventLoop& loop, const CxlPodConfig& config)
    : loop_(loop),
      config_(config),
      metrics_(config.obs != nullptr ? &config.obs->metrics() : &own_metrics_),
      fault_plane_(config.fault_plane_seed, obs::Scope(*metrics_)) {
  CXLPOOL_CHECK(config.num_hosts > 0);
  CXLPOOL_CHECK(config.num_mhds > 0);
  CXLPOOL_CHECK(config.num_hosts <= MultiHeadedDevice::kMaxPorts);
  CXLPOOL_CHECK(config.dram_per_host <= kDramWindowStride);

  pool_ = std::make_unique<CxlPool>(loop_, map_);
  for (int m = 0; m < config.num_mhds; ++m) {
    pool_->AddMhd(config.mhd_capacity);
  }

  uint32_t next_link = 0;
  for (int h = 0; h < config.num_hosts; ++h) {
    HostId host_id(h);
    HostAdapter::Config hc;
    hc.timing = config.timing;
    hc.cache_lines = config.cache_lines_per_host;
    auto adapter = std::make_unique<HostAdapter>(host_id, loop_, map_, *pool_,
                                                 *metrics_, config.obs, hc);

    // Local DRAM window.
    auto dram = std::make_unique<mem::MemoryBackend>(
        "host" + std::to_string(h) + "-dram", config.dram_per_host);
    mem::Region region;
    region.base = kDramWindowBase + static_cast<uint64_t>(h) * kDramWindowStride;
    region.size = config.dram_per_host;
    region.kind = mem::MemoryKind::kLocalDram;
    region.dram_host = host_id;
    region.backend = dram.get();
    region.backend_offset = 0;
    CXLPOOL_CHECK_OK(map_.Register(region));
    adapter->AttachDram(region.base, region.size, config.timing.dram_bytes_per_ns);
    adapter->set_fault_plane(&fault_plane_);
    dram_.push_back(std::move(dram));

    // One CXL link to every MHD (dense topology).
    for (int m = 0; m < config.num_mhds; ++m) {
      auto link = std::make_unique<CxlLink>(CxlLinkId(next_link++), host_id,
                                            MhdId(m), config.link);
      adapter->ConnectLink(link.get());
      links_.push_back(std::move(link));
    }
    hosts_.push_back(std::move(adapter));
  }
  // Wire the Back-Invalidate snoop filter (inert until enabled on the
  // pool; see CxlPool::set_back_invalidate).
  for (auto& h : hosts_) {
    pool_->RegisterSnoopTarget(h->id(), &h->cache());
  }
}

void CxlPod::FailLink(HostId h, MhdId m) {
  CxlLink* l = link(h, m);
  CXLPOOL_CHECK(l != nullptr);
  l->set_up(false);
}

void CxlPod::RepairLink(HostId h, MhdId m) {
  CxlLink* l = link(h, m);
  CXLPOOL_CHECK(l != nullptr);
  l->set_up(true);
}

void CxlPod::FailHost(HostId h) {
  HostAdapter& adapter = *hosts_.at(h.value());
  if (adapter.crashed()) {
    return;
  }
  for (int m = 0; m < config_.num_mhds; ++m) {
    if (CxlLink* l = adapter.LinkTo(MhdId(m))) {
      l->set_up(false);
    }
  }
  adapter.SetCrashed(true);
}

void CxlPod::RepairHost(HostId h) {
  HostAdapter& adapter = *hosts_.at(h.value());
  if (!adapter.crashed()) {
    return;
  }
  // Links come back before the devices so repaired devices find a live
  // fabric immediately.
  for (int m = 0; m < config_.num_mhds; ++m) {
    if (CxlLink* l = adapter.LinkTo(MhdId(m))) {
      l->set_up(true);
    }
  }
  adapter.SetCrashed(false);
}

void CxlPod::PoisonLine(uint64_t addr) {
  CXLPOOL_CHECK_OK(map_.PoisonLine(addr));
}

void CxlPod::ClearPoison(uint64_t addr) {
  CXLPOOL_CHECK_OK(map_.ClearPoison(addr));
}

size_t CxlPod::PoisonedLineCount() const { return pool_->PoisonedLineCount(); }

void CxlPod::SetCoherenceObserver(CoherenceObserver* obs) {
  for (auto& host : hosts_) {
    host->set_coherence_observer(obs);
  }
}

uint64_t CxlPod::TotalLostDirtyLines() const {
  uint64_t total = 0;
  for (const auto& host : hosts_) {
    total += metrics_->FindCounter("host.lost_dirty_lines", host->metrics().labels())
                 ->value();
  }
  return total;
}

int CxlPod::HealthyPaths(HostId h) const {
  int paths = 0;
  const HostAdapter& adapter = *hosts_.at(h.value());
  for (size_t m = 0; m < pool_->mhd_count(); ++m) {
    MhdId mhd(static_cast<uint32_t>(m));
    if (pool_->mhd(mhd).failed()) {
      continue;
    }
    CxlLink* l = adapter.LinkTo(mhd);
    if (l != nullptr && l->up()) {
      ++paths;
    }
  }
  return paths;
}

}  // namespace cxlpool::cxl
