// Rack: one-call assembly of a complete simulated rack — CXL pod, Ethernet
// fabric, per-host NICs/SSDs, optional shared accelerators, agents, and
// the pooling orchestrator. The examples, tests, and benchmark harnesses
// all build on this so experiment setup stays ~10 lines.
#ifndef SRC_CORE_RACK_H_
#define SRC_CORE_RACK_H_

#include <memory>
#include <vector>

#include "src/core/orchestrator.h"
#include "src/core/virtual_accel.h"
#include "src/core/virtual_nic.h"
#include "src/core/virtual_ssd.h"
#include "src/cxl/pod.h"
#include "src/devices/accel.h"
#include "src/devices/nic.h"
#include "src/devices/ssd.h"
#include "src/netsim/network.h"

namespace cxlpool::core {

struct RackConfig {
  cxl::CxlPodConfig pod;
  netsim::NetworkConfig net;
  int nics_per_host = 1;
  int ssds_per_host = 0;
  int accels = 0;           // shared accelerators, attached to accel_home
  int accel_home = 0;
  devices::NicConfig nic;
  devices::SsdConfig ssd;
  devices::AccelConfig accel;
  Orchestrator::Config orch;
  int orchestrator_home = 0;  // §4.2: runs on one of the pod's hosts
  // Shared observability bundle for the whole rack: it becomes the pod's
  // (pod.obs, unless that already names one), so every component of the
  // rack counts, traces and notes through it via its host.
  obs::Observability* obs = nullptr;
};

class Rack {
 public:
  // MACs are assigned as kMacBase + nic index.
  static constexpr netsim::MacAddr kMacBase = 0x100;

  Rack(sim::EventLoop& loop, const RackConfig& config);
  ~Rack();
  Rack(const Rack&) = delete;
  Rack& operator=(const Rack&) = delete;

  sim::EventLoop& loop() { return loop_; }
  cxl::CxlPod& pod() { return *pod_; }
  netsim::Network& network() { return *network_; }
  Orchestrator& orchestrator() { return *orchestrator_; }
  sim::StopToken& stop_token() { return stop_; }

  // Spawns agents' loops and the orchestrator services.
  void Start() { orchestrator_->Start(stop_); }
  // Signals every actor to wind down (drain the loop afterwards).
  void Shutdown() { stop_.Stop(); }

  int nic_count() const { return static_cast<int>(nics_.size()); }
  devices::Nic* nic(int i) { return nics_.at(i).get(); }
  devices::Nic* nic(PcieDeviceId id);
  int ssd_count() const { return static_cast<int>(ssds_.size()); }
  devices::Ssd* ssd(int i) { return ssds_.at(i).get(); }
  int accel_count() const { return static_cast<int>(accels_.size()); }
  devices::Accelerator* accel(int i) { return accels_.at(i).get(); }

  // Acquires a device through the orchestrator and opens the right MMIO
  // path for `user` in one step.
  struct Lease {
    Orchestrator::Assignment assignment;
    std::unique_ptr<MmioPath> mmio;
  };
  Result<Lease> AcquireDevice(HostId user, DeviceType type);

  // Acquire + create, the common case for NICs. The handle carries the
  // assignment so callers can wire failover and find the NIC's MAC.
  struct VirtualNicHandle {
    std::unique_ptr<VirtualNic> vnic;
    Orchestrator::Assignment assignment;
    netsim::MacAddr mac = 0;
  };
  sim::Task<Result<VirtualNicHandle>> CreateVirtualNic(HostId user,
                                                       VirtualNic::Config config);

 private:
  sim::EventLoop& loop_;
  RackConfig config_;
  std::unique_ptr<cxl::CxlPod> pod_;
  std::unique_ptr<netsim::Network> network_;
  std::unique_ptr<Orchestrator> orchestrator_;
  std::vector<std::unique_ptr<devices::Nic>> nics_;
  std::vector<std::unique_ptr<devices::Ssd>> ssds_;
  std::vector<std::unique_ptr<devices::Accelerator>> accels_;
  sim::StopToken stop_;
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_RACK_H_
