#include "src/core/rack.h"

#include <string>

#include "src/common/check.h"

namespace cxlpool::core {

Rack::Rack(sim::EventLoop& loop, const RackConfig& config)
    : loop_(loop), config_(config) {
  if (config_.pod.obs == nullptr) {
    config_.pod.obs = config_.obs;
  }
  pod_ = std::make_unique<cxl::CxlPod>(loop, config_.pod);
  network_ = std::make_unique<netsim::Network>(loop, config_.net);
  // Fabric frames ride the same fault plane as the pod: link-class faults
  // (drop/dup/delay) apply to any frame whose endpoints map to hosts.
  network_->BindFaultPlane(&pod_->fault_plane());
  orchestrator_ = std::make_unique<Orchestrator>(
      *pod_, HostId(config_.orchestrator_home), config_.orch);

  for (int h = 0; h < pod_->host_count(); ++h) {
    CXLPOOL_CHECK_OK(orchestrator_->AddAgent(pod_->host(h)).status());
  }

  uint32_t next_device = 0;
  for (int h = 0; h < pod_->host_count(); ++h) {
    for (int n = 0; n < config_.nics_per_host; ++n) {
      auto nic = std::make_unique<devices::Nic>(
          PcieDeviceId(next_device),
          "nic" + std::to_string(next_device), loop, config_.nic);
      ++next_device;
      nic->AttachTo(&pod_->host(h));
      netsim::MacAddr mac = kMacBase + nics_.size();
      CXLPOOL_CHECK_OK(nic->ConnectNetwork(network_.get(), mac));
      network_->SetMacHost(mac, HostId(h));
      devices::Nic* raw = nic.get();
      orchestrator_->RegisterDevice(HostId(h), raw, DeviceType::kNic,
                                    [raw] { return raw->WireUtilization(); });
      nics_.push_back(std::move(nic));
    }
    for (int s = 0; s < config_.ssds_per_host; ++s) {
      devices::SsdConfig ssd_config = config_.ssd;
      ssd_config.seed = config_.ssd.seed + next_device;
      auto ssd = std::make_unique<devices::Ssd>(
          PcieDeviceId(next_device),
          "ssd" + std::to_string(next_device), loop, ssd_config);
      ++next_device;
      ssd->AttachTo(&pod_->host(h));
      devices::Ssd* raw = ssd.get();
      orchestrator_->RegisterDevice(HostId(h), raw, DeviceType::kSsd,
                                    [raw] { return raw->Utilization(); });
      ssds_.push_back(std::move(ssd));
    }
  }
  for (int a = 0; a < config_.accels; ++a) {
    auto accel = std::make_unique<devices::Accelerator>(
        PcieDeviceId(next_device), "accel" + std::to_string(next_device), loop,
        config_.accel);
    ++next_device;
    accel->AttachTo(&pod_->host(config_.accel_home));
    devices::Accelerator* raw = accel.get();
    orchestrator_->RegisterDevice(HostId(config_.accel_home), raw,
                                  DeviceType::kAccel,
                                  [raw] { return raw->Utilization(); });
    accels_.push_back(std::move(accel));
  }
}

Rack::~Rack() { stop_.Stop(); }

devices::Nic* Rack::nic(PcieDeviceId id) {
  for (auto& nic : nics_) {
    if (nic->id() == id) {
      return nic.get();
    }
  }
  return nullptr;
}

Result<Rack::Lease> Rack::AcquireDevice(HostId user, DeviceType type) {
  ASSIGN_OR_RETURN(Orchestrator::Assignment assignment,
                   orchestrator_->Acquire(user, type));
  ASSIGN_OR_RETURN(std::unique_ptr<MmioPath> mmio,
                   orchestrator_->MakeMmioPath(user, assignment.device));
  return Lease{assignment, std::move(mmio)};
}

sim::Task<Result<Rack::VirtualNicHandle>> Rack::CreateVirtualNic(
    HostId user, VirtualNic::Config config) {
  auto lease = AcquireDevice(user, DeviceType::kNic);
  if (!lease.ok()) {
    co_return lease.status();
  }
  auto vnic = co_await VirtualNic::Create(pod_->host(user),
                                          std::move(lease->mmio), config);
  if (!vnic.ok()) {
    co_return vnic.status();
  }
  VirtualNicHandle handle;
  handle.vnic = std::move(*vnic);
  handle.assignment = lease->assignment;
  devices::Nic* physical = nic(lease->assignment.device);
  handle.mac = physical != nullptr ? physical->mac() : 0;
  co_return std::move(handle);
}

}  // namespace cxlpool::core
