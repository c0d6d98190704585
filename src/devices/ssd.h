// NVMe-like SSD model: one submission queue of 64 B commands, one
// completion queue of 64 B entries, a doorbell, and a flash backend with
// bounded internal parallelism (channels). Like the NIC, all queue and
// buffer addresses resolve through the global AddressMap, so the SSD can
// serve a remote host whose queues live in CXL pool memory without any
// device changes.
#ifndef SRC_DEVICES_SSD_H_
#define SRC_DEVICES_SSD_H_

#include <vector>

#include "src/pcie/device.h"
#include "src/sim/random.h"
#include "src/sim/sync.h"
#include "src/sim/windowed.h"

namespace cxlpool::devices {

inline constexpr uint64_t kSsdRegReset = 0x00;
inline constexpr uint64_t kSsdRegSqBase = 0x10;
inline constexpr uint64_t kSsdRegSqSize = 0x18;
inline constexpr uint64_t kSsdRegSqDoorbell = 0x20;
inline constexpr uint64_t kSsdRegCqBase = 0x28;
inline constexpr uint64_t kSsdRegCapacity = 0x30;  // RO

inline constexpr uint64_t kSsdCmdSize = 64;
inline constexpr uint64_t kSsdCplSize = 64;
inline constexpr uint64_t kSsdSectorSize = 512;

// Command opcodes.
inline constexpr uint8_t kSsdOpRead = 1;
inline constexpr uint8_t kSsdOpWrite = 2;

// Completion status codes.
inline constexpr uint16_t kSsdStatusOk = 0;
inline constexpr uint16_t kSsdStatusLbaOutOfRange = 1;
inline constexpr uint16_t kSsdStatusBadOpcode = 2;

struct SsdConfig {
  uint64_t capacity_bytes = 16 * kMiB;
  int channels = 4;  // internal flash parallelism
  // Flash access times (lognormal around these means).
  Nanos read_mean = 70 * kMicrosecond;
  Nanos write_mean = 20 * kMicrosecond;
  double latency_sigma = 0.25;
  uint64_t seed = 1;
  cxl::LinkSpec pcie_link;  // default x8 gen5
  pcie::PcieTiming pcie_timing;
};

// Counts under its device scope: ssd.reads / read_bytes, ssd.writes /
// write_bytes and ssd.errors (commands completed with an error status).
class Ssd : public pcie::PcieDevice {
 public:
  Ssd(PcieDeviceId id, std::string name, sim::EventLoop& loop, SsdConfig config);

  uint64_t capacity() const { return media_.size(); }

  // Utilization proxy for the orchestrator: fraction of recent time the
  // flash channels were busy.
  double ChannelUtilization() const;

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override;
  uint64_t OnMmioRead(uint64_t reg) override;
  void OnAttach() override;
  void OnDetach() override;
  void OnFailure() override;
  void OnReset() override;

 private:
  sim::Task<> Engine(uint64_t my_generation);
  sim::Task<> ExecuteCommand(std::array<std::byte, kSsdCmdSize> cmd);
  sim::Task<> WriteCompletion(uint64_t cookie, uint16_t status);

  SsdConfig config_;
  std::vector<std::byte> media_;
  sim::Rng rng_;
  std::unique_ptr<sim::Semaphore> channels_;

  uint64_t sq_base_ = 0;
  uint64_t sq_size_ = 0;
  uint64_t sq_tail_ = 0;  // doorbell
  uint64_t sq_head_ = 0;
  uint64_t cq_base_ = 0;
  uint64_t completions_ = 0;

  sim::Event kick_;
  Nanos busy_ns_ = 0;
  mutable sim::WindowedUtilization windowed_util_;
  obs::Counter* reads_ = nullptr;
  obs::Counter* writes_ = nullptr;
  obs::Counter* read_bytes_ = nullptr;
  obs::Counter* write_bytes_ = nullptr;
  obs::Counter* errors_ = nullptr;
};

}  // namespace cxlpool::devices

#endif  // SRC_DEVICES_SSD_H_
