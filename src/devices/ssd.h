// NVMe-like SSD model: one queue pair of 64 B commands and 64 B
// completions (QueuePairDevice's register map, engine and FLR path) over a
// flash backend with bounded internal parallelism (channels).
#ifndef SRC_DEVICES_SSD_H_
#define SRC_DEVICES_SSD_H_

#include "src/devices/queue_pair_device.h"
#include "src/mem/backend.h"
#include "src/sim/random.h"

namespace cxlpool::devices {

// The doorbell of the SSD's one queue pair, for callers that watch SSD
// doorbells.
inline constexpr uint64_t kSsdRegSqDoorbell = kQpRegSqDoorbell;

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
// Utilization() is the fraction of recent time the flash channels were
// busy.
class Ssd : public QueuePairDevice {
 public:
  Ssd(PcieDeviceId id, std::string name, sim::EventLoop& loop, SsdConfig config);

 protected:
  void OnAttach() override;
  sim::Task<Result<uint16_t>> Execute(const Command& cmd) override;

 private:
  SsdConfig config_;
  mem::MemoryBackend media_;  // flash
  sim::Rng rng_;

  obs::Counter* reads_ = nullptr;
  obs::Counter* writes_ = nullptr;
  obs::Counter* read_bytes_ = nullptr;
  obs::Counter* write_bytes_ = nullptr;
  obs::Counter* errors_ = nullptr;
};

}  // namespace cxlpool::devices

#endif  // SRC_DEVICES_SSD_H_
