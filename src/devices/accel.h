// Generic offload accelerator model (compression / crypto class), with
// kAccelMaxQp independent queue pairs so many hosts can share one device —
// the §5 "soft accelerator disaggregation" scenario (e.g. a 1:16
// accelerator:host ratio in a CXL pod). Jobs from all queue pairs contend
// for the same execution engines; QueuePairDevice owns the register map,
// the fetch engine and the FLR path.
//
// A job streams bytes in over DMA, transforms them at a fixed rate, and
// streams the result out. The transform is deterministic so callers can
// verify the datapath end to end.
#ifndef SRC_DEVICES_ACCEL_H_
#define SRC_DEVICES_ACCEL_H_

#include "src/devices/queue_pair_device.h"

namespace cxlpool::devices {

inline constexpr int kAccelMaxQp = 32;

// Job opcodes.
inline constexpr uint8_t kAccelOpXorStream = 1;  // out[i] = in[i] ^ 0x5a

struct AccelConfig {
  double bytes_per_ns = 25.0;   // 25 GB/s engine throughput
  Nanos job_setup = 2 * kMicrosecond;
  int engines = 1;
  cxl::LinkSpec pcie_link;
  pcie::PcieTiming pcie_timing;
};

// Counts under its device scope: accel.jobs, accel.bytes_in and
// accel.errors (malformed jobs). Utilization() is the engines' recent-window
// busy fraction.
class Accelerator : public QueuePairDevice {
 public:
  Accelerator(PcieDeviceId id, std::string name, sim::EventLoop& loop,
              AccelConfig config);

 protected:
  void OnAttach() override;
  sim::Task<Result<uint16_t>> Execute(const Command& job) override;

 private:
  AccelConfig config_;
  obs::Counter* jobs_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* errors_ = nullptr;
};

}  // namespace cxlpool::devices

#endif  // SRC_DEVICES_ACCEL_H_
