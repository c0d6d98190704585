// Generic offload accelerator model (compression / crypto class), with
// multiple independent queue pairs so many hosts can share one device —
// the §5 "soft accelerator disaggregation" scenario (e.g. a 1:16
// accelerator:host ratio in a CXL pod). Queue pair q's registers live at
// offset q * kAccelQpStride; jobs from all queue pairs contend for the
// same execution engines.
//
// A job streams bytes in over DMA, transforms them at a fixed rate, and
// streams the result out. The transform is deterministic so callers can
// verify the datapath end to end.
#ifndef SRC_DEVICES_ACCEL_H_
#define SRC_DEVICES_ACCEL_H_

#include <vector>

#include "src/pcie/device.h"
#include "src/sim/sync.h"
#include "src/sim/windowed.h"

namespace cxlpool::devices {

inline constexpr uint64_t kAccelQpStride = 0x100;
inline constexpr int kAccelMaxQp = 32;

// Per-queue-pair register offsets (add qp * kAccelQpStride).
inline constexpr uint64_t kAccelRegReset = 0x00;
inline constexpr uint64_t kAccelRegSqBase = 0x10;
inline constexpr uint64_t kAccelRegSqSize = 0x18;
inline constexpr uint64_t kAccelRegSqDoorbell = 0x20;
inline constexpr uint64_t kAccelRegCqBase = 0x28;

inline constexpr uint64_t kAccelJobSize = 64;
inline constexpr uint64_t kAccelCplSize = 64;

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
// accel.errors (malformed jobs).
class Accelerator : public pcie::PcieDevice {
 public:
  Accelerator(PcieDeviceId id, std::string name, sim::EventLoop& loop,
              AccelConfig config);

  // Recent-window engine utilization (orchestrator policy input).
  double EngineUtilization() const;
  // Total engine-busy time since construction (for offline averaging).
  Nanos busy_ns() const { return busy_ns_; }
  int engines() const { return config_.engines; }

  // Hands out queue pair indices to drivers (the orchestrator-facing
  // resource unit; a lease maps to one queue pair).
  Result<int> AllocateQueuePair();
  void ReleaseQueuePair(int qp);

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override;
  uint64_t OnMmioRead(uint64_t reg) override;
  void OnAttach() override;
  void OnDetach() override;
  void OnFailure() override;

 private:
  struct QueuePair {
    uint64_t sq_base = 0;
    uint64_t sq_size = 0;
    uint64_t sq_tail = 0;
    uint64_t sq_head = 0;
    uint64_t cq_base = 0;
    uint64_t completions = 0;
    bool allocated = false;
  };

  sim::Task<> Engine(uint64_t my_generation);
  sim::Task<> ExecuteJob(int qp, std::array<std::byte, kAccelJobSize> job);
  sim::Task<> WriteCompletion(int qp, uint64_t cookie, uint16_t status);

  AccelConfig config_;
  std::unique_ptr<sim::Semaphore> engines_;
  std::array<QueuePair, kAccelMaxQp> qps_;

  sim::Event kick_;
  Nanos busy_ns_ = 0;
  mutable sim::WindowedUtilization windowed_util_;
  obs::Counter* jobs_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* errors_ = nullptr;
};

}  // namespace cxlpool::devices

#endif  // SRC_DEVICES_ACCEL_H_
