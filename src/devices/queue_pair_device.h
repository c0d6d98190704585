// QueuePairDevice: the device half of every submission/completion-queue
// device here (the SSD and the accelerator; core::QueuePairDriver is the
// host half). It owns everything such a device does whatever its commands
// mean: a register block per queue pair, a round-robin fetch engine over
// the submission queues, the completion writer, the execution units
// (flash channels, engines) with their busy time, and the FLR path. A
// model supplies Execute, the meaning of one command.
//
// All queue and buffer addresses resolve through the global AddressMap, so
// the device serves a remote host whose rings live in CXL pool memory
// without any device changes.
//
// Queue pair q's registers live at q * kQpStride. A command is 64 B:
// opcode u8 | pad[7] | model fields (bytes 8..31) | cookie u64 | pad. A
// completion is 64 B: seq u64 | cookie u64 | status u16 | pad, where seq
// counts from 1 per queue pair and entry seq lands in CQ slot
// (seq - 1) % sq_size. Completions may be written out of order.
#ifndef SRC_DEVICES_QUEUE_PAIR_DEVICE_H_
#define SRC_DEVICES_QUEUE_PAIR_DEVICE_H_

#include <array>
#include <vector>

#include "src/pcie/device.h"
#include "src/sim/sync.h"
#include "src/sim/windowed.h"

namespace cxlpool::devices {

inline constexpr uint64_t kQpStride = 0x100;
// Register offsets within a queue pair's block.
inline constexpr uint64_t kQpRegReset = 0x00;       // W: zero the ring indices
inline constexpr uint64_t kQpRegSqBase = 0x10;
inline constexpr uint64_t kQpRegSqSize = 0x18;      // entries in SQ and CQ
inline constexpr uint64_t kQpRegSqDoorbell = 0x20;  // W: SQ tail; R: last tail
inline constexpr uint64_t kQpRegCqBase = 0x28;

inline constexpr uint64_t kQpCmdSize = 64;
inline constexpr uint64_t kQpCplSize = 64;
inline constexpr uint64_t kQpCookieOffset = 32;

class QueuePairDevice : public pcie::PcieDevice {
 public:
  using Command = std::array<std::byte, kQpCmdSize>;

  // Hands out queue pair indices to drivers (the orchestrator-facing
  // resource unit; a lease maps to one queue pair).
  Result<int> AllocateQueuePair();
  // Frees `qp` and clears its registers, so the engine stops fetching
  // from it.
  void ReleaseQueuePair(int qp);

  // Recent-window unit utilization (orchestrator policy input).
  double Utilization() const;
  // Total unit-busy time since construction (for offline averaging).
  Nanos busy_ns() const { return busy_ns_; }
  int units() const { return unit_count_; }

 protected:
  QueuePairDevice(PcieDeviceId id, std::string name, sim::EventLoop& loop,
                  cxl::LinkSpec link, pcie::PcieTiming timing, int queue_pairs,
                  int units);

  // Runs one fetched command and returns its completion status. The part
  // that occupies the device runs between AcquireUnit and ReleaseUnit;
  // commands run concurrently up to the unit count. An error means the
  // host went away mid-command: no completion is written.
  virtual sim::Task<Result<uint16_t>> Execute(const Command& cmd) = 0;
  sim::Task<> AcquireUnit() { return units_.Acquire(); }
  // Releases a unit held since `held_since`, charging that time as busy.
  void ReleaseUnit(Nanos held_since);

  // Spawns the fetch engine; a model looks up its counters first.
  void OnAttach() override;

 private:
  struct QueuePair {
    bool allocated = false;
    uint64_t sq_base = 0;
    uint64_t sq_size = 0;
    uint64_t sq_tail = 0;  // doorbell
    uint64_t sq_head = 0;
    uint64_t cq_base = 0;
    uint64_t completions = 0;
  };

  void OnMmioWrite(uint64_t reg, uint64_t value) override;
  uint64_t OnMmioRead(uint64_t reg) override;
  void OnDetach() override;
  void OnFailure() override;
  // FLR: every queue pair comes up clean and the engine respawns.
  // Allocations survive; drivers reprogram their queue pairs (Rebind).
  void OnReset() override;

  sim::Task<> Engine(uint64_t my_generation);
  // Executes one command and writes its completion.
  sim::Task<> Run(int qp, Command cmd);

  std::vector<QueuePair> qps_;
  int unit_count_;
  sim::Semaphore units_;
  sim::Event kick_;
  Nanos busy_ns_ = 0;
  mutable sim::WindowedUtilization windowed_util_;
};

}  // namespace cxlpool::devices

#endif  // SRC_DEVICES_QUEUE_PAIR_DEVICE_H_
