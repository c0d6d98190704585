#include "src/devices/queue_pair_device.h"

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::devices {

using msg::wire::GetU64;
using msg::wire::PutU16;
using msg::wire::PutU64;

QueuePairDevice::QueuePairDevice(PcieDeviceId id, std::string name,
                                 sim::EventLoop& loop, cxl::LinkSpec link,
                                 pcie::PcieTiming timing, int queue_pairs,
                                 int units)
    : pcie::PcieDevice(id, std::move(name), loop, link, timing),
      qps_(queue_pairs),
      unit_count_(units),
      units_(loop, units),
      kick_(loop) {}

Result<int> QueuePairDevice::AllocateQueuePair() {
  for (int q = 0; q < static_cast<int>(qps_.size()); ++q) {
    if (!qps_[q].allocated) {
      qps_[q].allocated = true;
      return q;
    }
  }
  return ResourceExhausted(name() + " out of queue pairs");
}

void QueuePairDevice::ReleaseQueuePair(int qp) {
  CXLPOOL_CHECK(qp >= 0 && qp < static_cast<int>(qps_.size()));
  qps_[qp] = QueuePair{};
}

double QueuePairDevice::Utilization() const {
  Nanos now = const_cast<QueuePairDevice*>(this)->loop().now();
  return windowed_util_.Update(now, busy_ns_, static_cast<double>(unit_count_));
}

void QueuePairDevice::ReleaseUnit(Nanos held_since) {
  busy_ns_ += loop().now() - held_since;
  units_.Release();
}

void QueuePairDevice::OnMmioWrite(uint64_t reg, uint64_t value) {
  uint64_t qp = reg / kQpStride;
  if (qp >= qps_.size()) {
    return;
  }
  QueuePair& q = qps_[qp];
  switch (reg % kQpStride) {
    case kQpRegReset:
      q.sq_tail = q.sq_head = 0;
      q.completions = 0;
      break;
    case kQpRegSqBase:
      q.sq_base = value;
      break;
    case kQpRegSqSize:
      q.sq_size = value;
      break;
    case kQpRegSqDoorbell:
      if (value > q.sq_tail) {
        q.sq_tail = value;
        kick_.Set();
      }
      break;
    case kQpRegCqBase:
      q.cq_base = value;
      break;
    default:
      break;
  }
}

uint64_t QueuePairDevice::OnMmioRead(uint64_t reg) {
  uint64_t qp = reg / kQpStride;
  if (qp >= qps_.size() || reg % kQpStride != kQpRegSqDoorbell) {
    return 0;
  }
  return qps_[qp].sq_tail;
}

void QueuePairDevice::OnAttach() { sim::Spawn(Engine(generation())); }
void QueuePairDevice::OnDetach() { kick_.Set(); }
void QueuePairDevice::OnFailure() { kick_.Set(); }

void QueuePairDevice::OnReset() {
  // Wake the old engine so it observes the generation bump and exits.
  kick_.Set();
  // Queue state comes up clean, as after a real FLR; a driver must
  // reprogram its SQ/CQ bases before the device runs its commands again.
  for (QueuePair& q : qps_) {
    q = QueuePair{.allocated = q.allocated};
  }
  if (attached()) {
    sim::Spawn(Engine(generation()));
  }
}

sim::Task<> QueuePairDevice::Engine(uint64_t my_generation) {
  while (generation() == my_generation) {
    bool fetched = false;
    // Round-robin: at most one command per queue pair per pass.
    for (int qp = 0; qp < static_cast<int>(qps_.size()); ++qp) {
      QueuePair& q = qps_[qp];
      if (q.sq_size == 0 || q.sq_head >= q.sq_tail) {
        continue;
      }
      Command cmd;
      Status st = co_await DmaRead(q.sq_base + (q.sq_head % q.sq_size) * kQpCmdSize, cmd);
      if (!st.ok()) {
        co_return;
      }
      ++q.sq_head;
      fetched = true;
      // Commands run concurrently up to the unit count; completions may
      // be written out of order (as on real NVMe).
      sim::Spawn(Run(qp, cmd));
      if (generation() != my_generation) {
        co_return;
      }
    }
    if (!fetched) {
      co_await kick_.Wait();
      kick_.Reset();
    }
  }
}

sim::Task<> QueuePairDevice::Run(int qp, Command cmd) {
  Result<uint16_t> status = co_await Execute(cmd);
  QueuePair& q = qps_[qp];
  if (!status.ok() || q.cq_base == 0 || q.sq_size == 0) {
    co_return;  // the host went away, or the queue pair was reset or released
  }
  // Claim the sequence number (and thus the CQ slot) BEFORE suspending:
  // commands complete concurrently and two in-flight completions must
  // never target the same slot.
  uint64_t seq = ++q.completions;
  std::array<std::byte, kQpCplSize> cpl{};
  PutU64(cpl.data(), seq);
  PutU64(cpl.data() + 8, GetU64(cmd.data() + kQpCookieOffset));
  PutU16(cpl.data() + 16, *status);
  (void)co_await DmaWrite(q.cq_base + ((seq - 1) % q.sq_size) * kQpCplSize, cpl);
}

}  // namespace cxlpool::devices
