#include "src/devices/accel.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::devices {

using msg::wire::GetU32;
using msg::wire::GetU64;
using msg::wire::PutU16;
using msg::wire::PutU64;

Accelerator::Accelerator(PcieDeviceId id, std::string name, sim::EventLoop& loop,
                         AccelConfig config)
    : pcie::PcieDevice(id, std::move(name), loop, config.pcie_link,
                       config.pcie_timing),
      config_(config),
      engines_(std::make_unique<sim::Semaphore>(loop, config.engines)),
      kick_(loop) {}

double Accelerator::EngineUtilization() const {
  Nanos now = const_cast<Accelerator*>(this)->loop().now();
  return windowed_util_.Update(now, busy_ns_, static_cast<double>(config_.engines));
}

Result<int> Accelerator::AllocateQueuePair() {
  for (int q = 0; q < kAccelMaxQp; ++q) {
    if (!qps_[q].allocated) {
      qps_[q].allocated = true;
      return q;
    }
  }
  return ResourceExhausted("accelerator out of queue pairs");
}

void Accelerator::ReleaseQueuePair(int qp) {
  CXLPOOL_CHECK(qp >= 0 && qp < kAccelMaxQp);
  qps_[qp] = QueuePair{};
}

void Accelerator::OnMmioWrite(uint64_t reg, uint64_t value) {
  int qp = static_cast<int>(reg / kAccelQpStride);
  if (qp >= kAccelMaxQp) {
    return;
  }
  QueuePair& q = qps_[qp];
  switch (reg % kAccelQpStride) {
    case kAccelRegReset:
      q.sq_tail = q.sq_head = 0;
      q.completions = 0;
      break;
    case kAccelRegSqBase:
      q.sq_base = value;
      break;
    case kAccelRegSqSize:
      q.sq_size = value;
      break;
    case kAccelRegSqDoorbell:
      if (value > q.sq_tail) {
        q.sq_tail = value;
        kick_.Set();
      }
      break;
    case kAccelRegCqBase:
      q.cq_base = value;
      break;
    default:
      break;
  }
}

uint64_t Accelerator::OnMmioRead(uint64_t reg) {
  int qp = static_cast<int>(reg / kAccelQpStride);
  if (qp >= kAccelMaxQp) {
    return 0;
  }
  switch (reg % kAccelQpStride) {
    case kAccelRegSqDoorbell:
      return qps_[qp].sq_tail;
    default:
      return 0;
  }
}

void Accelerator::OnAttach() {
  jobs_ = metrics().GetCounter("accel.jobs");
  bytes_in_ = metrics().GetCounter("accel.bytes_in");
  errors_ = metrics().GetCounter("accel.errors");
  sim::Spawn(Engine(generation()));
}
void Accelerator::OnDetach() { kick_.Set(); }
void Accelerator::OnFailure() { kick_.Set(); }

sim::Task<> Accelerator::Engine(uint64_t my_generation) {
  while (generation() == my_generation) {
    bool fetched = false;
    // Round-robin across queue pairs with pending submissions.
    for (int qp = 0; qp < kAccelMaxQp; ++qp) {
      QueuePair& q = qps_[qp];
      if (q.sq_size == 0 || q.sq_head >= q.sq_tail) {
        continue;
      }
      uint64_t idx = q.sq_head % q.sq_size;
      std::array<std::byte, kAccelJobSize> job;
      Status st = co_await DmaRead(q.sq_base + idx * kAccelJobSize, job);
      if (!st.ok()) {
        co_return;
      }
      ++q.sq_head;
      fetched = true;
      // Jobs execute concurrently up to the engine count.
      sim::Spawn(ExecuteJob(qp, job));
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

sim::Task<> Accelerator::ExecuteJob(int qp, std::array<std::byte, kAccelJobSize> job) {
  // Job layout: opcode u8 | pad[7] | in_addr u64 | in_len u32 | pad u32 |
  //             out_addr u64 | cookie u64
  uint8_t opcode = static_cast<uint8_t>(job[0]);
  uint64_t in_addr = GetU64(job.data() + 8);
  uint32_t in_len = GetU32(job.data() + 16);
  uint64_t out_addr = GetU64(job.data() + 24);
  uint64_t cookie = GetU64(job.data() + 32);

  if (opcode != kAccelOpXorStream || in_len == 0) {
    errors_->Inc();
    co_await WriteCompletion(qp, cookie, 1);
    co_return;
  }

  co_await engines_->Acquire();
  Nanos start = loop().now();

  std::vector<std::byte> data(in_len);
  Status st = co_await DmaRead(in_addr, data);
  if (st.ok()) {
    Nanos compute = config_.job_setup +
                    static_cast<Nanos>(std::ceil(in_len / config_.bytes_per_ns));
    co_await sim::Delay(loop(), compute);
    for (std::byte& b : data) {
      b ^= std::byte{0x5a};
    }
    st = co_await DmaWrite(out_addr, data);
  }

  busy_ns_ += loop().now() - start;
  engines_->Release();
  if (!st.ok()) {
    co_return;
  }
  jobs_->Inc();
  bytes_in_->Add(in_len);
  co_await WriteCompletion(qp, cookie, 0);
}

sim::Task<> Accelerator::WriteCompletion(int qp, uint64_t cookie, uint16_t status) {
  QueuePair& q = qps_[qp];
  if (q.cq_base == 0 || q.sq_size == 0) {
    co_return;
  }
  // Claim the CQ slot before suspending (concurrent jobs on one queue
  // pair must not collide).
  uint64_t seq = ++q.completions;
  std::array<std::byte, kAccelCplSize> cpl{};
  PutU64(cpl.data(), seq);
  PutU64(cpl.data() + 8, cookie);
  PutU16(cpl.data() + 16, status);
  uint64_t addr = q.cq_base + ((seq - 1) % q.sq_size) * kAccelCplSize;
  (void)co_await DmaWrite(addr, cpl);
}

}  // namespace cxlpool::devices
