#include "src/kv/store.h"

#include <algorithm>

#include "src/common/check.h"

namespace cxlpool::kv {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = kFnvOffset;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Releases the shard gate on every exit path of an op coroutine.
struct GateGuard {
  explicit GateGuard(sim::Semaphore* gate) : gate(gate) {}
  GateGuard(const GateGuard&) = delete;
  GateGuard& operator=(const GateGuard&) = delete;
  ~GateGuard() { gate->Release(); }
  sim::Semaphore* gate;
};

}  // namespace

Store::Store(stack::BufferPool* pool, core::VirtualSsd* ssd,
             uint64_t ssd_capacity_bytes, StoreConfig config,
             obs::Registry* registry, obs::Labels labels)
    : pool_(pool), ssd_(ssd), config_(config) {
  CXLPOOL_CHECK(config_.shards >= 1);
  sim::EventLoop& loop = pool_->memory().host().loop();
  shards_.reserve(static_cast<size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(loop));
  }
  if (ssd_ != nullptr) {
    uint64_t slot_bytes =
        static_cast<uint64_t>(SectorsPerSlot()) * devices::kSsdSectorSize;
    uint64_t slots = ssd_capacity_bytes / slot_bytes;
    free_slots_.reserve(slots);
    // LIFO pop order; push in reverse so slot 0 is handed out first.
    for (uint64_t i = slots; i-- > 0;) {
      free_slots_.push_back(i);
    }
  }
  obs::Scope scope =
      registry != nullptr ? obs::Scope(*registry, std::move(labels))
                          : pool_->memory().host().metrics().With(std::move(labels));
  resident_entries_ = scope.GetGauge("kv.resident_entries");
  spilled_entries_ = scope.GetGauge("kv.spilled_entries");
  resident_entries_->Set(0);
  spilled_entries_->Set(0);
  gets_ = scope.GetCounter("kv.gets");
  get_hits_pool_ = scope.GetCounter("kv.get_hits_pool");
  get_hits_ssd_ = scope.GetCounter("kv.get_hits_ssd");
  get_misses_ = scope.GetCounter("kv.get_misses");
  sets_ = scope.GetCounter("kv.sets");
  deletes_ = scope.GetCounter("kv.deletes");
  evictions_ = scope.GetCounter("kv.evictions");
  hydrations_ = scope.GetCounter("kv.hydrations");
  poison_drops_ = scope.GetCounter("kv.poison_drops");
  overloaded_ = scope.GetCounter("kv.overloaded");
  expired_ = scope.GetCounter("kv.expired");
  ssd_errors_ = scope.GetCounter("kv.ssd_errors");
}

size_t Store::ShardOf(const std::string& key) const {
  return static_cast<size_t>(Fnv1a(key) % shards_.size());
}

uint32_t Store::SectorsPerSlot() const {
  return (pool_->buffer_size() + devices::kSsdSectorSize - 1) /
         devices::kSsdSectorSize;
}

void Store::DropEntry(Shard& shard, const std::string& key, Entry& entry) {
  if (entry.in_pool) {
    pool_->Free(entry.buf_addr);
    shard.lru.erase(entry.lru_it);
    resident_entries_->Sub(1);
  } else {
    free_slots_.push_back(entry.ssd_slot);
    spilled_entries_->Sub(1);
  }
  shard.index.erase(key);
}

sim::Task<> Store::ScrubBuffer(uint64_t addr) {
  // Full-line writes heal poisoned media (PR 4 contract); publishing the
  // whole buffer guarantees every line under it is rewritten.
  std::vector<std::byte> zeros(pool_->buffer_size(), std::byte{0});
  (void)co_await pool_->memory().Publish(addr, zeros);
}

sim::Task<Result<std::vector<std::byte>>> Store::ReadResident(
    Shard& shard, const std::string& key, Entry& entry) {
  std::vector<std::byte> out(entry.len);
  Status st = co_await pool_->memory().ReadFresh(entry.buf_addr, out);
  if (st.code() == StatusCode::kDataLoss) {
    // Poisoned backing line: the value is gone. Scrub the buffer clean
    // while the entry still owns it (freeing first would let a concurrent
    // op re-allocate it mid-scrub), then drop the entry and account the
    // key against the soak's documented carve-out budget.
    co_await ScrubBuffer(entry.buf_addr);
    poison_drops_->Inc();
    ++poison_dropped_keys_;
    DropEntry(shard, key, entry);
    co_return DataLoss("kv: value lost to poisoned media");
  }
  if (!st.ok()) {
    co_return st;
  }
  co_return out;
}

sim::Task<Status> Store::EvictOne(Shard& shard, Nanos deadline) {
  if (ssd_ == nullptr || shard.lru.empty()) {
    co_return Overloaded("kv: nothing evictable in shard");
  }
  sim::EventLoop& loop = pool_->memory().host().loop();
  if (deadline > 0 && loop.now() + kSsdMinHeadroom > deadline) {
    co_return DeadlineExceeded("kv: no headroom for eviction write");
  }
  std::string key = shard.lru.back();
  auto it = shard.index.find(key);
  CXLPOOL_CHECK(it != shard.index.end() && it->second.in_pool);
  Entry& entry = it->second;

  // Probe the value's backing lines before the device DMAs them: a
  // poisoned line surfaces here as a typed drop instead of a mid-transfer
  // device error. The drop frees a buffer, which is what eviction wanted.
  uint32_t nsectors = std::max<uint32_t>(
      1, (entry.len + devices::kSsdSectorSize - 1) / devices::kSsdSectorSize);
  std::vector<std::byte> probe(
      std::min<uint64_t>(static_cast<uint64_t>(nsectors) *
                             devices::kSsdSectorSize,
                         pool_->buffer_size()));
  Status pst = co_await pool_->memory().ReadFresh(entry.buf_addr, probe);
  if (pst.code() == StatusCode::kDataLoss) {
    co_await ScrubBuffer(entry.buf_addr);
    poison_drops_->Inc();
    ++poison_dropped_keys_;
    DropEntry(shard, key, entry);
    co_return OkStatus();  // a buffer was freed; eviction goal met
  }
  if (!pst.ok()) {
    co_return pst;
  }
  if (free_slots_.empty()) {
    co_return Overloaded("kv: cold tier full");
  }
  uint64_t slot = free_slots_.back();
  free_slots_.pop_back();
  uint64_t lba = slot * SectorsPerSlot();
  auto dev = co_await ssd_->WriteBlocks(lba, nsectors, entry.buf_addr, deadline);
  if (!dev.ok() || *dev != devices::kSsdStatusOk) {
    // Write-back failed; the value stays resident and the slot returns.
    free_slots_.push_back(slot);
    if (!dev.ok()) {
      if (dev.status().code() == StatusCode::kDeadlineExceeded) {
        co_return dev.status();
      }
      ssd_errors_->Inc();
      co_return dev.status();
    }
    ssd_errors_->Inc();
    co_return Internal("kv: SSD write-back rejected by device");
  }
  pool_->Free(entry.buf_addr);
  shard.lru.erase(entry.lru_it);
  resident_entries_->Sub(1);
  entry.in_pool = false;
  entry.ssd_slot = slot;
  spilled_entries_->Add(1);
  evictions_->Inc();
  co_return OkStatus();
}

sim::Task<Result<uint64_t>> Store::AllocBuffer(Shard& shard, Nanos deadline) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto addr = pool_->Alloc();
    if (addr.ok()) {
      co_return *addr;
    }
    Status ev = co_await EvictOne(shard, deadline);
    if (!ev.ok()) {
      co_return ev;
    }
  }
  co_return Overloaded("kv: buffer pool exhausted");
}

sim::Task<Result<Store::GetResult>> Store::Get(const std::string& key,
                                               Nanos deadline) {
  gets_->Inc();
  sim::EventLoop& loop = pool_->memory().host().loop();
  if (deadline > 0 && loop.now() >= deadline) {
    expired_->Inc();
    co_return DeadlineExceeded("kv: GET expired before service");
  }
  Shard& shard = *shards_[ShardOf(key)];
  co_await shard.gate.Acquire();
  GateGuard guard(&shard.gate);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    get_misses_->Inc();
    co_return NotFound("kv: no such key");
  }
  if (it->second.in_pool) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    auto bytes = co_await ReadResident(shard, key, it->second);
    if (!bytes.ok()) {
      co_return bytes.status();
    }
    get_hits_pool_->Inc();
    co_return GetResult{std::move(*bytes), Origin::kPool};
  }
  // Spilled: hydrate from the cold tier back into a fresh pool buffer.
  if (deadline > 0 && loop.now() + kSsdMinHeadroom > deadline) {
    expired_->Inc();
    co_return DeadlineExceeded("kv: no headroom for hydration read");
  }
  auto buf = co_await AllocBuffer(shard, deadline);
  if (!buf.ok()) {
    if (buf.status().code() == StatusCode::kDeadlineExceeded) {
      expired_->Inc();
    } else {
      overloaded_->Inc();
    }
    co_return buf.status();
  }
  Entry& entry = it->second;
  uint32_t nsectors = std::max<uint32_t>(
      1, (entry.len + devices::kSsdSectorSize - 1) / devices::kSsdSectorSize);
  uint64_t lba = entry.ssd_slot * SectorsPerSlot();
  auto dev = co_await ssd_->ReadBlocks(lba, nsectors, *buf, deadline);
  if (!dev.ok() || *dev != devices::kSsdStatusOk) {
    pool_->Free(*buf);
    if (!dev.ok()) {
      if (dev.status().code() == StatusCode::kDeadlineExceeded) {
        expired_->Inc();
      } else {
        ssd_errors_->Inc();
      }
      co_return dev.status();
    }
    ssd_errors_->Inc();
    co_return Internal("kv: SSD hydration rejected by device");
  }
  free_slots_.push_back(entry.ssd_slot);
  spilled_entries_->Sub(1);
  entry.in_pool = true;
  entry.buf_addr = *buf;
  shard.lru.push_front(key);
  entry.lru_it = shard.lru.begin();
  resident_entries_->Add(1);
  hydrations_->Inc();
  auto bytes = co_await ReadResident(shard, key, entry);
  if (!bytes.ok()) {
    co_return bytes.status();
  }
  get_hits_ssd_->Inc();
  co_return GetResult{std::move(*bytes), Origin::kSsd};
}

sim::Task<Status> Store::Set(const std::string& key,
                             std::span<const std::byte> value, Nanos deadline) {
  sets_->Inc();
  if (value.size() > pool_->buffer_size()) {
    co_return InvalidArgument("kv: value exceeds one pool buffer");
  }
  sim::EventLoop& loop = pool_->memory().host().loop();
  if (deadline > 0 && loop.now() >= deadline) {
    expired_->Inc();
    co_return DeadlineExceeded("kv: SET expired before service");
  }
  Shard& shard = *shards_[ShardOf(key)];
  co_await shard.gate.Acquire();
  GateGuard guard(&shard.gate);

  // Copy-on-write: always publish into a fresh buffer, then swap it in.
  // Overwriting a live value in place would tear the old (acked) bytes if
  // the publish fails or the line underneath turns out poisoned.
  auto buf = co_await AllocBuffer(shard, deadline);
  if (!buf.ok()) {
    if (buf.status().code() == StatusCode::kDeadlineExceeded) {
      expired_->Inc();
    } else {
      overloaded_->Inc();
    }
    co_return buf.status();
  }
  uint64_t addr = *buf;

  Status pub = co_await pool_->memory().Publish(addr, value);
  if (pub.code() == StatusCode::kDataLoss) {
    // Poisoned line under a partial-line tail write: scrub the whole
    // buffer (full-line writes heal) and publish again.
    co_await ScrubBuffer(addr);
    pub = co_await pool_->memory().Publish(addr, value);
  }
  if (!pub.ok()) {
    pool_->Free(addr);
    co_return pub;
  }

  // Commit. Re-find: AllocBuffer's eviction may have spilled or
  // poison-dropped this very key while we were suspended.
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    Entry entry;
    entry.in_pool = true;
    entry.buf_addr = addr;
    entry.len = static_cast<uint32_t>(value.size());
    shard.lru.push_front(key);
    entry.lru_it = shard.lru.begin();
    shard.index.emplace(key, entry);
    resident_entries_->Add(1);
  } else if (it->second.in_pool) {
    pool_->Free(it->second.buf_addr);
    it->second.buf_addr = addr;
    it->second.len = static_cast<uint32_t>(value.size());
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  } else {
    // Was spilled: the SSD copy is superseded; slot returns to the pool.
    free_slots_.push_back(it->second.ssd_slot);
    spilled_entries_->Sub(1);
    it->second.in_pool = true;
    it->second.buf_addr = addr;
    it->second.len = static_cast<uint32_t>(value.size());
    shard.lru.push_front(key);
    it->second.lru_it = shard.lru.begin();
    resident_entries_->Add(1);
  }

  // Opportunistic headroom: keep free_low_water buffers available so RX
  // traffic and hydrations do not stall behind SET bursts.
  if (pool_->available() < config_.free_low_water && shard.lru.size() > 1) {
    (void)co_await EvictOne(shard, deadline);
  }
  co_return OkStatus();
}

sim::Task<Status> Store::Delete(const std::string& key, Nanos deadline) {
  deletes_->Inc();
  sim::EventLoop& loop = pool_->memory().host().loop();
  if (deadline > 0 && loop.now() >= deadline) {
    expired_->Inc();
    co_return DeadlineExceeded("kv: DELETE expired before service");
  }
  Shard& shard = *shards_[ShardOf(key)];
  co_await shard.gate.Acquire();
  GateGuard guard(&shard.gate);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    co_return NotFound("kv: no such key");
  }
  DropEntry(shard, key, it->second);
  co_return OkStatus();
}

sim::Task<uint64_t> Store::ScrubOnce() {
  uint64_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    co_await shard.gate.Acquire();
    GateGuard guard(&shard.gate);
    std::vector<std::string> keys(shard.lru.begin(), shard.lru.end());
    for (const std::string& key : keys) {
      auto it = shard.index.find(key);
      if (it == shard.index.end() || !it->second.in_pool) {
        continue;  // dropped or evicted since the snapshot
      }
      auto bytes = co_await ReadResident(shard, key, it->second);
      if (!bytes.ok() && bytes.status().code() == StatusCode::kDataLoss) {
        ++dropped;
      }
    }
  }
  co_return dropped;
}

sim::Task<> Store::ScrubLoop(sim::StopToken& stop) {
  sim::EventLoop& loop = pool_->memory().host().loop();
  while (!stop.stopped() && config_.scrub_interval > 0) {
    co_await sim::Delay(loop, config_.scrub_interval);
    if (stop.stopped()) {
      break;
    }
    (void)co_await ScrubOnce();
  }
}

}  // namespace cxlpool::kv
