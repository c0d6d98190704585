// Sharded in-pool KV store: the data plane of the memcached-style node.
//
// Values live in CXL-pool BufferPool buffers (one buffer per value); each
// shard keeps a hash index plus an LRU list. When free buffers run below
// the configured low-water mark, cold tail entries overflow to the pooled
// SSD through VirtualSsd (the device DMAs straight out of pool memory), and
// a later GET hydrates them back into a fresh buffer — one request can
// traverse pooled NIC -> pool memory -> pooled SSD and back.
//
// Contracts carried over from earlier PRs:
//  - Backpressure (PR 6): ops that would exceed their absolute deadline are
//    shed before touching the SSD (kDeadlineExceeded); allocation pressure
//    with no evictable entry is typed kOverloaded, never a CHECK.
//  - Media faults (PR 4): a poisoned line under a resident value surfaces
//    as kDataLoss on read; the store drops the entry and scrubs the buffer
//    clean with a full-buffer publish (documented cache carve-out — the
//    client sees kDataLoss once, then kNotFound).
//
// Concurrency: ops serialize per shard via a semaphore, so entry state
// never changes underneath a suspended SSD round trip (the memcached
// per-bucket lock, coroutine edition).
#ifndef SRC_KV_STORE_H_
#define SRC_KV_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/virtual_ssd.h"
#include "src/kv/wire.h"
#include "src/obs/registry.h"
#include "src/sim/sync.h"
#include "src/stack/buffer_pool.h"

namespace cxlpool::kv {

// Minimum headroom an op needs before starting an SSD round trip; with
// less than this left the op is shed as kDeadlineExceeded instead of
// occupying a queue slot it cannot use (PR 6 shed-before-BAR).
inline constexpr Nanos kSsdMinHeadroom = 30 * kMicrosecond;

struct StoreConfig {
  int shards = 8;
  // Keep at least this many pool buffers free: SET/hydration trigger LRU
  // overflow to SSD when availability drops below the mark.
  uint32_t free_low_water = 8;
  // Background scrub cadence (0 disables ScrubLoop).
  Nanos scrub_interval = 500 * kMicrosecond;
};

class Store {
 public:
  // `pool` holds the values; `ssd` (nullable — overflow disabled) is the
  // cold tier, of which the first `ssd_capacity_bytes` are ours to slot.
  // Counts under `labels` in `registry`, or under the host's scope plus
  // `labels` when it is null: kv.gets, kv.get_hits_pool, kv.get_hits_ssd,
  // kv.get_misses, kv.sets, kv.deletes, kv.evictions, kv.hydrations,
  // kv.poison_drops, kv.overloaded, kv.expired, kv.ssd_errors, and the
  // levels kv.resident_entries / kv.spilled_entries (gauges; a new store
  // starts them at zero).
  Store(stack::BufferPool* pool, core::VirtualSsd* ssd,
        uint64_t ssd_capacity_bytes, StoreConfig config,
        obs::Registry* registry, obs::Labels labels = {});

  struct GetResult {
    std::vector<std::byte> value;
    Origin origin = Origin::kNone;
  };

  // kNotFound on miss; kDataLoss when the backing line was poisoned (the
  // entry is dropped and the buffer scrubbed); kDeadlineExceeded when a
  // needed hydration cannot fit before `deadline`.
  sim::Task<Result<GetResult>> Get(const std::string& key, Nanos deadline);

  // kInvalidArgument when the value exceeds one pool buffer; kOverloaded
  // when no buffer is free and nothing can be evicted in time.
  sim::Task<Status> Set(const std::string& key,
                        std::span<const std::byte> value, Nanos deadline);

  sim::Task<Status> Delete(const std::string& key, Nanos deadline);

  // Reads every resident value once; drops + scrubs entries whose backing
  // lines are poisoned. Returns entries dropped. ScrubLoop runs this at
  // config.scrub_interval until `stop`.
  sim::Task<uint64_t> ScrubOnce();
  sim::Task<> ScrubLoop(sim::StopToken& stop);

  // Distinct keys dropped because their backing media failed (poison);
  // the soak's lost-SET audit budget.
  uint64_t poison_dropped_keys() const { return poison_dropped_keys_; }

 private:
  struct Entry {
    bool in_pool = false;
    uint64_t buf_addr = 0;   // valid when in_pool
    uint64_t ssd_slot = 0;   // valid when !in_pool
    uint32_t len = 0;
    std::list<std::string>::iterator lru_it;  // into shard lru (resident only)
  };

  struct Shard {
    explicit Shard(sim::EventLoop& loop) : gate(loop, 1) {}
    std::unordered_map<std::string, Entry> index;
    // MRU at front; only resident (in_pool) entries are listed.
    std::list<std::string> lru;
    sim::Semaphore gate;  // serializes ops within the shard
  };

  size_t ShardOf(const std::string& key) const;
  // Frees `entry`'s storage (buffer or SSD slot) and erases it.
  void DropEntry(Shard& shard, const std::string& key, Entry& entry);
  // Ensures a free buffer exists, evicting LRU tails to SSD if needed.
  sim::Task<Result<uint64_t>> AllocBuffer(Shard& shard, Nanos deadline);
  // Writes the LRU tail of `shard` out to SSD and frees its buffer.
  sim::Task<Status> EvictOne(Shard& shard, Nanos deadline);
  // Reads entry bytes from the pool; on kDataLoss drops + scrubs.
  sim::Task<Result<std::vector<std::byte>>> ReadResident(
      Shard& shard, const std::string& key, Entry& entry);
  // Zero-fills the whole buffer with a publish: full-line writes heal
  // poisoned media before the buffer returns to the free list.
  sim::Task<> ScrubBuffer(uint64_t addr);

  uint32_t SectorsPerSlot() const;

  stack::BufferPool* pool_;
  core::VirtualSsd* ssd_;
  StoreConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // SSD slot allocator: fixed-size slots of one buffer each.
  std::vector<uint64_t> free_slots_;

  uint64_t poison_dropped_keys_ = 0;

  obs::Gauge* resident_entries_;
  obs::Gauge* spilled_entries_;
  obs::Counter* gets_;
  obs::Counter* get_hits_pool_;
  obs::Counter* get_hits_ssd_;
  obs::Counter* get_misses_;
  obs::Counter* sets_;
  obs::Counter* deletes_;
  obs::Counter* evictions_;
  obs::Counter* hydrations_;
  obs::Counter* poison_drops_;
  obs::Counter* overloaded_;
  obs::Counter* expired_;
  obs::Counter* ssd_errors_;
};

}  // namespace cxlpool::kv

#endif  // SRC_KV_STORE_H_
