#include "src/cxl/host_adapter.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "src/common/check.h"

namespace cxlpool::cxl {

namespace {
// Latency of a multi-line CXL transfer: one full load-to-use plus a small
// pipelined per-line increment (the CPU keeps several misses in flight).
Nanos PipelinedLatency(Nanos first, Nanos per_line, uint64_t lines) {
  if (lines == 0) {
    return 0;
  }
  return first + static_cast<Nanos>(lines - 1) * per_line;
}

// Bytes one access moves over each CXL link, in the order the links were
// first touched. An access reaches one link, or a few on an interleaved
// segment, so up to eight links are tallied without allocating.
class LinkTally {
 public:
  struct Entry {
    CxlLink* link;
    uint64_t bytes;
  };

  void Add(CxlLink* link, uint64_t bytes) {
    for (Entry& e : entries()) {
      if (e.link == link) {
        e.bytes += bytes;
        return;
      }
    }
    if (size_ < kInline) {
      inline_[size_] = Entry{link, bytes};
    } else {
      if (size_ == kInline) {
        spill_.assign(inline_.begin(), inline_.end());
      }
      spill_.push_back(Entry{link, bytes});
    }
    ++size_;
  }

  std::span<Entry> entries() {
    return size_ <= kInline ? std::span<Entry>(inline_.data(), size_)
                            : std::span<Entry>(spill_);
  }

 private:
  static constexpr size_t kInline = 8;
  std::array<Entry, kInline> inline_{};
  std::vector<Entry> spill_;
  size_t size_ = 0;
};
}  // namespace

HostAdapter::HostAdapter(HostId id, sim::EventLoop& loop, mem::AddressMap& map,
                         CxlPool& pool, obs::Registry& metrics, Config config)
    : id_(id),
      loop_(loop),
      map_(map),
      pool_(pool),
      config_(config),
      metrics_(metrics, {{"host", std::to_string(id.value())}}),
      cache_(config.cache_lines, metrics_),
      dram_bw_(config.timing.dram_bytes_per_ns),
      jitter_rng_(static_cast<uint64_t>(id.value()) * 7919 + 13) {}

Nanos HostAdapter::JitterCxl(Nanos base) {
  double sigma = config_.timing.cxl_jitter_sigma;
  if (sigma <= 0) {
    return base;
  }
  return static_cast<Nanos>(static_cast<double>(base) *
                            jitter_rng_.LogNormal(-sigma * sigma / 2, sigma));
}

void HostAdapter::AttachDram(uint64_t base, uint64_t size, double bytes_per_ns) {
  dram_base_ = base;
  dram_size_ = size;
  dram_bump_ = 0;
  dram_bw_.set_bytes_per_ns(bytes_per_ns);
}

Result<uint64_t> HostAdapter::AllocateDram(uint64_t size) {
  size = (size + kCachelineSize - 1) / kCachelineSize * kCachelineSize;
  if (dram_bump_ + size > dram_size_) {
    return ResourceExhausted("host " + std::to_string(id_.value()) +
                             " local DRAM exhausted");
  }
  uint64_t addr = dram_base_ + dram_bump_;
  dram_bump_ += size;
  return addr;
}

void HostAdapter::ConnectLink(CxlLink* link) {
  CXLPOOL_CHECK(link != nullptr && link->host() == id_);
  size_t idx = link->mhd().value();
  if (links_.size() <= idx) {
    links_.resize(idx + 1, nullptr);
  }
  links_[idx] = link;
}

CxlLink* HostAdapter::LinkTo(MhdId mhd) const {
  if (!mhd.valid() || mhd.value() >= links_.size()) {
    return nullptr;
  }
  return links_[mhd.value()];
}

void HostAdapter::SetCrashed(bool crashed) {
  if (crashed_ == crashed) {
    return;
  }
  crashed_ = crashed;
  for (auto& [key, fn] : crash_listeners_) {
    fn(crashed);
  }
}

void HostAdapter::AddCrashListener(const void* key, std::function<void(bool)> fn) {
  crash_listeners_.emplace_back(key, std::move(fn));
}

void HostAdapter::RemoveCrashListener(const void* key) {
  std::erase_if(crash_listeners_,
                [key](const auto& entry) { return entry.first == key; });
}

Result<const mem::Region*> HostAdapter::ResolveAccess(uint64_t addr, uint64_t len) {
  if (crashed_) {
    return Unavailable("host " + std::to_string(id_.value()) + " crashed");
  }
  ASSIGN_OR_RETURN(const mem::Region* region, map_.Resolve(addr, len));
  if (region->kind == mem::MemoryKind::kLocalDram && region->dram_host != id_) {
    return Status(StatusCode::kFailedPrecondition,
                  "host " + std::to_string(id_.value()) +
                      " cannot address host " +
                      std::to_string(region->dram_host.value()) + "'s DRAM");
  }
  return region;
}

Result<CxlLink*> HostAdapter::RouteCxl(uint64_t addr) {
  ASSIGN_OR_RETURN(MhdId mhd, pool_.RouteAddress(addr));
  if (pool_.mhd(mhd).failed()) {
    return Unavailable("MHD " + std::to_string(mhd.value()) + " failed");
  }
  CxlLink* link = LinkTo(mhd);
  if (link == nullptr) {
    return Unavailable("host " + std::to_string(id_.value()) +
                       " has no link to MHD " + std::to_string(mhd.value()));
  }
  if (!link->up()) {
    return Unavailable("CXL link " + std::to_string(link->id().value()) + " down");
  }
  return link;
}

void HostAdapter::WritebackEvicted(const mem::WriteBackCache::EvictedLine& ev) {
  if (!ev.dirty) {
    EmitCoherence(CoherenceOp::kEvictClean, ev.line_addr);
    return;
  }
  auto link = RouteCxl(ev.line_addr);
  if (!link.ok()) {
    lost_dirty_lines_->Inc();
    EmitCoherence(CoherenceOp::kDirtyLost, ev.line_addr);
    return;
  }
  map_.WriteBytes(ev.line_addr, std::span<const std::byte>(ev.data));
  link.value()->to_device().Acquire(loop_.now(), kCachelineSize);
  EmitCoherence(CoherenceOp::kEvictWriteback, ev.line_addr);
}

sim::Task<Status> HostAdapter::Load(uint64_t addr, std::span<std::byte> out) {
  loads_->Inc();
  load_bytes_->Add(out.size());
  auto region_or = ResolveAccess(addr, out.size());
  if (!region_or.ok()) {
    co_return region_or.status();
  }
  const mem::Region* region = region_or.value();
  const CxlTiming& t = config_.timing;
  Nanos now = loop_.now();

  if (region->kind == mem::MemoryKind::kLocalDram) {
    // Coherent local memory: no staleness modeling, latency + channel bw.
    if (Status p = map_.CheckPoison(addr, out.size()); !p.ok()) {
      poisoned_reads_->Inc();
      co_return p;
    }
    map_.ReadBytes(addr, out);
    Nanos done = dram_bw_.Acquire(now + t.dram_load, out.size());
    co_await sim::WaitUntil(loop_, done);
    co_return OkStatus();
  }

  // Same-address ordering for posted writes: a read of a line whose posted
  // write has not yet committed is served from the controller's write
  // buffer — it completes no earlier than the commit and then observes the
  // new data. Reads of unrelated lines are unaffected.
  if (Nanos commit = pool_.PendingCommitTime(addr, out.size()); commit > now) {
    co_await sim::WaitUntil(loop_, commit);
    now = loop_.now();
  }

  // CXL pool access, line by line through the cache.
  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, out.size());
  uint64_t hits = 0;
  uint64_t misses = 0;
  LinkTally miss_bytes;

  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    // Byte range of this line that intersects [addr, addr+size).
    uint64_t lo = std::max(laddr, addr);
    uint64_t hi = std::min(laddr + kCachelineSize, addr + out.size());

    mem::WriteBackCache::Line* line = cache_.Find(laddr);
    if (line != nullptr) {
      ++hits;
      EmitCoherence(CoherenceOp::kLoadHit, laddr);
      std::memcpy(out.data() + (lo - addr), line->data.data() + (lo - laddr),
                  hi - lo);
      continue;
    }
    auto link_or = RouteCxl(laddr);
    if (!link_or.ok()) {
      co_return link_or.status();
    }
    // Uncorrectable media error: the MHD returns poison, not bytes. Cached
    // copies (hits above) legitimately still serve — the CPU has its own
    // good copy of the line.
    if (Status p = map_.CheckPoison(laddr, kCachelineSize); !p.ok()) {
      poisoned_reads_->Inc();
      co_return p;
    }
    ++misses;
    miss_bytes.Add(link_or.value(), kCachelineSize);
    std::array<std::byte, kCachelineSize> buf;
    map_.ReadBytes(laddr, buf);
    std::memcpy(out.data() + (lo - addr), buf.data() + (lo - laddr), hi - lo);
    if (auto ev = cache_.Install(laddr, buf.data(), /*dirty=*/false)) {
      WritebackEvicted(*ev);
    }
    pool_.TrackCacher(laddr, id_);
    EmitCoherence(CoherenceOp::kLoadMiss, laddr);
  }

  Nanos done = now;
  if (hits > 0) {
    done += PipelinedLatency(t.cache_hit, 1, hits);
  }
  if (misses > 0) {
    // Misses on different links proceed in parallel; within a link the
    // CPU pipelines them at per_line_pipelined.
    Nanos latency_done = now;
    Nanos serial_done = now;
    for (auto [link, bytes] : miss_bytes.entries()) {
      uint64_t lines = bytes / kCachelineSize;
      latency_done = std::max(
          latency_done,
          now + PipelinedLatency(JitterCxl(t.cxl_read), t.per_line_pipelined, lines));
      serial_done = std::max(serial_done, link->from_device().Acquire(now, bytes));
    }
    done = std::max({done, latency_done, serial_done + t.per_line_pipelined});
  }
  co_await sim::WaitUntil(loop_, done);
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::Store(uint64_t addr, std::span<const std::byte> in) {
  stores_->Inc();
  store_bytes_->Add(in.size());
  auto region_or = ResolveAccess(addr, in.size());
  if (!region_or.ok()) {
    co_return region_or.status();
  }
  const mem::Region* region = region_or.value();
  const CxlTiming& t = config_.timing;
  Nanos now = loop_.now();

  if (region->kind == mem::MemoryKind::kLocalDram) {
    map_.WriteBytes(addr, in);
    Nanos done = dram_bw_.Acquire(now + t.dram_store, in.size());
    co_await sim::WaitUntil(loop_, done);
    co_return OkStatus();
  }

  // Posted writes to these lines commit first (see Load).
  if (Nanos commit = pool_.PendingCommitTime(addr, in.size()); commit > now) {
    co_await sim::WaitUntil(loop_, commit);
    now = loop_.now();
  }

  // Write-back cached store: read-for-ownership on miss, dirty the line.
  // The pool backend is NOT updated — that is the cross-host hazard.
  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, in.size());
  uint64_t hits = 0;
  uint64_t misses = 0;
  LinkTally miss_bytes;

  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    uint64_t lo = std::max(laddr, addr);
    uint64_t hi = std::min(laddr + kCachelineSize, addr + in.size());

    mem::WriteBackCache::Line* line = cache_.Find(laddr);
    if (line != nullptr) {
      ++hits;
      EmitCoherence(CoherenceOp::kStoreHit, laddr);
      std::memcpy(line->data.data() + (lo - laddr), in.data() + (lo - addr), hi - lo);
      line->dirty = true;
      continue;
    }
    auto link_or = RouteCxl(laddr);
    if (!link_or.ok()) {
      co_return link_or.status();
    }
    // The read-for-ownership fetch pulls the line from media, so a
    // poisoned line fails the cached store too (a full-line StoreNt is the
    // way to overwrite — and thereby heal — poison).
    if (Status p = map_.CheckPoison(laddr, kCachelineSize); !p.ok()) {
      poisoned_reads_->Inc();
      co_return p;
    }
    ++misses;
    miss_bytes.Add(link_or.value(), kCachelineSize);
    std::array<std::byte, kCachelineSize> buf;
    map_.ReadBytes(laddr, buf);  // RFO fetch
    std::memcpy(buf.data() + (lo - laddr), in.data() + (lo - addr), hi - lo);
    if (auto ev = cache_.Install(laddr, buf.data(), /*dirty=*/true)) {
      WritebackEvicted(*ev);
    }
    pool_.TrackCacher(laddr, id_);
    EmitCoherence(CoherenceOp::kStoreMiss, laddr);
  }

  Nanos done = now;
  if (hits > 0) {
    done += PipelinedLatency(t.cache_hit, 1, hits);
  }
  if (misses > 0) {
    // Misses on different links proceed in parallel; within a link the
    // CPU pipelines them at per_line_pipelined.
    Nanos latency_done = now;
    Nanos serial_done = now;
    for (auto [link, bytes] : miss_bytes.entries()) {
      uint64_t lines = bytes / kCachelineSize;
      latency_done = std::max(
          latency_done,
          now + PipelinedLatency(JitterCxl(t.cxl_read), t.per_line_pipelined, lines));
      serial_done = std::max(serial_done, link->from_device().Acquire(now, bytes));
    }
    done = std::max({done, latency_done, serial_done + t.per_line_pipelined});
  }
  co_await sim::WaitUntil(loop_, done);
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::StoreNt(uint64_t addr, std::span<const std::byte> in) {
  nt_stores_->Inc();
  nt_store_bytes_->Add(in.size());
  auto region_or = ResolveAccess(addr, in.size());
  if (!region_or.ok()) {
    co_return region_or.status();
  }
  const mem::Region* region = region_or.value();
  const CxlTiming& t = config_.timing;
  Nanos now = loop_.now();

  if (region->kind == mem::MemoryKind::kLocalDram) {
    // Non-temporal store to local DRAM: same visibility, slightly cheaper
    // than a cached store followed by eviction; model as plain DRAM store.
    map_.WriteBytes(addr, in);
    Nanos done = dram_bw_.Acquire(now + t.dram_store, in.size());
    co_await sim::WaitUntil(loop_, done);
    co_return OkStatus();
  }

  // Health-check every touched line's route before mutating anything.
  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, in.size());
  LinkTally bytes_per_link;
  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    auto link_or = RouteCxl(laddr);
    if (!link_or.ok()) {
      co_return link_or.status();
    }
    bytes_per_link.Add(link_or.value(), kCachelineSize);
  }

  // Drop any cached copies (an nt-store over a dirty line discards the
  // cached bytes in favour of the streamed ones).
  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    if (auto ev = cache_.Remove(laddr); ev && ev->dirty) {
      lost_dirty_lines_->Inc();
      EmitCoherence(CoherenceOp::kDirtyLost, laddr);
    }
  }

  Nanos serial_done = now;
  for (auto [link, bytes] : bytes_per_link.entries()) {
    serial_done = std::max(serial_done, link->to_device().Acquire(now, bytes));
  }
  // Posted-write semantics: the CPU only drains its write-combining buffer
  // onto the link (serial_done); the bytes commit to pool media one write
  // latency later. Same-line readers in the meantime are held to the
  // commit time (controller write buffer); other hosts simply cannot
  // observe the bytes before the commit.
  Nanos visible_at = pool_.RecordPendingCommit(
      addr, in.size(), serial_done + JitterCxl(t.cxl_write), now);
  // CXL 3.0 BI emulation: the device invalidates remote cached copies;
  // the writer pays one snoop round.
  int snoops = pool_.BackInvalidate(addr, in.size(), id_);
  loop_.ScheduleAt(visible_at,
                   [this, addr, data = std::vector<std::byte>(in.begin(), in.end())] {
                     map_.WriteBytes(addr, data);
                   });
  for (uint64_t i = 0; i < n_lines; ++i) {
    EmitCoherence(CoherenceOp::kStoreNt, first_line + i * kCachelineSize);
  }
  co_await sim::WaitUntil(loop_, serial_done + (snoops > 0 ? t.bi_snoop : 0));
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::Flush(uint64_t addr, uint64_t len) {
  flushes_->Inc();
  return FlushImpl(addr, len, /*invalidate=*/false);
}

sim::Task<Status> HostAdapter::Invalidate(uint64_t addr, uint64_t len) {
  invalidates_->Inc();
  return FlushImpl(addr, len, /*invalidate=*/true);
}

sim::Task<Status> HostAdapter::FlushImpl(uint64_t addr, uint64_t len, bool invalidate) {
  auto region_or = ResolveAccess(addr, len);
  if (!region_or.ok()) {
    co_return region_or.status();
  }
  if (region_or.value()->kind == mem::MemoryKind::kLocalDram) {
    co_return OkStatus();  // local DRAM is coherent; flush is a no-op
  }
  const CxlTiming& t = config_.timing;
  Nanos now = loop_.now();

  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, len);
  LinkTally dirty_bytes;
  std::vector<mem::WriteBackCache::EvictedLine> writebacks;

  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    auto ev = cache_.Remove(laddr);
    if (!ev) {
      continue;
    }
    if (!ev->dirty) {
      EmitCoherence(CoherenceOp::kInvalidateDrop, laddr);
      continue;
    }
    flushed_dirty_lines_->Inc();
    auto link_or = RouteCxl(laddr);
    if (!link_or.ok()) {
      // This line — and every dirty line already pulled out of the cache
      // for this flush — has lost its only copy: nothing writes it back.
      lost_dirty_lines_->Inc();
      EmitCoherence(CoherenceOp::kDirtyLost, laddr);
      for (const auto& dropped : writebacks) {
        lost_dirty_lines_->Inc();
        EmitCoherence(CoherenceOp::kDirtyLost, dropped.line_addr);
      }
      co_return link_or.status();
    }
    dirty_bytes.Add(link_or.value(), kCachelineSize);
    writebacks.push_back(*ev);
  }

  Nanos issue_cost = static_cast<Nanos>(n_lines) * (invalidate ? t.invalidate : t.flush_issue);
  Nanos done = now + issue_cost;
  if (!writebacks.empty()) {
    Nanos serial_done = now;
    for (auto [link, bytes] : dirty_bytes.entries()) {
      serial_done = std::max(serial_done, link->to_device().Acquire(now, bytes));
    }
    done = std::max(done, serial_done + JitterCxl(t.cxl_write));
  }
  co_await sim::WaitUntil(loop_, done);
  // Dirty data becomes pool-visible when the writeback completes.
  for (const auto& ev : writebacks) {
    map_.WriteBytes(ev.line_addr, std::span<const std::byte>(ev.data));
    EmitCoherence(CoherenceOp::kFlushWriteback, ev.line_addr);
  }
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::DmaRead(uint64_t addr, std::span<std::byte> out) {
  dma_reads_->Inc();
  auto region_or = ResolveAccess(addr, out.size());
  if (!region_or.ok()) {
    co_return region_or.status();
  }
  const mem::Region* region = region_or.value();
  const CxlTiming& t = config_.timing;
  Nanos now = loop_.now();

  if (region->kind == mem::MemoryKind::kLocalDram) {
    if (Status p = map_.CheckPoison(addr, out.size()); !p.ok()) {
      poisoned_reads_->Inc();
      co_return p;
    }
    map_.ReadBytes(addr, out);
    Nanos done = dram_bw_.Acquire(now + t.dram_load, out.size());
    co_await sim::WaitUntil(loop_, done);
    co_return OkStatus();
  }

  // Posted writes to these lines commit first (see Load).
  if (Nanos commit = pool_.PendingCommitTime(addr, out.size()); commit > now) {
    co_await sim::WaitUntil(loop_, commit);
    now = loop_.now();
  }

  // Inbound DMA through this host's root complex snoops THIS host's cache
  // (local I/O is coherent) but goes to pool media otherwise. Other hosts'
  // caches are never snooped.
  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, out.size());
  LinkTally bytes_per_link;

  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    uint64_t lo = std::max(laddr, addr);
    uint64_t hi = std::min(laddr + kCachelineSize, addr + out.size());
    auto link_or = RouteCxl(laddr);
    if (!link_or.ok()) {
      co_return link_or.status();
    }
    bytes_per_link.Add(link_or.value(), kCachelineSize);
    // Snoop own cache (no LRU/stat churn — this is the device, not the CPU).
    if (const mem::WriteBackCache::Line* line = cache_.Peek(laddr)) {
      EmitCoherence(CoherenceOp::kDmaReadHit, laddr);
      std::memcpy(out.data() + (lo - addr), line->data.data() + (lo - laddr), hi - lo);
    } else {
      // Poison travels to the device as a DMA completion error.
      if (Status p = map_.CheckPoison(laddr, kCachelineSize); !p.ok()) {
        poisoned_reads_->Inc();
        co_return p;
      }
      EmitCoherence(CoherenceOp::kDmaReadMiss, laddr);
      std::array<std::byte, kCachelineSize> buf;
      map_.ReadBytes(laddr, buf);
      std::memcpy(out.data() + (lo - addr), buf.data() + (lo - laddr), hi - lo);
    }
  }

  Nanos latency_done = now;
  Nanos serial_done = now;
  for (auto [link, bytes] : bytes_per_link.entries()) {
    uint64_t lines = bytes / kCachelineSize;
    latency_done = std::max(
        latency_done,
        now + PipelinedLatency(JitterCxl(t.cxl_read), t.per_line_pipelined, lines));
    serial_done = std::max(serial_done, link->from_device().Acquire(now, bytes));
  }
  co_await sim::WaitUntil(loop_, std::max(latency_done, serial_done));
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::DmaWrite(uint64_t addr, std::span<const std::byte> in) {
  dma_writes_->Inc();
  auto region_or = ResolveAccess(addr, in.size());
  if (!region_or.ok()) {
    co_return region_or.status();
  }
  const mem::Region* region = region_or.value();
  const CxlTiming& t = config_.timing;
  Nanos now = loop_.now();

  if (region->kind == mem::MemoryKind::kLocalDram) {
    map_.WriteBytes(addr, in);
    Nanos done = dram_bw_.Acquire(now + t.dram_store, in.size());
    co_await sim::WaitUntil(loop_, done);
    co_return OkStatus();
  }

  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, in.size());
  LinkTally bytes_per_link;
  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    auto link_or = RouteCxl(laddr);
    if (!link_or.ok()) {
      co_return link_or.status();
    }
    bytes_per_link.Add(link_or.value(), kCachelineSize);
  }

  // Invalidate this host's cached copies (root-complex snoop). Cached
  // copies on OTHER hosts go stale — the cross-host hazard.
  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    if (auto ev = cache_.Remove(laddr)) {
      EmitCoherence(ev->dirty ? CoherenceOp::kDirtyLost
                              : CoherenceOp::kInvalidateDrop,
                    laddr);
    }
  }

  Nanos serial_done = now;
  for (auto [link, bytes] : bytes_per_link.entries()) {
    serial_done = std::max(serial_done, link->to_device().Acquire(now, bytes));
  }
  // Device DMA writes are posted like nt-stores: the engine moves on after
  // link serialization; media commit follows one write latency later and
  // same-line readers are held to the commit time.
  Nanos visible_at = pool_.RecordPendingCommit(
      addr, in.size(), serial_done + JitterCxl(t.cxl_write), now);
  int snoops = pool_.BackInvalidate(addr, in.size(), id_);
  loop_.ScheduleAt(visible_at,
                   [this, addr, data = std::vector<std::byte>(in.begin(), in.end())] {
                     map_.WriteBytes(addr, data);
                   });
  for (uint64_t i = 0; i < n_lines; ++i) {
    EmitCoherence(CoherenceOp::kDmaWrite, first_line + i * kCachelineSize);
  }
  co_await sim::WaitUntil(loop_, serial_done + (snoops > 0 ? t.bi_snoop : 0));
  co_return OkStatus();
}

void HostAdapter::PeekBackend(uint64_t addr, std::span<std::byte> out) const {
  map_.ReadBytes(addr, out);
}

void HostAdapter::PokeBackend(uint64_t addr, std::span<const std::byte> in) {
  map_.WriteBytes(addr, in);
}

}  // namespace cxlpool::cxl
