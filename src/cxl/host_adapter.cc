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
}  // namespace

// Bytes one access moves over each CXL link, in the order the links were
// first touched. An access reaches one link, or a few on an interleaved
// segment, so up to eight links are tallied without allocating.
class HostAdapter::LinkTally {
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

  // Serializes each link's bytes toward the device from `now`; returns
  // when the last link has drained.
  Nanos Drain(Nanos now) {
    Nanos done = now;
    for (auto [link, bytes] : entries()) {
      done = std::max(done, link->to_device().Acquire(now, bytes));
    }
    return done;
  }

 private:
  static constexpr size_t kInline = 8;
  std::array<Entry, kInline> inline_{};
  std::vector<Entry> spill_;
  size_t size_ = 0;
};

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

Result<Nanos> HostAdapter::Begin(AccessKind kind, uint64_t addr, uint64_t len,
                                 std::span<std::byte> out,
                                 std::span<const std::byte> in, bool* in_dram) {
  ASSIGN_OR_RETURN(const mem::Region* region, ResolveAccess(addr, len));
  Nanos now = loop_.now();
  *in_dram = region->kind == mem::MemoryKind::kLocalDram;
  if (!*in_dram) {
    // Same-address ordering for posted writes: a read or cached store of a
    // line whose posted write has not yet committed is served from the
    // controller's write buffer — it completes no earlier than the commit
    // and then observes the new data. Accesses to unrelated lines, and
    // posted writes themselves, are unaffected.
    bool ordered = kind == AccessKind::kRead || kind == AccessKind::kStore;
    return ordered ? pool_.PendingCommitTime(addr, len) : now;
  }
  // Coherent local memory: no staleness modeling, latency + channel bw.
  // A non-temporal store is modeled as a plain DRAM store, and a flush is
  // a no-op.
  const CxlTiming& t = config_.timing;
  switch (kind) {
    case AccessKind::kRead:
      if (Status p = map_.CheckPoison(addr, len); !p.ok()) {
        poisoned_reads_->Inc();
        return p;
      }
      map_.ReadBytes(addr, out);
      return dram_bw_.Acquire(now + t.dram_load, len);
    case AccessKind::kStore:
    case AccessKind::kPostedWrite:
      map_.WriteBytes(addr, in);
      return dram_bw_.Acquire(now + t.dram_store, len);
    case AccessKind::kFlush:
      break;
  }
  return now;
}

Result<Nanos> HostAdapter::CachedAccess(AccessKind kind, uint64_t addr, uint64_t len,
                                        std::span<std::byte> out,
                                        std::span<const std::byte> in) {
  // A store is write-back: read-for-ownership on a miss, then dirty the
  // line. The pool backend is NOT updated — that is the cross-host hazard.
  const bool store = kind == AccessKind::kStore;
  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, len);
  uint64_t hits = 0;
  LinkTally misses;

  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    // Byte range of this line that intersects [addr, addr+len).
    uint64_t lo = std::max(laddr, addr);
    uint64_t hi = std::min(laddr + kCachelineSize, addr + len);
    auto copy = [&](std::byte* line_bytes) {
      if (store) {
        std::memcpy(line_bytes + (lo - laddr), in.data() + (lo - addr), hi - lo);
      } else {
        std::memcpy(out.data() + (lo - addr), line_bytes + (lo - laddr), hi - lo);
      }
    };

    mem::WriteBackCache::Line* line = cache_.Find(laddr);
    if (line != nullptr) {
      ++hits;
      EmitCoherence(store ? CoherenceOp::kStoreHit : CoherenceOp::kLoadHit, laddr);
      copy(line->data.data());
      if (store) {
        line->dirty = true;
      }
      continue;
    }
    ASSIGN_OR_RETURN(CxlLink* link, RouteCxl(laddr));
    // Uncorrectable media error: the MHD returns poison, not bytes. Cached
    // copies (hits above) legitimately still serve — the CPU has its own
    // good copy of the line. A store's read-for-ownership fails too (a
    // full-line StoreNt is the way to overwrite — and thereby heal —
    // poison).
    if (Status p = map_.CheckPoison(laddr, kCachelineSize); !p.ok()) {
      poisoned_reads_->Inc();
      return p;
    }
    misses.Add(link, kCachelineSize);
    std::array<std::byte, kCachelineSize> buf;
    map_.ReadBytes(laddr, buf);
    copy(buf.data());
    if (auto ev = cache_.Install(laddr, buf.data(), /*dirty=*/store)) {
      WritebackEvicted(*ev);
    }
    pool_.TrackCacher(laddr, id_);
    EmitCoherence(store ? CoherenceOp::kStoreMiss : CoherenceOp::kLoadMiss, laddr);
  }

  const CxlTiming& t = config_.timing;
  Nanos hits_done = loop_.now() + PipelinedLatency(t.cache_hit, 1, hits);
  return std::max(hits_done, FetchDone(misses, t.per_line_pipelined));
}

Result<Nanos> HostAdapter::SnoopedRead(uint64_t addr, std::span<std::byte> out) {
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
    ASSIGN_OR_RETURN(CxlLink* link, RouteCxl(laddr));
    bytes_per_link.Add(link, kCachelineSize);
    // Snoop own cache (no LRU/stat churn — this is the device, not the CPU).
    if (const mem::WriteBackCache::Line* line = cache_.Peek(laddr)) {
      EmitCoherence(CoherenceOp::kDmaReadHit, laddr);
      std::memcpy(out.data() + (lo - addr), line->data.data() + (lo - laddr), hi - lo);
    } else {
      // Poison travels to the device as a DMA completion error.
      if (Status p = map_.CheckPoison(laddr, kCachelineSize); !p.ok()) {
        poisoned_reads_->Inc();
        return p;
      }
      EmitCoherence(CoherenceOp::kDmaReadMiss, laddr);
      std::array<std::byte, kCachelineSize> buf;
      map_.ReadBytes(laddr, buf);
      std::memcpy(out.data() + (lo - addr), buf.data() + (lo - laddr), hi - lo);
    }
  }
  return FetchDone(bytes_per_link, /*serial_tail=*/0);
}

Nanos HostAdapter::FetchDone(LinkTally& fetched, Nanos serial_tail) {
  Nanos now = loop_.now();
  if (fetched.entries().empty()) {
    return now;
  }
  // Fetches on different links proceed in parallel; within a link they
  // pipeline at per_line_pipelined.
  const CxlTiming& t = config_.timing;
  Nanos latency_done = now;
  Nanos serial_done = now;
  for (auto [link, bytes] : fetched.entries()) {
    uint64_t lines = bytes / kCachelineSize;
    latency_done = std::max(
        latency_done,
        now + PipelinedLatency(JitterCxl(t.cxl_read), t.per_line_pipelined, lines));
    serial_done = std::max(serial_done, link->from_device().Acquire(now, bytes));
  }
  return std::max(latency_done, serial_done + serial_tail);
}

Result<Nanos> HostAdapter::PostWrite(CoherenceOp op, uint64_t addr,
                                     std::span<const std::byte> in) {
  const CxlTiming& t = config_.timing;
  Nanos now = loop_.now();

  // Health-check every touched line's route before mutating anything.
  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, in.size());
  LinkTally bytes_per_link;
  for (uint64_t i = 0; i < n_lines; ++i) {
    ASSIGN_OR_RETURN(CxlLink* link, RouteCxl(first_line + i * kCachelineSize));
    bytes_per_link.Add(link, kCachelineSize);
  }

  // Drop this host's cached copies. The written bytes replace a dirty
  // copy's, which is lost. A DMA write's root-complex snoop reports the
  // clean copies it drops; an nt-store drops them silently. Cached copies
  // on OTHER hosts go stale — the cross-host hazard.
  for (uint64_t i = 0; i < n_lines; ++i) {
    uint64_t laddr = first_line + i * kCachelineSize;
    auto ev = cache_.Remove(laddr);
    if (!ev) {
      continue;
    }
    if (ev->dirty) {
      lost_dirty_lines_->Inc();
      EmitCoherence(CoherenceOp::kDirtyLost, laddr);
    } else if (op == CoherenceOp::kDmaWrite) {
      EmitCoherence(CoherenceOp::kInvalidateDrop, laddr);
    }
  }

  Nanos serial_done = bytes_per_link.Drain(now);
  // Posted-write semantics: the writer only drains its bytes onto the link
  // (serial_done); they commit to pool media one write latency later.
  // Same-line readers in the meantime are held to the commit time
  // (controller write buffer); other hosts simply cannot observe the bytes
  // before the commit.
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
    EmitCoherence(op, first_line + i * kCachelineSize);
  }
  return serial_done + (snoops > 0 ? t.bi_snoop : 0);
}

Result<Nanos> HostAdapter::TakeLines(
    uint64_t addr, uint64_t len, Nanos per_line,
    std::vector<mem::WriteBackCache::EvictedLine>* writebacks) {
  const CxlTiming& t = config_.timing;
  Nanos now = loop_.now();
  uint64_t first_line = CachelineFloor(addr);
  uint64_t n_lines = CachelinesTouched(addr, len);
  LinkTally dirty_bytes;

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
    auto link_or = RouteCxl(laddr);
    if (!link_or.ok()) {
      // This line — and every dirty line already pulled out of the cache
      // for this flush — has lost its only copy: nothing writes it back.
      lost_dirty_lines_->Inc();
      EmitCoherence(CoherenceOp::kDirtyLost, laddr);
      for (const auto& dropped : *writebacks) {
        lost_dirty_lines_->Inc();
        EmitCoherence(CoherenceOp::kDirtyLost, dropped.line_addr);
      }
      return link_or.status();
    }
    dirty_bytes.Add(link_or.value(), kCachelineSize);
    writebacks->push_back(*ev);
  }

  Nanos done = now + static_cast<Nanos>(n_lines) * per_line;
  if (!writebacks->empty()) {
    done = std::max(done, dirty_bytes.Drain(now) + JitterCxl(t.cxl_write));
  }
  return done;
}

void HostAdapter::WriteBack(
    std::span<const mem::WriteBackCache::EvictedLine> writebacks) {
  // Dirty data becomes pool-visible when the writeback completes.
  for (const auto& ev : writebacks) {
    map_.WriteBytes(ev.line_addr, std::span<const std::byte>(ev.data));
    flushed_dirty_lines_->Inc();
    EmitCoherence(CoherenceOp::kFlushWriteback, ev.line_addr);
  }
}

sim::Task<Status> HostAdapter::Load(uint64_t addr, std::span<std::byte> out) {
  loads_->Inc();
  load_bytes_->Add(out.size());
  bool in_dram = false;
  Result<Nanos> at = Begin(AccessKind::kRead, addr, out.size(), out, {}, &in_dram);
  if (at.ok() && !in_dram) {
    co_await sim::WaitUntil(loop_, *at);
    at = CachedAccess(AccessKind::kRead, addr, out.size(), out, {});
  }
  if (!at.ok()) {
    co_return at.status();
  }
  co_await sim::WaitUntil(loop_, *at);
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::ReadFresh(uint64_t addr, std::span<std::byte> out) {
  invalidates_->Inc();
  bool in_dram = false;
  std::vector<mem::WriteBackCache::EvictedLine> writebacks;
  Result<Nanos> at = Begin(AccessKind::kFlush, addr, out.size(), {}, {}, &in_dram);
  if (at.ok() && !in_dram) {
    at = TakeLines(addr, out.size(), config_.timing.invalidate, &writebacks);
    if (at.ok()) {
      co_await sim::WaitUntil(loop_, *at);
      WriteBack(writebacks);
    }
  }
  if (!at.ok()) {
    co_return at.status();
  }

  loads_->Inc();
  load_bytes_->Add(out.size());
  at = Begin(AccessKind::kRead, addr, out.size(), out, {}, &in_dram);
  if (at.ok() && !in_dram) {
    co_await sim::WaitUntil(loop_, *at);
    at = CachedAccess(AccessKind::kRead, addr, out.size(), out, {});
  }
  if (!at.ok()) {
    co_return at.status();
  }
  co_await sim::WaitUntil(loop_, *at);
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::Store(uint64_t addr, std::span<const std::byte> in) {
  stores_->Inc();
  store_bytes_->Add(in.size());
  bool in_dram = false;
  Result<Nanos> at = Begin(AccessKind::kStore, addr, in.size(), {}, in, &in_dram);
  if (at.ok() && !in_dram) {
    co_await sim::WaitUntil(loop_, *at);
    at = CachedAccess(AccessKind::kStore, addr, in.size(), {}, in);
  }
  if (!at.ok()) {
    co_return at.status();
  }
  co_await sim::WaitUntil(loop_, *at);
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::StoreNt(uint64_t addr, std::span<const std::byte> in) {
  nt_stores_->Inc();
  nt_store_bytes_->Add(in.size());
  bool in_dram = false;
  Result<Nanos> at = Begin(AccessKind::kPostedWrite, addr, in.size(), {}, in, &in_dram);
  if (at.ok() && !in_dram) {
    at = PostWrite(CoherenceOp::kStoreNt, addr, in);
  }
  if (!at.ok()) {
    co_return at.status();
  }
  co_await sim::WaitUntil(loop_, *at);
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::Flush(uint64_t addr, uint64_t len) {
  flushes_->Inc();
  bool in_dram = false;
  std::vector<mem::WriteBackCache::EvictedLine> writebacks;
  Result<Nanos> at = Begin(AccessKind::kFlush, addr, len, {}, {}, &in_dram);
  if (at.ok() && !in_dram) {
    at = TakeLines(addr, len, config_.timing.flush_issue, &writebacks);
  }
  if (!at.ok()) {
    co_return at.status();
  }
  co_await sim::WaitUntil(loop_, *at);
  WriteBack(writebacks);
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::DmaRead(uint64_t addr, std::span<std::byte> out) {
  dma_reads_->Inc();
  bool in_dram = false;
  Result<Nanos> at = Begin(AccessKind::kRead, addr, out.size(), out, {}, &in_dram);
  if (at.ok() && !in_dram) {
    co_await sim::WaitUntil(loop_, *at);
    at = SnoopedRead(addr, out);
  }
  if (!at.ok()) {
    co_return at.status();
  }
  co_await sim::WaitUntil(loop_, *at);
  co_return OkStatus();
}

sim::Task<Status> HostAdapter::DmaWrite(uint64_t addr, std::span<const std::byte> in) {
  dma_writes_->Inc();
  bool in_dram = false;
  Result<Nanos> at = Begin(AccessKind::kPostedWrite, addr, in.size(), {}, in, &in_dram);
  if (at.ok() && !in_dram) {
    at = PostWrite(CoherenceOp::kDmaWrite, addr, in);
  }
  if (!at.ok()) {
    co_return at.status();
  }
  co_await sim::WaitUntil(loop_, *at);
  co_return OkStatus();
}

void HostAdapter::PeekBackend(uint64_t addr, std::span<std::byte> out) const {
  map_.ReadBytes(addr, out);
}

void HostAdapter::PokeBackend(uint64_t addr, std::span<const std::byte> in) {
  map_.WriteBytes(addr, in);
}

}  // namespace cxlpool::cxl
