#include "src/cxl/pool.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"

namespace cxlpool::cxl {

namespace {
constexpr uint64_t kSegmentAlign = 4 * kKiB;

uint64_t RoundUp(uint64_t v, uint64_t align) { return (v + align - 1) / align * align; }
}  // namespace

MhdId CxlPool::AddMhd(uint64_t capacity_bytes) {
  MhdId id(static_cast<uint32_t>(mhds_.size()));
  mhds_.push_back(std::make_unique<MultiHeadedDevice>(id, capacity_bytes));
  mhd_used_.push_back(0);
  mhd_bump_.push_back(0);
  return id;
}

MultiHeadedDevice& CxlPool::mhd(MhdId id) {
  CXLPOOL_CHECK(id.valid() && id.value() < mhds_.size());
  return *mhds_[id.value()];
}

const MultiHeadedDevice& CxlPool::mhd(MhdId id) const {
  CXLPOOL_CHECK(id.valid() && id.value() < mhds_.size());
  return *mhds_[id.value()];
}

Result<PoolSegment> CxlPool::Allocate(uint64_t size, MhdId preferred) {
  if (size == 0) {
    return InvalidArgument("zero-size pool allocation");
  }
  size = RoundUp(size, kSegmentAlign);

  MhdId target = preferred;
  if (!target.valid()) {
    // Least-utilized healthy MHD with room.
    double best = 2.0;
    for (size_t i = 0; i < mhds_.size(); ++i) {
      if (mhds_[i]->failed()) {
        continue;
      }
      uint64_t cap = mhds_[i]->capacity();
      if (mhd_bump_[i] + size > cap) {
        continue;
      }
      double util = static_cast<double>(mhd_used_[i]) / static_cast<double>(cap);
      if (util < best) {
        best = util;
        target = MhdId(static_cast<uint32_t>(i));
      }
    }
    if (!target.valid()) {
      return ResourceExhausted("no MHD can fit " + std::to_string(size) + " bytes");
    }
  } else {
    if (target.value() >= mhds_.size()) {
      return NotFound("unknown MHD");
    }
    if (mhds_[target.value()]->failed()) {
      return Unavailable("MHD " + std::to_string(target.value()) + " failed");
    }
    if (mhd_bump_[target.value()] + size > mhds_[target.value()]->capacity()) {
      return ResourceExhausted("MHD " + std::to_string(target.value()) + " full");
    }
  }

  uint32_t m = target.value();
  PoolSegment seg;
  seg.base = next_base_;
  seg.size = size;
  seg.mhds = {target};
  next_base_ += size;

  mem::Region region;
  region.base = seg.base;
  region.size = seg.size;
  region.kind = mem::MemoryKind::kCxlPool;
  region.mhd = target;
  region.backend = &mhds_[m]->media();
  region.backend_offset = mhd_bump_[m];
  RETURN_IF_ERROR(map_.Register(region));

  mhd_bump_[m] += size;
  mhd_used_[m] += size;
  segments_.emplace(seg.base, SegmentInfo{seg, false});
  return seg;
}

Result<PoolSegment> CxlPool::AllocateInterleaved(uint64_t size,
                                                 std::vector<MhdId> mhds) {
  if (mhds.size() < 2) {
    return InvalidArgument("interleaved allocation needs >= 2 MHDs");
  }
  for (MhdId id : mhds) {
    if (!id.valid() || id.value() >= mhds_.size()) {
      return NotFound("unknown MHD in interleave set");
    }
    if (mhds_[id.value()]->failed()) {
      return Unavailable("failed MHD in interleave set");
    }
  }
  size = RoundUp(size, std::max(kSegmentAlign, kInterleaveGranule * mhds.size()));

  PoolSegment seg;
  seg.base = next_base_;
  seg.size = size;
  seg.mhds = std::move(mhds);
  next_base_ += size;

  // Dedicated striped backend; per-MHD capacity accounting still applies.
  auto backend = std::make_unique<mem::MemoryBackend>(
      "ilv@" + std::to_string(seg.base), size);
  mem::Region region;
  region.base = seg.base;
  region.size = seg.size;
  region.kind = mem::MemoryKind::kCxlPool;
  region.mhd = seg.mhds.front();  // home for diagnostics only
  region.backend = backend.get();
  region.backend_offset = 0;
  RETURN_IF_ERROR(map_.Register(region));
  striped_backends_.push_back(std::move(backend));

  uint64_t share = size / seg.mhds.size();
  for (MhdId id : seg.mhds) {
    mhd_used_[id.value()] += share;
  }
  segments_.emplace(seg.base, SegmentInfo{seg, false});
  return seg;
}

Status CxlPool::Free(const PoolSegment& segment) {
  auto it = segments_.find(segment.base);
  if (it == segments_.end()) {
    return NotFound("unknown segment");
  }
  if (it->second.freed) {
    return FailedPrecondition("segment already freed");
  }
  it->second.freed = true;
  const PoolSegment& seg = it->second.segment;
  uint64_t share = seg.size / seg.mhds.size();
  for (MhdId id : seg.mhds) {
    CXLPOOL_CHECK(mhd_used_[id.value()] >= share);
    mhd_used_[id.value()] -= share;
  }
  return OkStatus();
}

const PoolSegment* CxlPool::SegmentAt(uint64_t addr) const {
  auto it = segments_.upper_bound(addr);
  if (it == segments_.begin()) {
    return nullptr;
  }
  --it;
  const PoolSegment& seg = it->second.segment;
  return addr < seg.end() ? &seg : nullptr;
}

Result<MhdId> CxlPool::RouteAddress(uint64_t addr) const {
  const PoolSegment* seg = SegmentAt(addr);
  if (seg == nullptr) {
    return NotFound("address not in any pool segment");
  }
  return seg->MhdFor(addr);
}

uint64_t CxlPool::used_bytes(MhdId id) const {
  CXLPOOL_CHECK(id.valid() && id.value() < mhd_used_.size());
  return mhd_used_[id.value()];
}

uint64_t CxlPool::total_capacity() const {
  uint64_t total = 0;
  for (const auto& m : mhds_) {
    total += m->capacity();
  }
  return total;
}

uint64_t CxlPool::total_used() const {
  uint64_t total = 0;
  for (uint64_t u : mhd_used_) {
    total += u;
  }
  return total;
}

size_t CxlPool::PoisonedLineCount() const {
  size_t total = 0;
  for (const auto& mhd : mhds_) {
    total += mhd->media().poisoned_line_count();
  }
  for (const auto& backend : striped_backends_) {
    total += backend->poisoned_line_count();
  }
  return total;
}

}  // namespace cxlpool::cxl

namespace cxlpool::cxl {

Nanos CxlPool::Post(const mem::Region& region, uint64_t addr,
                    std::span<const std::byte> in, Nanos visible_at) {
  Nanos now = loop_.now();
  uint64_t first = CachelineFloor(addr);
  uint64_t end = first + CachelinesTouched(addr, in.size()) * kCachelineSize;
  // Same-address ordering: the controller write buffer drains per-address
  // FIFO, so a write accepted while an earlier same-line write is pending
  // commits no earlier than it. (Equal times are safe: the event loop is
  // FIFO among same-time events, so the later-issued write lands last.)
  Nanos ordered = visible_at;
  for (size_t i = 0; i < live_writes_; ++i) {
    const PostedWrite& w = writes_[i];
    if (w.first_line < end && first < w.end_line && w.commit > now) {
      ordered = std::max(ordered, w.commit);
    }
  }
  if (live_writes_ == writes_.size()) {
    writes_.emplace_back();
  }
  PostedWrite& w = writes_[live_writes_++];
  w.id = next_write_id_++;
  w.first_line = first;
  w.end_line = end;
  w.commit = ordered;
  w.region = &region;
  w.addr = addr;
  w.bytes.assign(in.begin(), in.end());
  loop_.ScheduleAt(ordered, [this, id = w.id] { Land(id); });
  return ordered;
}

void CxlPool::Land(uint64_t id) {
  size_t i = 0;
  while (i < live_writes_ && writes_[i].id != id) {
    ++i;
  }
  CXLPOOL_CHECK(i < live_writes_);
  PostedWrite& w = writes_[i];
  w.region->Write(w.addr, w.bytes);
  if (i != --live_writes_) {
    std::swap(w, writes_[live_writes_]);
  }
}

Nanos CxlPool::PendingCommitTime(uint64_t addr, uint64_t len) const {
  Nanos latest = 0;
  uint64_t first = CachelineFloor(addr);
  uint64_t end = first + CachelinesTouched(addr, len) * kCachelineSize;
  for (size_t i = 0; i < live_writes_; ++i) {
    const PostedWrite& w = writes_[i];
    if (w.first_line < end && first < w.end_line) {
      latest = std::max(latest, w.commit);
    }
  }
  return latest;
}

}  // namespace cxlpool::cxl

namespace cxlpool::cxl {

void CxlPool::RegisterSnoopTarget(HostId host, mem::WriteBackCache* cache) {
  CXLPOOL_CHECK(host.valid() && cache != nullptr);
  CXLPOOL_CHECK(host.value() < 32);  // bitmap-sized pods
  snoop_targets_.emplace_back(host, cache);
}

void CxlPool::TrackCacher(uint64_t line_addr, HostId host) {
  if (!back_invalidate_) {
    return;
  }
  cacher_bits_[line_addr] |= (1u << host.value());
}

void CxlPool::UntrackCacher(uint64_t line_addr, HostId host) {
  if (!back_invalidate_) {
    return;
  }
  auto it = cacher_bits_.find(line_addr);
  if (it == cacher_bits_.end()) {
    return;
  }
  it->second &= ~(1u << host.value());
  if (it->second == 0) {
    cacher_bits_.erase(it);
  }
}

int CxlPool::BackInvalidate(uint64_t addr, uint64_t len, HostId writer) {
  if (!back_invalidate_) {
    return 0;
  }
  int snoops = 0;
  uint64_t first = CachelineFloor(addr);
  uint64_t lines = CachelinesTouched(addr, len);
  for (uint64_t i = 0; i < lines; ++i) {
    uint64_t laddr = first + i * kCachelineSize;
    auto it = cacher_bits_.find(laddr);
    if (it == cacher_bits_.end()) {
      continue;
    }
    uint32_t bits = it->second;
    for (auto& [host, cache] : snoop_targets_) {
      if (host == writer || (bits & (1u << host.value())) == 0) {
        continue;
      }
      cache->Remove(laddr);
      ++snoops;
    }
    // Only the writer (if it caches the line) remains tracked.
    it->second &= (writer.valid() ? (1u << writer.value()) : 0u);
    if (it->second == 0) {
      cacher_bits_.erase(it);
    }
  }
  return snoops;
}

}  // namespace cxlpool::cxl
