#include "src/mem/cache.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace cxlpool::mem {

namespace {
constexpr size_t kInitialBuckets = 16;

// Bucket hash of a line address; callers mask it to the table size.
size_t Hash(uint64_t line_addr) {
  uint64_t h = (line_addr / kCachelineSize) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h ^ (h >> 32));
}
}  // namespace

WriteBackCache::WriteBackCache(size_t capacity_lines, const obs::Scope& scope)
    : capacity_lines_(capacity_lines),
      buckets_(kInitialBuckets),
      hits_(scope.GetCounter("cache.hits")),
      misses_(scope.GetCounter("cache.misses")),
      writebacks_(scope.GetCounter("cache.writebacks")),
      invalidations_(scope.GetCounter("cache.invalidations")) {}

size_t WriteBackCache::Probe(uint64_t line_addr) const {
  size_t mask = buckets_.size() - 1;
  for (size_t b = Hash(line_addr) & mask;; b = (b + 1) & mask) {
    if (buckets_[b].entry == kNil || buckets_[b].addr == line_addr) {
      return b;
    }
  }
}

void WriteBackCache::EraseBucket(size_t b) {
  size_t mask = buckets_.size() - 1;
  for (size_t next = (b + 1) & mask; buckets_[next].entry != kNil;
       next = (next + 1) & mask) {
    // The bucket at `next` may move back into the hole only if its probe
    // chain passes through it: its home is not cyclically in (b, next].
    size_t home = Hash(buckets_[next].addr) & mask;
    if (((next - home) & mask) >= ((next - b) & mask)) {
      buckets_[b] = buckets_[next];
      b = next;
    }
  }
  buckets_[b] = Bucket{};
}

void WriteBackCache::Unlink(uint32_t e) {
  Entry& entry = slab_[e];
  (entry.prev != kNil ? slab_[entry.prev].next : head_) = entry.next;
  (entry.next != kNil ? slab_[entry.next].prev : tail_) = entry.prev;
}

void WriteBackCache::PushFront(uint32_t e) {
  Entry& entry = slab_[e];
  entry.prev = kNil;
  entry.next = head_;
  (head_ != kNil ? slab_[head_].prev : tail_) = e;
  head_ = e;
}

void WriteBackCache::Touch(uint32_t e) {
  if (e != head_) {
    Unlink(e);
    PushFront(e);
  }
}

WriteBackCache::EvictedLine WriteBackCache::Take(size_t b) {
  uint32_t e = buckets_[b].entry;
  Entry& entry = slab_[e];
  EvictedLine ev;
  ev.line_addr = entry.addr;
  ev.dirty = entry.line.dirty;
  ev.data = entry.line.data;
  EraseBucket(b);
  Unlink(e);
  entry.next = free_;
  free_ = e;
  --size_;
  return ev;
}

WriteBackCache::Line* WriteBackCache::Find(uint64_t line_addr) {
  CXLPOOL_DCHECK(line_addr % kCachelineSize == 0);
  uint32_t e = buckets_[Probe(line_addr)].entry;
  if (e == kNil) {
    misses_->Inc();
    return nullptr;
  }
  hits_->Inc();
  Touch(e);
  return &slab_[e].line;
}

const WriteBackCache::Line* WriteBackCache::Peek(uint64_t line_addr) const {
  uint32_t e = buckets_[Probe(line_addr)].entry;
  return e == kNil ? nullptr : &slab_[e].line;
}

std::optional<WriteBackCache::EvictedLine> WriteBackCache::Install(
    uint64_t line_addr, const std::byte* data64, bool dirty) {
  CXLPOOL_DCHECK(line_addr % kCachelineSize == 0);
  if (capacity_lines_ == 0) {
    return std::nullopt;  // uncached mapping: nothing retained
  }
  size_t b = Probe(line_addr);
  if (uint32_t e = buckets_[b].entry; e != kNil) {
    Line& line = slab_[e].line;
    std::memcpy(line.data.data(), data64, kCachelineSize);
    line.dirty = line.dirty || dirty;
    Touch(e);
    return std::nullopt;
  }

  std::optional<EvictedLine> victim;
  if (size_ >= capacity_lines_) {
    victim = Take(Probe(slab_[tail_].addr));
    if (victim->dirty) {
      writebacks_->Inc();
    }
    b = Probe(line_addr);  // the erase may have shifted the chain
  }
  if ((size_ + 1) * 2 > buckets_.size()) {
    std::vector<Bucket> old(buckets_.size() * 2);
    old.swap(buckets_);
    for (const Bucket& bucket : old) {
      if (bucket.entry != kNil) {
        buckets_[Probe(bucket.addr)] = bucket;
      }
    }
    b = Probe(line_addr);
  }

  uint32_t e = free_;
  if (e != kNil) {
    free_ = slab_[e].next;
  } else {
    e = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Entry& entry = slab_[e];
  std::memcpy(entry.line.data.data(), data64, kCachelineSize);
  entry.line.dirty = dirty;
  entry.addr = line_addr;
  buckets_[b] = Bucket{line_addr, e};
  PushFront(e);
  ++size_;
  return victim;
}

std::optional<WriteBackCache::EvictedLine> WriteBackCache::Remove(uint64_t line_addr) {
  size_t b = Probe(line_addr);
  if (buckets_[b].entry == kNil) {
    return std::nullopt;
  }
  EvictedLine ev = Take(b);
  if (ev.dirty) {
    writebacks_->Inc();
  }
  invalidations_->Inc();
  return ev;
}

void WriteBackCache::DropAll() {
  slab_.clear();
  free_ = kNil;
  head_ = kNil;
  tail_ = kNil;
  size_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), Bucket{});
}

}  // namespace cxlpool::mem
