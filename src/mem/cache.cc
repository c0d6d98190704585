#include "src/mem/cache.h"

#include <cstring>

#include "src/common/check.h"

namespace cxlpool::mem {

WriteBackCache::WriteBackCache(size_t capacity_lines, const obs::Scope& scope)
    : capacity_lines_(capacity_lines),
      hits_(scope.GetCounter("cache.hits")),
      misses_(scope.GetCounter("cache.misses")),
      writebacks_(scope.GetCounter("cache.writebacks")),
      invalidations_(scope.GetCounter("cache.invalidations")) {}

WriteBackCache::Line* WriteBackCache::Find(uint64_t line_addr) {
  CXLPOOL_DCHECK(line_addr % kCachelineSize == 0);
  auto it = lines_.find(line_addr);
  if (it == lines_.end()) {
    misses_->Inc();
    return nullptr;
  }
  hits_->Inc();
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second.line;
}

const WriteBackCache::Line* WriteBackCache::Peek(uint64_t line_addr) const {
  auto it = lines_.find(line_addr);
  return it == lines_.end() ? nullptr : &it->second.line;
}

std::optional<WriteBackCache::EvictedLine> WriteBackCache::Install(
    uint64_t line_addr, const std::byte* data64, bool dirty) {
  CXLPOOL_DCHECK(line_addr % kCachelineSize == 0);
  if (capacity_lines_ == 0) {
    return std::nullopt;  // uncached mapping: nothing retained
  }
  auto it = lines_.find(line_addr);
  if (it != lines_.end()) {
    std::memcpy(it->second.line.data.data(), data64, kCachelineSize);
    it->second.line.dirty = it->second.line.dirty || dirty;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return std::nullopt;
  }

  std::optional<EvictedLine> victim;
  if (lines_.size() >= capacity_lines_) {
    uint64_t victim_addr = lru_.back();
    auto vit = lines_.find(victim_addr);
    CXLPOOL_CHECK(vit != lines_.end());
    EvictedLine ev;
    ev.line_addr = victim_addr;
    ev.dirty = vit->second.line.dirty;
    ev.data = vit->second.line.data;
    if (ev.dirty) {
      writebacks_->Inc();
    }
    lru_.pop_back();
    lines_.erase(vit);
    victim = ev;
  }

  lru_.push_front(line_addr);
  Entry entry;
  std::memcpy(entry.line.data.data(), data64, kCachelineSize);
  entry.line.dirty = dirty;
  entry.lru_it = lru_.begin();
  lines_.emplace(line_addr, std::move(entry));
  return victim;
}

std::optional<WriteBackCache::EvictedLine> WriteBackCache::Remove(uint64_t line_addr) {
  auto it = lines_.find(line_addr);
  if (it == lines_.end()) {
    return std::nullopt;
  }
  EvictedLine ev;
  ev.line_addr = line_addr;
  ev.dirty = it->second.line.dirty;
  ev.data = it->second.line.data;
  if (ev.dirty) {
    writebacks_->Inc();
  }
  invalidations_->Inc();
  lru_.erase(it->second.lru_it);
  lines_.erase(it);
  return ev;
}

void WriteBackCache::DropAll() {
  lines_.clear();
  lru_.clear();
}

}  // namespace cxlpool::mem
