// Per-host write-back cache model for CXL pool memory.
//
// CXL memory pool devices shipping today are not cache-coherent across
// hosts (paper §3): each host's CPU caches lines of pool memory privately,
// and nothing invalidates them when another host (or a device DMA) writes
// the same line in the pool. This class models exactly that hazard: cached
// lines hold real byte copies that can go stale, dirty lines are invisible
// to other hosts until written back, and the software-coherence primitives
// (non-temporal store, flush, invalidate) are the only remedies.
#ifndef SRC_MEM_CACHE_H_
#define SRC_MEM_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "src/common/units.h"
#include "src/obs/registry.h"

namespace cxlpool::mem {

class WriteBackCache {
 public:
  struct Line {
    std::array<std::byte, kCachelineSize> data;
    bool dirty = false;
  };

  struct EvictedLine {
    uint64_t line_addr = 0;
    bool dirty = false;
    std::array<std::byte, kCachelineSize> data;
  };

  // capacity_lines == 0 means "no caching" (every access misses); useful
  // for modeling uncached mappings. Counts cache.hits / cache.misses /
  // cache.writebacks (dirty evictions + flush writebacks) /
  // cache.invalidations under `scope`.
  WriteBackCache(size_t capacity_lines, const obs::Scope& scope);

  // Returns the cached line (bumping LRU) or nullptr on miss. `line_addr`
  // must be 64-byte aligned. The returned pointer is valid until the next
  // mutating call.
  Line* Find(uint64_t line_addr);
  const Line* Peek(uint64_t line_addr) const;  // no LRU bump, not counted

  // Installs a line copy; returns the evicted victim when the set is full.
  // Installing over an existing line replaces its content.
  std::optional<EvictedLine> Install(uint64_t line_addr,
                                     const std::byte* data64, bool dirty);

  // Removes a line, returning its content so callers can write back dirty
  // data. No-op (nullopt) if absent.
  std::optional<EvictedLine> Remove(uint64_t line_addr);

  // Drops everything; dirty lines are returned via repeated Remove by the
  // caller if it cares — this is the "power off" path used in failover
  // tests, so it intentionally loses dirty data.
  void DropAll();

  size_t size() const { return lines_.size(); }
  size_t capacity() const { return capacity_lines_; }

 private:
  struct Entry {
    Line line;
    std::list<uint64_t>::iterator lru_it;
  };

  size_t capacity_lines_;
  std::unordered_map<uint64_t, Entry> lines_;
  std::list<uint64_t> lru_;  // front = most recent
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* writebacks_;
  obs::Counter* invalidations_;
};

}  // namespace cxlpool::mem

#endif  // SRC_MEM_CACHE_H_
