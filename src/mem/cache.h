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
#include <optional>
#include <vector>

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

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_lines_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // A resident line in the slab, linked into the LRU list.
  struct Entry {
    Line line;
    uint64_t addr = 0;
    uint32_t prev = kNil;  // towards the most recent
    uint32_t next = kNil;  // towards the least recent; free-list link
  };
  // An open-addressed directory bucket: a line address and its slab index
  // (kNil when the bucket is empty).
  struct Bucket {
    uint64_t addr = 0;
    uint32_t entry = kNil;
  };

  // Index of `line_addr`'s bucket, or of the empty bucket ending its probe
  // chain.
  size_t Probe(uint64_t line_addr) const;
  // Empties bucket `b`, shifting later members of its probe chain back.
  void EraseBucket(size_t b);
  void Unlink(uint32_t e);
  void PushFront(uint32_t e);
  // Makes slab entry `e` the most recent line.
  void Touch(uint32_t e);
  // Removes the line in bucket `b` from the directory and returns its
  // content; its slab entry goes on the free list.
  EvictedLine Take(size_t b);

  size_t capacity_lines_;
  size_t size_ = 0;
  std::vector<Entry> slab_;
  uint32_t free_ = kNil;
  std::vector<Bucket> buckets_;  // power-of-two size, load <= 1/2
  uint32_t head_ = kNil;         // most recent
  uint32_t tail_ = kNil;         // least recent: the next victim
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* writebacks_;
  obs::Counter* invalidations_;
};

}  // namespace cxlpool::mem

#endif  // SRC_MEM_CACHE_H_
