// MemoryBackend: the actual bytes behind a memory region (a host's local
// DRAM, a CXL multi-headed device's media, an SSD's flash). Purely
// functional storage — all timing lives in the adapters and links that
// route accesses here. The bytes are an anonymous memory mapping, not heap
// memory: they read as zero and take no host RAM until first written.
//
// RAS model: media can carry per-64B-line *poison* (uncorrectable ECC).
// Poison is injected by the fault model (CxlPod::PoisonLine) and cleared
// when a write fully covers a poisoned line — matching real CXL.mem
// semantics where a full-line store lays down fresh ECC. Reads do not
// consult poison themselves (this layer is untimed storage); the timed
// access paths (HostAdapter loads, DMA) query RangePoisoned and surface
// kDataLoss to their callers.
#ifndef SRC_MEM_BACKEND_H_
#define SRC_MEM_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>

namespace cxlpool::mem {

class MemoryBackend {
 public:
  // `name` is for diagnostics ("host0-dram", "mhd2-media").
  MemoryBackend(std::string name, uint64_t size_bytes);
  ~MemoryBackend();
  MemoryBackend(const MemoryBackend&) = delete;
  MemoryBackend& operator=(const MemoryBackend&) = delete;

  uint64_t size() const { return size_; }
  const std::string& name() const { return name_; }

  // Copies bytes out of / into the backing store. Offsets are
  // backend-relative; callers must stay in bounds (CHECKed).
  void Read(uint64_t offset, std::span<std::byte> out) const;
  void Write(uint64_t offset, std::span<const std::byte> in);

  // --- Poison (per 64B line, offsets are backend-relative) ---

  // Marks the line containing `offset` poisoned. Idempotent.
  void PoisonLine(uint64_t offset);
  // Clears poison on the line containing `offset` (scrub/repair path).
  void ClearPoison(uint64_t offset);
  // True if the line containing `offset` is poisoned.
  bool LinePoisoned(uint64_t offset) const;
  // True if any line overlapping [offset, offset+len) is poisoned.
  bool RangePoisoned(uint64_t offset, uint64_t len) const;
  size_t poisoned_line_count() const { return poisoned_lines_.size(); }

  // Direct pointer for tests and zero-copy internals.
  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }

 private:
  std::string name_;
  size_t size_;
  std::byte* data_ = nullptr;  // mapped; nullptr when size_ is 0
  // 64B-line-aligned offsets of poisoned lines. Empty in the common case,
  // so the healthy-path overhead is one empty() check per access.
  std::unordered_set<uint64_t> poisoned_lines_;
};

}  // namespace cxlpool::mem

#endif  // SRC_MEM_BACKEND_H_
