// The global simulated physical address space. Hosts, DMA engines, and the
// CXL fabric all resolve addresses through one AddressMap, which is what
// lets a PCIe device DMA into CXL pool memory with no device-model changes
// (the paper's "devices can directly use CXL memory as I/O buffers").
#ifndef SRC_MEM_ADDRESS_MAP_H_
#define SRC_MEM_ADDRESS_MAP_H_

#include <cstdint>
#include <map>
#include <span>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/mem/backend.h"

namespace cxlpool::mem {

enum class MemoryKind : uint8_t {
  kLocalDram,  // coherent, host-local DDR5
  kCxlPool,    // CXL pool memory — NOT cache-coherent across hosts
};

struct Region {
  uint64_t base = 0;
  uint64_t size = 0;
  MemoryKind kind = MemoryKind::kLocalDram;
  // For kLocalDram: the host whose DRAM this is. Device DMA to another
  // host's DRAM is rejected (that is exactly what PCIe pooling cannot do
  // without a switch — and what CXL pool memory provides instead).
  HostId dram_host;
  // For kCxlPool: the multi-headed device backing this range.
  MhdId mhd;
  MemoryBackend* backend = nullptr;
  uint64_t backend_offset = 0;

  bool Contains(uint64_t addr, uint64_t len) const {
    return addr >= base && addr + len <= base + size;
  }

  // Untimed access to the bytes at global address `addr`, for a range this
  // region contains: no map lookup, so a timed access resolves its region
  // once and reuses it for every line.
  void Read(uint64_t addr, std::span<std::byte> out) const {
    backend->Read(backend_offset + (addr - base), out);
  }
  void Write(uint64_t addr, std::span<const std::byte> in) const {
    backend->Write(backend_offset + (addr - base), in);
  }
  // OkStatus, or kDataLoss naming the backend if [addr, addr+len) touches
  // a poisoned line.
  Status CheckPoison(uint64_t addr, uint64_t len) const;
};

class AddressMap {
 public:
  AddressMap() = default;
  AddressMap(const AddressMap&) = delete;
  AddressMap& operator=(const AddressMap&) = delete;

  // Registers a region. Fails on overlap or missing backend.
  Status Register(const Region& region);

  // Region containing `addr`, or nullptr if unmapped. Regions are never
  // unregistered, so the pointer stays valid for the map's lifetime.
  const Region* Lookup(uint64_t addr) const;

  // Region containing the whole byte range, or error. Ranges spanning two
  // regions are rejected — allocators never produce them.
  Result<const Region*> Resolve(uint64_t addr, uint64_t len) const;

  // Functional (untimed) access used by DMA engines and tests once timing
  // has been charged elsewhere. CHECK-fails on unmapped ranges.
  void ReadBytes(uint64_t addr, std::span<std::byte> out) const;
  void WriteBytes(uint64_t addr, std::span<const std::byte> in);

  // --- Poison plumbing (fault injection / RAS) ---
  // Marks / clears / queries poison on the media line backing `addr`.
  // Status-returning so injection into an unmapped address is reported
  // rather than CHECK-fatal.
  Status PoisonLine(uint64_t addr);
  Status ClearPoison(uint64_t addr);
  // True if any media line backing [addr, addr+len) is poisoned. Unmapped
  // ranges are not poisoned. (Timed accesses check their resolved Region.)
  bool RangePoisoned(uint64_t addr, uint64_t len) const;

  size_t region_count() const { return regions_.size(); }

 private:
  std::map<uint64_t, Region> regions_;  // keyed by base
};

}  // namespace cxlpool::mem

#endif  // SRC_MEM_ADDRESS_MAP_H_
