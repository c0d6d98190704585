#include "src/mem/address_map.h"

#include <string>

#include "src/common/check.h"

namespace cxlpool::mem {

Status AddressMap::Register(const Region& region) {
  if (region.size == 0) {
    return InvalidArgument("empty region");
  }
  if (region.backend == nullptr) {
    return InvalidArgument("region has no backend");
  }
  if (region.backend_offset + region.size > region.backend->size()) {
    return OutOfRange("region exceeds backend capacity");
  }
  // Overlap check against neighbors.
  auto next = regions_.lower_bound(region.base);
  if (next != regions_.end() && next->second.base < region.base + region.size) {
    return AlreadyExists("region overlaps existing region at base " +
                         std::to_string(next->second.base));
  }
  if (next != regions_.begin()) {
    auto prev = std::prev(next);
    if (prev->second.base + prev->second.size > region.base) {
      return AlreadyExists("region overlaps existing region at base " +
                           std::to_string(prev->second.base));
    }
  }
  regions_.emplace(region.base, region);
  return OkStatus();
}

const Region* AddressMap::Lookup(uint64_t addr) const {
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  const Region& r = it->second;
  if (addr < r.base + r.size) {
    return &r;
  }
  return nullptr;
}

Result<const Region*> AddressMap::Resolve(uint64_t addr, uint64_t len) const {
  const Region* r = Lookup(addr);
  if (r == nullptr) {
    return Status(StatusCode::kNotFound,
                  "address " + std::to_string(addr) + " is unmapped");
  }
  if (!r->Contains(addr, len)) {
    return Status(StatusCode::kOutOfRange, "range crosses region boundary at " +
                                               std::to_string(r->base + r->size));
  }
  return r;
}

Status Region::CheckPoison(uint64_t addr, uint64_t len) const {
  if (backend->RangePoisoned(backend_offset + (addr - base), len)) {
    return DataLoss("poisoned line in backend '" + backend->name() +
                    "' at address " + std::to_string(addr));
  }
  return OkStatus();
}

void AddressMap::ReadBytes(uint64_t addr, std::span<std::byte> out) const {
  auto r = Resolve(addr, out.size());
  CXLPOOL_CHECK_OK(r.status());
  r.value()->Read(addr, out);
}

void AddressMap::WriteBytes(uint64_t addr, std::span<const std::byte> in) {
  auto r = Resolve(addr, in.size());
  CXLPOOL_CHECK_OK(r.status());
  r.value()->Write(addr, in);
}

Status AddressMap::PoisonLine(uint64_t addr) {
  auto r = Resolve(addr, 1);
  RETURN_IF_ERROR(r.status());
  const Region* region = r.value();
  region->backend->PoisonLine(region->backend_offset + (addr - region->base));
  return OkStatus();
}

Status AddressMap::ClearPoison(uint64_t addr) {
  auto r = Resolve(addr, 1);
  RETURN_IF_ERROR(r.status());
  const Region* region = r.value();
  region->backend->ClearPoison(region->backend_offset + (addr - region->base));
  return OkStatus();
}

bool AddressMap::RangePoisoned(uint64_t addr, uint64_t len) const {
  const Region* region = Lookup(addr);
  if (region == nullptr || !region->Contains(addr, len)) {
    return false;
  }
  return region->backend->RangePoisoned(
      region->backend_offset + (addr - region->base), len);
}

}  // namespace cxlpool::mem
