#include "src/mem/backend.h"

#include <sys/mman.h>

#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/units.h"

namespace cxlpool::mem {

MemoryBackend::MemoryBackend(std::string name, uint64_t size_bytes)
    : name_(std::move(name)), size_(size_bytes) {
  if (size_ == 0) {
    return;
  }
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                 -1, 0);
  CXLPOOL_CHECK_MSG(p != MAP_FAILED, "backend '%s': cannot map %zu bytes",
                    name_.c_str(), size_);
  data_ = static_cast<std::byte*>(p);
}

MemoryBackend::~MemoryBackend() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

void MemoryBackend::Read(uint64_t offset, std::span<std::byte> out) const {
  CXLPOOL_CHECK_MSG(offset + out.size() <= size_,
                    "backend '%s': read of %zu bytes at offset %llu exceeds "
                    "backend size %zu",
                    name_.c_str(), out.size(),
                    static_cast<unsigned long long>(offset), size_);
  std::memcpy(out.data(), data_ + offset, out.size());
}

void MemoryBackend::Write(uint64_t offset, std::span<const std::byte> in) {
  CXLPOOL_CHECK_MSG(offset + in.size() <= size_,
                    "backend '%s': write of %zu bytes at offset %llu exceeds "
                    "backend size %zu",
                    name_.c_str(), in.size(),
                    static_cast<unsigned long long>(offset), size_);
  std::memcpy(data_ + offset, in.data(), in.size());
  if (!poisoned_lines_.empty()) {
    // A write that fully covers a poisoned line lays down fresh ECC and
    // clears the poison; a partial write would have to read-modify-write
    // the bad half, so the line stays poisoned.
    uint64_t first = CachelineFloor(offset);
    for (uint64_t line = first; line < offset + in.size();
         line += kCachelineSize) {
      if (line >= offset && line + kCachelineSize <= offset + in.size()) {
        poisoned_lines_.erase(line);
      }
    }
  }
}

void MemoryBackend::PoisonLine(uint64_t offset) {
  CXLPOOL_CHECK_MSG(offset < size_,
                    "backend '%s': poison at offset %llu exceeds size %zu",
                    name_.c_str(), static_cast<unsigned long long>(offset),
                    size_);
  poisoned_lines_.insert(CachelineFloor(offset));
}

void MemoryBackend::ClearPoison(uint64_t offset) {
  poisoned_lines_.erase(CachelineFloor(offset));
}

bool MemoryBackend::LinePoisoned(uint64_t offset) const {
  if (poisoned_lines_.empty()) {
    return false;
  }
  return poisoned_lines_.contains(CachelineFloor(offset));
}

bool MemoryBackend::RangePoisoned(uint64_t offset, uint64_t len) const {
  if (poisoned_lines_.empty() || len == 0) {
    return false;
  }
  for (uint64_t line = CachelineFloor(offset); line < offset + len;
       line += kCachelineSize) {
    if (poisoned_lines_.contains(line)) {
      return true;
    }
  }
  return false;
}

}  // namespace cxlpool::mem
