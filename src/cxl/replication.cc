#include "src/cxl/replication.h"

#include <array>
#include <cstring>
#include <string>

#include "src/common/check.h"

namespace cxlpool::cxl {

namespace {

// FNV-1a over one 64B line; cheap, deterministic, and collision-safe enough
// for corruption detection in a simulator.
uint64_t HashLine(std::span<const std::byte> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    h ^= static_cast<uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Result<ReplicatedRegion> ReplicatedRegion::Create(CxlPool& pool, uint64_t size,
                                                  int replicas,
                                                  const obs::Scope& scope) {
  if (replicas < 2) {
    return InvalidArgument("replication needs >= 2 replicas");
  }
  // Count healthy MHDs.
  int healthy = 0;
  for (size_t m = 0; m < pool.mhd_count(); ++m) {
    if (!pool.mhd(MhdId(static_cast<uint32_t>(m))).failed()) {
      ++healthy;
    }
  }
  if (healthy < replicas) {
    return ResourceExhausted("pod has " + std::to_string(healthy) +
                             " healthy MHDs, need " + std::to_string(replicas));
  }

  ReplicatedRegion region;
  region.size_ = size;
  int placed = 0;
  for (size_t m = 0; m < pool.mhd_count() && placed < replicas; ++m) {
    MhdId id(static_cast<uint32_t>(m));
    if (pool.mhd(id).failed()) {
      continue;
    }
    ASSIGN_OR_RETURN(PoolSegment seg, pool.Allocate(size, id));
    region.segments_.push_back(seg);
    ++placed;
  }
  CXLPOOL_CHECK(placed == replicas);
  region.line_checksums_.assign(region.LineCount(), 0);
  region.checksum_known_.assign(region.LineCount(), 0);
  region.publishes_ = scope.GetCounter("replication.publishes");
  region.degraded_writes_ = scope.GetCounter("replication.degraded_writes");
  region.failover_reads_ = scope.GetCounter("replication.failover_reads");
  region.lines_scrubbed_ = scope.GetCounter("scrub.lines_scrubbed");
  region.scrub_repairs_ = scope.GetCounter("scrub.repairs");
  region.scrub_unrecoverable_ = scope.GetCounter("scrub.unrecoverable");
  region.scrub_conflicts_ = scope.GetCounter("scrub.conflicts");
  return region;
}

uint64_t ReplicatedRegion::LineCount() const {
  return CachelineCeil(size_) / kCachelineSize;
}

sim::Task<Status> ReplicatedRegion::Publish(HostAdapter& host, uint64_t offset,
                                            std::span<const std::byte> in) {
  if (offset + in.size() > size_) {
    co_return OutOfRange("write beyond replicated region");
  }
  publishes_->Inc();
  // Record per-line checksums of the intended content BEFORE the writes:
  // the checksum describes what every replica should hold, so the scrubber
  // can repair a replica the write missed. Lines only partially covered by
  // this publish lose their checksum (the line's full content is unknown).
  uint64_t first_line = offset / kCachelineSize;
  uint64_t last_line = (offset + in.size() - 1) / kCachelineSize;
  for (uint64_t line = first_line; line <= last_line; ++line) {
    uint64_t lo = line * kCachelineSize;
    if (lo >= offset && lo + kCachelineSize <= offset + in.size()) {
      line_checksums_[line] =
          HashLine(in.subspan(lo - offset, kCachelineSize));
      checksum_known_[line] = 1;
    } else {
      checksum_known_[line] = 0;
    }
  }
  int ok = 0;
  Status last_error = OkStatus();
  // Posted nt-stores: issuing them back-to-back overlaps the commits.
  for (const PoolSegment& seg : segments_) {
    Status st = co_await host.StoreNt(seg.base + offset, in);
    if (st.ok()) {
      ++ok;
    } else {
      last_error = st;
    }
  }
  if (ok == 0) {
    co_return last_error;
  }
  if (ok < static_cast<int>(segments_.size())) {
    degraded_writes_->Inc();
  }
  co_return OkStatus();
}

sim::Task<Status> ReplicatedRegion::ReadFresh(HostAdapter& host, uint64_t offset,
                                              std::span<std::byte> out) {
  if (offset + out.size() > size_) {
    co_return OutOfRange("read beyond replicated region");
  }
  Status last_error = Internal("no replicas");
  for (size_t i = 0; i < segments_.size(); ++i) {
    uint64_t addr = segments_[i].base + offset;
    Status st = co_await host.ReadFresh(addr, out);
    if (st.ok()) {
      if (i > 0) {
        failover_reads_->Inc();
      }
      co_return OkStatus();
    }
    last_error = st;
  }
  co_return last_error;
}

sim::Task<Status> ReplicatedRegion::ScrubOnce(HostAdapter& host) {
  const size_t n = segments_.size();
  std::vector<std::array<std::byte, kCachelineSize>> data(n);
  std::vector<Status> read_status(n, OkStatus());

  for (uint64_t line = 0; line < LineCount(); ++line) {
    lines_scrubbed_->Inc();
    bool any_poison = false;
    for (size_t i = 0; i < n; ++i) {
      // The allocator rounds segments to 4 KiB, so a full-line access past
      // size_ on the final line stays inside the segment.
      uint64_t addr = segments_[i].base + line * kCachelineSize;
      read_status[i] = co_await host.ReadFresh(addr, data[i]);
      if (read_status[i].code() == StatusCode::kDataLoss) {
        any_poison = true;
      }
    }

    // Pick the reference copy: the replica matching the published checksum
    // if we have one, else the first healthy read. Divergent or poisoned
    // replicas are repaired from it.
    int ref = -1;
    bool conflict = false;
    if (checksum_known_[line] != 0) {
      for (size_t i = 0; i < n; ++i) {
        if (read_status[i].ok() &&
            HashLine(data[i]) == line_checksums_[line]) {
          ref = static_cast<int>(i);
          break;
        }
      }
      if (ref < 0) {
        // Publish-version wins when any replica still holds it; here NONE
        // does — every healthy copy diverged from the published content
        // (e.g. both sides of a partition scribbled independently). Tie:
        // converge on the lowest healthy index, flag the line, and adopt
        // the winner's checksum so the next sweep sees a settled line.
        // Never byte-merged, never silent.
        for (size_t i = 0; i < n; ++i) {
          if (read_status[i].ok()) {
            ref = static_cast<int>(i);
            conflict = true;
            line_checksums_[line] = HashLine(data[i]);
            break;
          }
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (read_status[i].ok()) {
          ref = static_cast<int>(i);
          break;
        }
      }
      // With no published checksum there is no authority to arbitrate:
      // disagreement among healthy replicas is also a conflict, resolved
      // by the same deterministic lowest-index rule.
      if (ref >= 0) {
        for (size_t i = ref + 1; i < n; ++i) {
          if (read_status[i].ok() &&
              std::memcmp(data[i].data(), data[ref].data(),
                          kCachelineSize) != 0) {
            conflict = true;
            break;
          }
        }
      }
    }
    if (conflict) {
      scrub_conflicts_->Inc();
    }
    if (ref < 0) {
      // No usable copy this sweep. Only media loss makes that
      // unrecoverable; pure unavailability (links/MHDs down) is transient
      // and simply retried next sweep.
      if (any_poison || checksum_known_[line] != 0) {
        bool all_unavailable = true;
        for (size_t i = 0; i < n; ++i) {
          if (read_status[i].code() != StatusCode::kUnavailable) {
            all_unavailable = false;
          }
        }
        if (!all_unavailable) {
          scrub_unrecoverable_->Inc();
        }
      }
      continue;
    }

    for (size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) == ref) {
        continue;
      }
      bool poisoned = read_status[i].code() == StatusCode::kDataLoss;
      bool divergent =
          read_status[i].ok() &&
          std::memcmp(data[i].data(), data[ref].data(), kCachelineSize) != 0;
      if (!poisoned && !divergent) {
        continue;  // healthy and identical, or transiently unreachable
      }
      // Full-line nt-store: restores the bytes AND clears poison on the
      // repaired media line (a covering write lays down fresh ECC).
      uint64_t addr = segments_[i].base + line * kCachelineSize;
      Status st = co_await host.StoreNt(
          addr, std::span<const std::byte>(data[ref].data(), kCachelineSize));
      if (st.ok()) {
        scrub_repairs_->Inc();
      }
      // A failed repair (path just went down) is retried next sweep.
    }
  }
  co_return OkStatus();
}

sim::Task<> ReplicatedRegion::ScrubLoop(HostAdapter& host, Nanos interval,
                                        sim::StopToken& stop) {
  while (!stop.stopped()) {
    co_await sim::Delay(host.loop(), interval);
    if (stop.stopped()) {
      break;
    }
    Status st = co_await ScrubOnce(host);
    (void)st;  // per-line outcomes are counted; a sweep itself cannot fail
  }
}

}  // namespace cxlpool::cxl
