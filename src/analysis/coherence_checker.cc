#include "src/analysis/coherence_checker.h"

#include <sstream>

#include "src/common/check.h"

namespace cxlpool::analysis {

using cxl::CoherenceOp;
using cxl::CoherenceOpName;

std::string_view CoherenceChecker::ViolationTypeName(ViolationType type) {
  switch (type) {
    case ViolationType::kStaleRead:
      return "stale-read";
    case ViolationType::kUnpublishedHandoff:
      return "unpublished-handoff";
    case ViolationType::kLostPublish:
      return "lost-publish";
    case ViolationType::kWriteWriteRace:
      return "write-write-race";
  }
  return "unknown";
}

std::string CoherenceChecker::Violation::ToString() const {
  std::ostringstream os;
  os << ViolationTypeName(type) << " @line 0x" << std::hex << line_addr
     << std::dec << " t=" << time << "ns host" << offender;
  if (other.valid()) {
    os << " vs host" << other;
  }
  os << " (saw v" << observed_version << ", latest v" << latest_version << "): "
     << context;
  if (!provenance.empty()) {
    os << "\n    recent accesses:";
    for (const Access& a : provenance) {
      os << "\n      t=" << a.time << "ns host" << a.host << " "
         << CoherenceOpName(a.op) << " v" << a.version;
    }
  }
  return os.str();
}

void CoherenceChecker::AttachTo(cxl::CxlPod& pod) {
  CXLPOOL_CHECK(pod_ == nullptr);
  pod_ = &pod;
  pod.SetCoherenceObserver(this);
}

void CoherenceChecker::Detach() {
  if (pod_ != nullptr) {
    pod_->SetCoherenceObserver(nullptr);
    pod_ = nullptr;
  }
}

void CoherenceChecker::ExportCounts(obs::Registry& registry) const {
  for (int t = 0; t < kNumViolationTypes; ++t) {
    auto type = static_cast<ViolationType>(t);
    registry.GetCounter("coherence.violations",
                        {{"type", std::string(ViolationTypeName(type))}})
        ->Add(count(type));
  }
  registry.GetCounter("coherence.events_seen")->Add(events_seen_);
}

void CoherenceChecker::RecordAccess(LineState& line,
                                    const cxl::CoherenceEvent& ev) {
  line.ring[line.ring_next] = Access{ev.time, ev.host, ev.op, line.version};
  line.ring_next = static_cast<uint8_t>((line.ring_next + 1) % kProvenanceRing);
  if (line.ring_count < kProvenanceRing) {
    ++line.ring_count;
  }
}

void CoherenceChecker::ReportViolation(ViolationType type,
                                       const LineState& line,
                                       uint64_t line_addr, HostId offender,
                                       HostId other, uint64_t observed_version,
                                       Nanos time, std::string context) {
  ++total_violations_;
  ++counts_[static_cast<size_t>(type)];
  obs::Observability* obs = pod_ != nullptr ? pod_->obs() : nullptr;
  if (obs != nullptr) {
    // Land the offending operation in the offender's flight ring *before*
    // dumping, so the dump always contains it.
    obs->flight().Note(
        time, offender.value(), "coherence",
        "%s line=0x%llx v%llu (latest v%llu) other=h%u %s",
        std::string(ViolationTypeName(type)).c_str(),
        (unsigned long long)line_addr, (unsigned long long)observed_version,
        (unsigned long long)line.version, other.value(), context.c_str());
    obs->DumpFlight("coherence violation: " +
                    std::string(ViolationTypeName(type)));
  }
  if (violations_.size() >= options_.max_recorded_violations) {
    return;
  }
  Violation v;
  v.type = type;
  v.line_addr = line_addr;
  v.offender = offender;
  v.other = other;
  v.observed_version = observed_version;
  v.latest_version = line.version;
  v.time = time;
  v.context = std::move(context);
  // Unroll the ring oldest-first.
  v.provenance.reserve(line.ring_count);
  for (uint8_t i = 0; i < line.ring_count; ++i) {
    size_t idx = (line.ring_next + kProvenanceRing - line.ring_count + i) %
                 kProvenanceRing;
    v.provenance.push_back(line.ring[idx]);
  }
  violations_.push_back(std::move(v));
}

void CoherenceChecker::Publish(LineState& line, const cxl::CoherenceEvent& ev) {
  ++line.version;
  line.last_publisher = ev.host;
  line.last_publish_op = ev.op;
  line.last_publish_time = ev.time;
  // The publisher's own private copy is gone: nt-stores and DMA writes
  // drop it (root-complex snoop), writebacks remove the line.
  line.copies.erase(ev.host.value());
  // Under CXL 3.0 Back-Invalidate emulation a pool write snoops out every
  // remote copy — that is a hardware ordering edge, so remote copies are
  // simply forgotten rather than flagged stale later.
  bool bi = pod_ != nullptr && pod_->pool().back_invalidate();
  if (bi && (ev.op == CoherenceOp::kStoreNt || ev.op == CoherenceOp::kDmaWrite)) {
    line.copies.clear();
  }
}

void CoherenceChecker::OnLineEvent(const cxl::CoherenceEvent& ev) {
  ++events_seen_;
  LineState& line = Line(ev.line_addr);

  switch (ev.op) {
    case CoherenceOp::kLoadMiss: {
      // Fresh fetch from the pool: the private copy now corresponds to the
      // latest published version.
      line.copies[ev.host.value()] = HostCopy{line.version, false, 0};
      break;
    }

    case CoherenceOp::kLoadHit:
    case CoherenceOp::kDmaReadHit: {
      auto it = line.copies.find(ev.host.value());
      // An untracked hit can only happen if the checker attached after
      // traffic started; adopt the copy at the current version.
      if (it == line.copies.end()) {
        line.copies[ev.host.value()] = HostCopy{line.version, false, 0};
        break;
      }
      const HostCopy& copy = it->second;
      // Reading your own unpublished dirty bytes is coherent locally; the
      // cross-host hazard for dirty copies is reported at publish time.
      if (!copy.dirty && copy.version < line.version) {
        ReportViolation(
            ViolationType::kStaleRead, line, ev.line_addr, ev.host,
            line.last_publisher, copy.version, ev.time,
            std::string(CoherenceOpName(ev.op)) +
                " served from a private copy predating the latest publish (" +
                std::string(CoherenceOpName(line.last_publish_op)) + " by host " +
                std::to_string(line.last_publisher.value()) + " at t=" +
                std::to_string(line.last_publish_time) +
                "ns); consume with ReadFresh, not a cached Load");
      }
      break;
    }

    case CoherenceOp::kDmaReadMiss:
      // Served from pool media: fresh by construction, installs nothing.
      break;

    case CoherenceOp::kStoreHit:
    case CoherenceOp::kStoreMiss: {
      HostCopy& copy = line.copies[ev.host.value()];
      if (ev.op == CoherenceOp::kStoreMiss) {
        copy.version = line.version;  // RFO fetched the current bytes
      }
      if (!copy.dirty) {
        copy.dirty = true;
        copy.dirty_base = copy.version;
      }
      // A second host going dirty on the same line is a write-write race:
      // whichever writeback lands last silently wins.
      for (const auto& [other_host, other_copy] : line.copies) {
        if (other_host == ev.host.value() || !other_copy.dirty) {
          continue;
        }
        ReportViolation(
            ViolationType::kWriteWriteRace, line, ev.line_addr, ev.host,
            HostId(other_host), copy.version, ev.time,
            "cached store while host " + std::to_string(other_host) +
                " holds unpublished dirty bytes on the same line; no "
                "ordering edge between the writers");
      }
      break;
    }

    case CoherenceOp::kStoreNt:
    case CoherenceOp::kDmaWrite: {
      // Publishing over another host's unpublished dirty copy: that copy's
      // eventual writeback will clobber this publish (or be clobbered) —
      // either way one write is lost.
      for (const auto& [other_host, other_copy] : line.copies) {
        if (other_host == ev.host.value() || !other_copy.dirty) {
          continue;
        }
        ReportViolation(
            ViolationType::kLostPublish, line, ev.line_addr, ev.host,
            HostId(other_host), line.version, ev.time,
            std::string(CoherenceOpName(ev.op)) + " while host " +
                std::to_string(other_host) +
                " holds unpublished dirty bytes (dirtied at v" +
                std::to_string(other_copy.dirty_base) +
                "); their write-back and this publish race");
      }
      Publish(line, ev);
      break;
    }

    case CoherenceOp::kFlushWriteback:
    case CoherenceOp::kEvictWriteback: {
      auto it = line.copies.find(ev.host.value());
      if (it != line.copies.end() && it->second.dirty &&
          it->second.dirty_base < line.version) {
        // The written-back line was dirtied against an older version: the
        // full-line writeback erases every publish made since.
        ReportViolation(
            ViolationType::kLostPublish, line, ev.line_addr, ev.host,
            line.last_publisher, it->second.dirty_base, ev.time,
            std::string(CoherenceOpName(ev.op)) + " of a line dirtied at v" +
                std::to_string(it->second.dirty_base) +
                " overwrites newer publishes (latest by host " +
                std::to_string(line.last_publisher.value()) + ")");
      }
      Publish(line, ev);
      break;
    }

    case CoherenceOp::kInvalidateDrop:
    case CoherenceOp::kEvictClean: {
      line.copies.erase(ev.host.value());
      break;
    }

    case CoherenceOp::kDirtyLost: {
      // The adapter destroyed unpublished dirty bytes (nt-store overwrite,
      // DMA snoop, dead writeback path). This is the attributed form of
      // the anonymous lost_dirty_lines counter.
      ReportViolation(
          ViolationType::kLostPublish, line, ev.line_addr, ev.host,
          HostId::Invalid(), line.version, ev.time,
          "unpublished dirty bytes destroyed without write-back "
          "(lost_dirty_lines); Flush before overwriting or losing the path");
      line.copies.erase(ev.host.value());
      break;
    }
  }

  RecordAccess(line, ev);
}

void CoherenceChecker::OnHandoff(HostId host, uint64_t addr, uint64_t len,
                                 std::string_view what, Nanos time) {
  ++events_seen_;
  uint64_t first = CachelineFloor(addr);
  uint64_t n = CachelinesTouched(addr, len);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t laddr = first + i * kCachelineSize;
    auto lit = lines_.find(laddr);
    if (lit == lines_.end()) {
      continue;
    }
    LineState& line = lit->second;
    auto cit = line.copies.find(host.value());
    if (cit == line.copies.end() || !cit->second.dirty) {
      continue;
    }
    ReportViolation(
        ViolationType::kUnpublishedHandoff, line, laddr, host,
        HostId::Invalid(), cit->second.version, time,
        "handoff '" + std::string(what) +
            "' announces a region with unpublished dirty bytes; StoreNt or "
            "Flush before ringing");
  }
}

std::string CoherenceChecker::Report() const {
  std::ostringstream os;
  if (total_violations_ == 0) {
    os << "coherence check: clean (" << events_seen_ << " events, "
       << lines_.size() << " lines tracked)";
    return os.str();
  }
  os << "coherence check: " << total_violations_ << " violation(s) over "
     << events_seen_ << " events";
  for (int t = 0; t < kNumViolationTypes; ++t) {
    if (counts_[t] == 0) {
      continue;
    }
    os << "\n  " << ViolationTypeName(static_cast<ViolationType>(t)) << ": "
       << counts_[t];
  }
  size_t shown = 0;
  for (const Violation& v : violations_) {
    if (shown++ >= 8) {
      os << "\n  ... (" << (violations_.size() - 8) << " more recorded)";
      break;
    }
    os << "\n  " << v.ToString();
  }
  return os.str();
}

}  // namespace cxlpool::analysis
