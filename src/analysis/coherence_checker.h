// CoherenceChecker: a happens-before race detector for the software
// coherence protocol over the non-coherent CXL pool (paper §4.1).
//
// Nothing in the hardware model catches a missed publish/consume step —
// a cached Load where ReadFresh belongs silently reads stale bytes, an
// unflushed Store silently loses a write. This checker turns those bugs into typed,
// deterministic reports. It keeps shadow state per 64 B pool line:
//
//   - a monotonic *line version*, bumped by every publish (nt-store,
//     device DMA write, dirty writeback),
//   - the last publisher and publish time,
//   - per-host cached-copy state: the version snapshot the host's private
//     copy corresponds to, and whether the copy holds unpublished (dirty)
//     bytes,
//   - a small provenance ring of recent accesses with sim timestamps.
//
// Fed by CoherenceObserver events from instrumented HostAdapters, it
// reports four violation classes:
//
//   stale-read           a cached Load (or DMA snoop hit) observed a copy
//                        older than the latest publish, with no
//                        intervening ReadFresh — the consume half of the
//                        protocol was skipped.
//   unpublished-handoff  a doorbell/RPC/ownership transfer announced a
//                        region while the announcing host still held
//                        dirty (unpublished) lines in it — the publish
//                        half was skipped.
//   lost-publish         unpublished dirty bytes were destroyed: an
//                        nt-store or DMA write clobbered them, a
//                        writeback raced a newer publish, or the
//                        writeback path died. Attributes the adapter's
//                        anonymous lost_dirty_lines counter.
//   write-write race     two hosts held dirty copies of the same line
//                        with no ordering edge between them — last
//                        writeback wins, the other write vanishes.
//
// The checker is opt-in per CxlPod (AttachTo); with no checker attached
// the instrumentation is a null-pointer check per line. Checking is pure
// observation: it never alters simulated timing or data, so enabling it
// cannot mask or introduce protocol bugs.
#ifndef SRC_ANALYSIS_COHERENCE_CHECKER_H_
#define SRC_ANALYSIS_COHERENCE_CHECKER_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/units.h"
#include "src/cxl/coherence_observer.h"
#include "src/cxl/pod.h"
#include "src/obs/obs.h"

namespace cxlpool::analysis {

class CoherenceChecker : public cxl::CoherenceObserver {
 public:
  enum class ViolationType : uint8_t {
    kStaleRead = 0,
    kUnpublishedHandoff,
    kLostPublish,
    kWriteWriteRace,
  };
  static constexpr int kNumViolationTypes = 4;
  static std::string_view ViolationTypeName(ViolationType type);

  // One recent access to a line (provenance for violation reports).
  struct Access {
    Nanos time = 0;
    HostId host;
    cxl::CoherenceOp op = cxl::CoherenceOp::kLoadHit;
    uint64_t version = 0;  // line version at the time of the access
  };

  struct Violation {
    ViolationType type;
    uint64_t line_addr = 0;
    HostId offender;            // the agent whose access tripped the check
    HostId other;               // counterpart (publisher / dirty holder), if any
    uint64_t observed_version = 0;  // version the offender acted on
    uint64_t latest_version = 0;    // line version at detection time
    Nanos time = 0;
    std::string context;        // human-readable detail (handoff site, op)
    std::vector<Access> provenance;  // recent accesses, oldest first

    std::string ToString() const;
  };

  struct Options {
    // Violations retained verbatim for reporting; counters are unbounded.
    size_t max_recorded_violations = 256;
  };

  CoherenceChecker() : CoherenceChecker(Options{}) {}
  explicit CoherenceChecker(Options options) : options_(options) {}
  CoherenceChecker(const CoherenceChecker&) = delete;
  CoherenceChecker& operator=(const CoherenceChecker&) = delete;
  ~CoherenceChecker() override { Detach(); }

  // Attaches to every host of `pod`. The checker must outlive the pod's
  // traffic (it detaches itself on destruction). Back-Invalidate pods are
  // handled: BI snoops count as ordering edges. When the pod has an
  // observability bundle (CxlPodConfig::obs), each detected violation is
  // noted in the offender host's flight ring and triggers one
  // flight-recorder dump (so the per-host history is preserved at
  // first-detection time).
  void AttachTo(cxl::CxlPod& pod);
  void Detach();

  // The checker is an oracle, not a metric: it keeps its own counts. A
  // bench that snapshots a registry copies the final values in once, at the
  // end: coherence.violations{type} and coherence.events_seen.
  void ExportCounts(obs::Registry& registry) const;

  // cxl::CoherenceObserver:
  void OnLineEvent(const cxl::CoherenceEvent& ev) override;
  void OnHandoff(HostId host, uint64_t addr, uint64_t len,
                 std::string_view what, Nanos time) override;

  uint64_t violation_count() const { return total_violations_; }
  uint64_t count(ViolationType type) const {
    return counts_[static_cast<size_t>(type)];
  }
  // First `max_recorded_violations` violations, in detection order.
  const std::vector<Violation>& violations() const { return violations_; }
  uint64_t events_seen() const { return events_seen_; }

  // Multi-line human-readable summary ("coherence check: clean, N events"
  // or per-type counts plus the first few full reports).
  std::string Report() const;

 private:
  static constexpr size_t kProvenanceRing = 6;

  struct HostCopy {
    uint64_t version = 0;     // line version this copy corresponds to
    bool dirty = false;
    uint64_t dirty_base = 0;  // line version when the copy first went dirty
  };

  struct LineState {
    uint64_t version = 0;
    HostId last_publisher;
    cxl::CoherenceOp last_publish_op = cxl::CoherenceOp::kStoreNt;
    Nanos last_publish_time = 0;
    // Keyed by host id value; pods are small (<= 20 hosts).
    std::unordered_map<uint32_t, HostCopy> copies;
    std::array<Access, kProvenanceRing> ring;
    uint8_t ring_next = 0;
    uint8_t ring_count = 0;
  };

  LineState& Line(uint64_t line_addr) { return lines_[line_addr]; }
  void RecordAccess(LineState& line, const cxl::CoherenceEvent& ev);
  void Publish(LineState& line, const cxl::CoherenceEvent& ev);
  void ReportViolation(ViolationType type, const LineState& line,
                       uint64_t line_addr, HostId offender, HostId other,
                       uint64_t observed_version, Nanos time,
                       std::string context);

  Options options_;
  cxl::CxlPod* pod_ = nullptr;
  std::unordered_map<uint64_t, LineState> lines_;
  std::vector<Violation> violations_;
  std::array<uint64_t, kNumViolationTypes> counts_ = {};
  uint64_t total_violations_ = 0;
  uint64_t events_seen_ = 0;
};

}  // namespace cxlpool::analysis

#endif  // SRC_ANALYSIS_COHERENCE_CHECKER_H_
