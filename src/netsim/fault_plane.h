// Directed per-link fault state for the message fabric (ISSUE 9 / paper
// §4-5 robustness): full partitions (both directions cut between host
// sets), asymmetric links (A→B delivers while B→A drops), and lossy
// links (seeded per-frame drop/duplicate/delay, which together with
// delay gives reorder). The pod's shared *media* cannot lose
// reachability — a CXL pool segment is either crashed or readable — but
// the host-to-host message path (retimers, switches, the management
// network a real orchestrator would ride) can. The plane models exactly
// that layer: message frames between two hosts are judged per directed
// (src, dst) pair at the consuming endpoint, while raw memory traffic is
// untouched.
//
// Determinism contract: verdicts for lossy links draw from a private
// seeded Rng, one draw sequence per plane, advanced only for frames that
// traverse a link with loss probabilities configured. Cut links and
// clean links never draw, so enabling tracing/observability (which never
// changes frame counts) cannot change the draw sequence, and same-seed
// runs judge identical frame streams identically.
#ifndef SRC_NETSIM_FAULT_PLANE_H_
#define SRC_NETSIM_FAULT_PLANE_H_

#include <cstdint>
#include <map>
#include <span>
#include <utility>

#include "src/common/ids.h"
#include "src/common/units.h"
#include "src/obs/registry.h"
#include "src/sim/random.h"

namespace cxlpool::netsim {

class FaultPlane {
 public:
  // Loss parameters for one directed link. All-zero (and !cut) means the
  // link is clean and the entry is garbage-collected.
  struct LinkState {
    bool cut = false;       // drop every frame
    double drop_p = 0.0;    // P(frame silently dropped)
    double dup_p = 0.0;     // P(frame delivered twice)
    double delay_p = 0.0;   // P(frame held for delay_min..delay_max)
    Nanos delay_min = 0;
    Nanos delay_max = 0;

    bool clean() const {
      return !cut && drop_p == 0.0 && dup_p == 0.0 && delay_p == 0.0;
    }
  };

  enum class Verdict : uint8_t { kDeliver, kDrop, kDuplicate, kDelay };
  struct FrameFate {
    Verdict verdict = Verdict::kDeliver;
    Nanos delay = 0;  // set iff verdict == kDelay
  };

  // Counts fault_plane.frames_dropped (cut + lossy drops),
  // fault_plane.frames_duplicated, fault_plane.frames_delayed,
  // fault_plane.cuts (directed cut edges installed) and fault_plane.heals
  // (directed edges healed) under `scope`.
  FaultPlane(uint64_t seed, const obs::Scope& scope);
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // Cuts one direction: frames src→dst are dropped; dst→src untouched.
  void Cut(HostId src, HostId dst);
  // Restores one direction to a clean link (clears loss params too).
  void Heal(HostId src, HostId dst);
  // Cuts both directions between every host in `a` and every host in `b`
  // (the classic full partition between two sets).
  void Partition(std::span<const HostId> a, std::span<const HostId> b);
  // Heals both directions between the two sets.
  void HealPartition(std::span<const HostId> a, std::span<const HostId> b);
  // Installs loss parameters on one direction (replaces prior state).
  void SetLossy(HostId src, HostId dst, const LinkState& state);

  bool IsCut(HostId src, HostId dst) const;
  // True if any directed edge carries fault state. Receivers use this as
  // the fast path: an inactive plane never charges a map lookup per
  // message.
  bool active() const { return !links_.empty(); }

  // Judges one frame traversing src→dst. Draws randomness only when the
  // edge has loss probabilities configured.
  FrameFate Judge(HostId src, HostId dst);

 private:
  using Edge = std::pair<uint32_t, uint32_t>;
  static Edge MakeEdge(HostId src, HostId dst) {
    return {src.value(), dst.value()};
  }

  std::map<Edge, LinkState> links_;
  sim::Rng rng_;
  obs::Counter* frames_dropped_;
  obs::Counter* frames_duplicated_;
  obs::Counter* frames_delayed_;
  obs::Counter* cuts_;
  obs::Counter* heals_;
};

}  // namespace cxlpool::netsim

#endif  // SRC_NETSIM_FAULT_PLANE_H_
