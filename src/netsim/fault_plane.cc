#include "src/netsim/fault_plane.h"

namespace cxlpool::netsim {

FaultPlane::FaultPlane(uint64_t seed, const obs::Scope& scope)
    : rng_(seed),
      frames_dropped_(scope.GetCounter("fault_plane.frames_dropped")),
      frames_duplicated_(scope.GetCounter("fault_plane.frames_duplicated")),
      frames_delayed_(scope.GetCounter("fault_plane.frames_delayed")),
      cuts_(scope.GetCounter("fault_plane.cuts")),
      heals_(scope.GetCounter("fault_plane.heals")) {}

void FaultPlane::Cut(HostId src, HostId dst) {
  LinkState& s = links_[MakeEdge(src, dst)];
  if (!s.cut) {
    cuts_->Inc();
  }
  s.cut = true;
}

void FaultPlane::Heal(HostId src, HostId dst) {
  auto it = links_.find(MakeEdge(src, dst));
  if (it == links_.end()) {
    return;
  }
  heals_->Inc();
  links_.erase(it);
}

void FaultPlane::Partition(std::span<const HostId> a,
                           std::span<const HostId> b) {
  for (HostId x : a) {
    for (HostId y : b) {
      if (x == y) {
        continue;
      }
      Cut(x, y);
      Cut(y, x);
    }
  }
}

void FaultPlane::HealPartition(std::span<const HostId> a,
                               std::span<const HostId> b) {
  for (HostId x : a) {
    for (HostId y : b) {
      if (x == y) {
        continue;
      }
      Heal(x, y);
      Heal(y, x);
    }
  }
}

void FaultPlane::SetLossy(HostId src, HostId dst, const LinkState& state) {
  if (state.clean()) {
    Heal(src, dst);
    return;
  }
  links_[MakeEdge(src, dst)] = state;
}

bool FaultPlane::IsCut(HostId src, HostId dst) const {
  auto it = links_.find(MakeEdge(src, dst));
  return it != links_.end() && it->second.cut;
}

FaultPlane::FrameFate FaultPlane::Judge(HostId src, HostId dst) {
  auto it = links_.find(MakeEdge(src, dst));
  if (it == links_.end()) {
    return {};
  }
  const LinkState& s = it->second;
  if (s.cut) {
    frames_dropped_->Inc();
    return {Verdict::kDrop, 0};
  }
  // One uniform draw decides the frame's fate: the [0, drop_p) band drops,
  // the next dup_p band duplicates, the next delay_p band delays. A single
  // draw (instead of three Bernoullis) keeps the per-frame draw count
  // constant regardless of which probabilities are nonzero.
  double u = rng_.Uniform();
  if (u < s.drop_p) {
    frames_dropped_->Inc();
    return {Verdict::kDrop, 0};
  }
  u -= s.drop_p;
  if (u < s.dup_p) {
    frames_duplicated_->Inc();
    return {Verdict::kDuplicate, 0};
  }
  u -= s.dup_p;
  if (u < s.delay_p) {
    frames_delayed_->Inc();
    Nanos d = s.delay_min;
    if (s.delay_max > s.delay_min) {
      d += static_cast<Nanos>(
          rng_.UniformInt(static_cast<uint64_t>(s.delay_max - s.delay_min)));
    }
    return {Verdict::kDelay, d};
  }
  return {};
}

}  // namespace cxlpool::netsim
