// Observability: the bundle a harness hands to the pod. One object owns the
// three pillars —
//   tracer()  : distributed tracing (null when tracing disabled, so hook
//               sites stay one-branch-cheap),
//   metrics() : the shared metrics registry,
//   flight()  : the per-host flight recorder —
// plus the CHECK-failure integration that dumps the flight recorder when an
// invariant trips.
//
// The pod owns the bundle (cxl::CxlPodConfig::obs; a core::Rack passes its
// RackConfig::obs there), and every component reaches all three pillars
// through the cxl::HostAdapter it runs on: HostAdapter::metrics(),
// tracer() and FlightNote(). With no bundle the pod counts into a registry
// of its own, tracer() is null and notes are dropped. Components behave
// identically either way: observability is pure observation.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <string>

#include "src/obs/flight_recorder.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace cxlpool::obs {

class Observability {
 public:
  struct Options {
    bool tracing = true;
    size_t flight_ring_slots = 256;
  };

  Observability();  // default Options
  explicit Observability(Options options);
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;
  ~Observability();

  // Null when tracing is disabled — callers hold the pointer and pass it to
  // MaybeStartTrace/MaybeStartSpan.
  Tracer* tracer() { return options_.tracing ? &tracer_ : nullptr; }
  Registry& metrics() { return metrics_; }
  FlightRecorder& flight() { return flight_; }

  // Installs a process-global CHECK-failure hook that dumps the flight
  // recorder to stderr. The dump is also retained in last_dump() so tests
  // can assert on its contents without aborting.
  void InstallCheckHook();

  // Dumps the flight recorder to stderr with a reason line and retains the
  // text in last_dump(). Violation paths (coherence checker, chaos
  // invariants) call this directly; the CHECK hook routes here too.
  void DumpFlight(const std::string& reason);
  const std::string& last_dump() const { return last_dump_; }
  uint64_t dumps() const { return dumps_; }

 private:
  Options options_;
  Tracer tracer_;
  Registry metrics_;
  FlightRecorder flight_;
  std::string last_dump_;
  uint64_t dumps_ = 0;
  bool hook_installed_ = false;
};

}  // namespace cxlpool::obs

#endif  // SRC_OBS_OBS_H_
