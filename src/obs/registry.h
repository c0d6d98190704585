// obs::Registry: the single home for named metrics, and the only way a
// component counts. A component asks for its handles once, at construction,
// through an obs::Scope (registry + its base labels) and bumps the cached
// pointers on its hot path; the registry owns storage, deduplicates by
// (name, labels), and exports everything as one JSON snapshot. Tests and
// benches read values back with FindCounter / FindHistogram.
//
// Handle pointers are stable for the life of the registry (values live in
// deques, which never move them), so callers cache the pointer at
// construction time and pay one indirection per bump; a component's
// handles, created back to back, share cache lines. Two instances that
// ask for the same key share one handle: a component rebuilt in place
// continues its predecessor's counters.
#ifndef SRC_OBS_REGISTRY_H_
#define SRC_OBS_REGISTRY_H_

#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metric.h"
#include "src/sim/stats.h"

namespace cxlpool::obs {

// Label set: sorted at registration time so {"a","1"},{"b","2"} and
// {"b","2"},{"a","1"} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Returns the handle for (name, labels), creating it on first use. A
  // repeat call with the same key returns the same pointer; asking for the
  // same key as a different kind is a programmer error and aborts.
  Counter* GetCounter(const std::string& name, Labels labels = {});
  Gauge* GetGauge(const std::string& name, Labels labels = {});
  sim::Histogram* GetHistogram(const std::string& name, Labels labels = {});

  // Lookup without creation; nullptr when absent or of another kind.
  const Counter* FindCounter(const std::string& name,
                             const Labels& labels = {}) const;
  const Gauge* FindGauge(const std::string& name,
                         const Labels& labels = {}) const;
  const sim::Histogram* FindHistogram(const std::string& name,
                                      const Labels& labels = {}) const;

  size_t series_count() const { return series_.size(); }

  // One JSON object: {"metrics":[{"name","labels","kind",...value...}]}.
  // Counters/gauges export a value; histograms export count/mean/percentiles.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    sim::Histogram* histogram = nullptr;
  };
  using Key = std::pair<std::string, Labels>;

  static Key MakeKey(const std::string& name, Labels labels);
  Series* GetSeries(const std::string& name, Labels labels, Kind kind);

  std::map<Key, Series> series_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<sim::Histogram> histograms_;
};

// A registry plus the base labels of one component instance ({"host": "2"},
// {"device": "7"}, ...). Components get their Scope from something they
// already hold (HostAdapter::metrics(), their owner, a constructor argument)
// and look every handle up once; the handles are never null. Per-series
// labels merge with the base labels, and label order does not matter.
class Scope {
 public:
  explicit Scope(Registry& registry, Labels labels = {})
      : registry_(&registry), labels_(std::move(labels)) {}

  // This scope with `extra` labels added: a sub-component's own scope, or
  // an identifying label that keeps one of several live instances apart.
  Scope With(Labels extra) const { return Scope(*registry_, Merge(std::move(extra))); }

  Counter* GetCounter(const std::string& name, Labels extra = {}) const {
    return registry_->GetCounter(name, Merge(std::move(extra)));
  }
  Gauge* GetGauge(const std::string& name, Labels extra = {}) const {
    return registry_->GetGauge(name, Merge(std::move(extra)));
  }
  sim::Histogram* GetHistogram(const std::string& name, Labels extra = {}) const {
    return registry_->GetHistogram(name, Merge(std::move(extra)));
  }

  Registry& registry() const { return *registry_; }
  const Labels& labels() const { return labels_; }

 private:
  Labels Merge(Labels extra) const {
    extra.insert(extra.end(), labels_.begin(), labels_.end());
    return extra;
  }

  Registry* registry_;
  Labels labels_;
};

// One bench run as its snapshot reports it: the simulated time it covered,
// the events its event loop(s) executed, and the host wall time it took.
// Wall time is measured, not simulated, so it must never feed a digest.
struct BenchRun {
  int64_t sim_ns = 0;
  uint64_t events = 0;
  int64_t wall_ns = 0;
};

// Monotonic host clock in nanoseconds, for BenchRun::wall_ns.
int64_t WallNanos();

// BENCH_<name>.json snapshot: the registry snapshot wrapped with bench
// identity and host cost — {"bench": name, "sim_ns": N, "events": E,
// "host": {"wall_ns": W, "events_per_wall_sec": R}, "metrics": [...]}.
// Every bench's --json flag writes this shape and tools/check_obs_json.py
// validates it in CI.
std::string BenchJson(const std::string& bench, const BenchRun& run,
                      const Registry& registry);
Status WriteBenchJson(const std::string& path, const std::string& bench,
                      const BenchRun& run, const Registry& registry);

}  // namespace cxlpool::obs

#endif  // SRC_OBS_REGISTRY_H_
