#include "src/obs/registry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/common/check.h"
#include "src/obs/json.h"

namespace cxlpool::obs {

Registry::Key Registry::MakeKey(const std::string& name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  return {name, std::move(labels)};
}

Registry::Series* Registry::GetSeries(const std::string& name, Labels labels,
                                      Kind kind) {
  Key key = MakeKey(name, std::move(labels));
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series s;
    s.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        s.counter = &counters_.emplace_back();
        break;
      case Kind::kGauge:
        s.gauge = &gauges_.emplace_back();
        break;
      case Kind::kHistogram:
        s.histogram = &histograms_.emplace_back();
        break;
    }
    it = series_.emplace(std::move(key), std::move(s)).first;
  }
  CXLPOOL_CHECK_MSG(it->second.kind == kind,
                    "metric '%s' re-registered as a different kind",
                    name.c_str());
  return &it->second;
}

Counter* Registry::GetCounter(const std::string& name, Labels labels) {
  return GetSeries(name, std::move(labels), Kind::kCounter)->counter;
}

Gauge* Registry::GetGauge(const std::string& name, Labels labels) {
  return GetSeries(name, std::move(labels), Kind::kGauge)->gauge;
}

sim::Histogram* Registry::GetHistogram(const std::string& name, Labels labels) {
  return GetSeries(name, std::move(labels), Kind::kHistogram)->histogram;
}

const Counter* Registry::FindCounter(const std::string& name,
                                     const Labels& labels) const {
  auto it = series_.find(MakeKey(name, labels));
  if (it == series_.end() || it->second.kind != Kind::kCounter) {
    return nullptr;
  }
  return it->second.counter;
}

const Gauge* Registry::FindGauge(const std::string& name,
                                 const Labels& labels) const {
  auto it = series_.find(MakeKey(name, labels));
  if (it == series_.end() || it->second.kind != Kind::kGauge) {
    return nullptr;
  }
  return it->second.gauge;
}

const sim::Histogram* Registry::FindHistogram(const std::string& name,
                                              const Labels& labels) const {
  auto it = series_.find(MakeKey(name, labels));
  if (it == series_.end() || it->second.kind != Kind::kHistogram) {
    return nullptr;
  }
  return it->second.histogram;
}

namespace {

void AppendKey(std::string* out, const std::string& name,
               const Labels& labels) {
  *out += "\"name\":\"" + JsonEscape(name) + "\",\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ",";
    first = false;
    *out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  *out += "}";
}

}  // namespace

std::string Registry::ToJson() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, series] : series_) {
    if (!first) out += ",";
    first = false;
    out += "{";
    AppendKey(&out, key.first, key.second);
    switch (series.kind) {
      case Kind::kCounter:
        out += ",\"kind\":\"counter\",\"value\":" +
               std::to_string(series.counter->value());
        break;
      case Kind::kGauge:
        out += ",\"kind\":\"gauge\",\"value\":" +
               std::to_string(series.gauge->value());
        break;
      case Kind::kHistogram: {
        const sim::Histogram& h = *series.histogram;
        out += ",\"kind\":\"histogram\",\"count\":" +
               std::to_string(h.count()) + ",\"mean\":" + JsonDouble(h.mean()) +
               ",\"min\":" + std::to_string(h.min()) +
               ",\"max\":" + std::to_string(h.max()) +
               ",\"p50\":" + std::to_string(h.Percentile(0.50)) +
               ",\"p90\":" + std::to_string(h.Percentile(0.90)) +
               ",\"p99\":" + std::to_string(h.Percentile(0.99)) +
               ",\"p999\":" + std::to_string(h.Percentile(0.999));
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

Status Registry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Internal("cannot open metrics output file: " + path);
  }
  std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return OkStatus();
}

int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string BenchJson(const std::string& bench, const BenchRun& run,
                      const Registry& registry) {
  uint64_t events_per_wall_sec =
      run.wall_ns > 0 ? static_cast<uint64_t>(static_cast<double>(run.events) * 1e9 /
                                              static_cast<double>(run.wall_ns))
                      : 0;
  // Registry::ToJson() is "{\"metrics\":[...]}" — splice the bench identity
  // and host cost in front of its first key.
  std::string body = registry.ToJson();
  return "{\"bench\":\"" + JsonEscape(bench) +
         "\",\"sim_ns\":" + std::to_string(run.sim_ns) +
         ",\"events\":" + std::to_string(run.events) +
         ",\"host\":{\"wall_ns\":" + std::to_string(run.wall_ns) +
         ",\"events_per_wall_sec\":" + std::to_string(events_per_wall_sec) + "}," +
         body.substr(1);
}

Status WriteBenchJson(const std::string& path, const std::string& bench,
                      const BenchRun& run, const Registry& registry) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Internal("cannot open bench output file: " + path);
  }
  std::string json = BenchJson(bench, run, registry);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return OkStatus();
}

}  // namespace cxlpool::obs
