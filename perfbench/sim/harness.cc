#include "perfbench/sim/harness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <regex>
#include <unordered_map>

namespace perfbench {

using namespace cxlpool;

sim::Histogram OpWindow::WithFailures() const {
  sim::Histogram h = latency;
  if (attempted > served) {
    h.AddN(deadline, attempted - served);
  }
  return h;
}

double OpWindow::Percentile(double p) const {
  sim::Histogram h = WithFailures();
  uint64_t n = h.count();
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  if (n == 0 || n - rank < kMinTailSamples) {
    return -1;
  }
  return InterpolatedPercentile(h, p);
}

double InterpolatedPercentile(const sim::Histogram& h, double p) {
  const uint64_t n = h.count();
  if (n == 0) {
    return 0;
  }
  // Value at 1-based rank r: Percentile's target rank is ceil(q * n).
  auto at = [&](uint64_t r) {
    return h.Percentile((static_cast<double>(r) - 0.5) / static_cast<double>(n));
  };
  // The first rank whose value exceeds x, or n + 1.
  auto first_above = [&](int64_t x) {
    uint64_t lo = 1, hi = n + 1;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (at(mid) > x) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };
  uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(n) - 1e-9)), 1, n);
  const int64_t v = at(rank);
  constexpr int kSub = sim::Histogram::kSubBucketBits;
  if (v < (int64_t{1} << kSub)) {
    return static_cast<double>(v);  // exact buckets
  }
  // The ranks [first, last] that share v's bucket.
  const uint64_t first = first_above(v - 1);
  const uint64_t last = first_above(v) - 1;
  const int shift = (63 - std::countl_zero(static_cast<uint64_t>(v))) - kSub;
  const double width = static_cast<double>(uint64_t{1} << shift);
  const double base = static_cast<double>((static_cast<uint64_t>(v) >> shift) << shift);
  const double frac = (static_cast<double>(rank - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return base + frac * width;
}

double OpWindow::GoodputOps() const {
  return span > 0 ? 1e9 * static_cast<double>(served) / static_cast<double>(span)
                  : 0.0;
}

std::string OpWindow::Digest() const {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%llu|%llu|%llu|%llu|%lld|%lld|%lld|%.3f",
                (unsigned long long)attempted, (unsigned long long)served,
                (unsigned long long)failed, (unsigned long long)sent,
                (long long)latency.Percentile(0.5),
                (long long)latency.Percentile(0.99), (long long)span,
                latency.mean());
  return buf;
}

double ReferenceKernelSeconds() {
  static std::vector<uint64_t> table(1 << 19);
  double elapsed[4] = {};
  for (double& e : elapsed) {
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    uint64_t acc = 0;
    double t0 = WallNow();
    for (int i = 0; i < 1'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      uint64_t& slot = table[x & (table.size() - 1)];
      slot += acc;
      acc = acc * 31 + slot;
    }
    e = WallNow() - t0;
  }
  std::sort(elapsed + 1, elapsed + 4);
  return elapsed[2];
}

double ScaledHostSeconds(double elapsed) {
  return elapsed * kReferenceSeconds / ReferenceKernelSeconds();
}

void AddCheck(Checks& checks, std::string name, bool ok, std::string detail) {
  checks.push_back({std::move(name), ok, std::move(detail)});
}

uint64_t LineCounter::total() const {
  uint64_t n = 0;
  for (uint64_t c : counts_) {
    n += c;
  }
  return n;
}

namespace {

// Every bandwidth queue of every (host, MHD) link, in a fixed order.
std::vector<sim::BandwidthQueue*> LinkQueues(core::Rack& rack) {
  std::vector<sim::BandwidthQueue*> out;
  cxl::CxlPod& pod = rack.pod();
  for (int h = 0; h < pod.host_count(); ++h) {
    for (int m = 0; m < pod.config().num_mhds; ++m) {
      cxl::CxlLink* link = pod.link(HostId(h), MhdId(m));
      if (link != nullptr) {
        out.push_back(&link->to_device());
        out.push_back(&link->from_device());
      }
    }
  }
  return out;
}

obs::Labels QueueDelayLabels(int host) {
  return {{"host", std::to_string(host)}, {"priority", "data"}};
}

// Sums every counter/gauge series of each name in a Registry::ToJson()
// snapshot (probes included; histograms are skipped).
std::map<std::string, double> SumSeries(const std::string& registry_json);

// Span durations per name, over spans that started at or after `from`.
std::map<std::string, sim::Histogram> SpanHistograms(const obs::Tracer& tracer,
                                                     Nanos from);

// Per root span named `root_a` or `root_b` that started at or after
// `from`: the root's duration minus the union of its descendants' spans.
sim::Histogram UnattributedRootTime(const obs::Tracer& tracer, const char* root_a,
                                    const char* root_b, Nanos from);

}  // namespace

void LayerTap::BeginWindow(core::Rack& rack) {
  sim::EventLoop& loop = rack.loop();
  if (first_start_ < 0) {
    first_start_ = loop.now();
    begin_values_ = SumSeries(registry().ToJson());
    // Histograms cannot be differenced; start the window's ones empty.
    for (int h = 0; h < rack.pod().host_count(); ++h) {
      registry().GetHistogram("rpc.queue_delay_ns", QueueDelayLabels(h))->Reset();
    }
  }
  rack.pod().SetCoherenceObserver(&lines_);
  window_start_ = loop.now();
  events_start_ = loop.executed();
  link_start_.clear();
  for (sim::BandwidthQueue* q : LinkQueues(rack)) {
    link_start_.emplace_back(q->total_bytes(), q->busy_total());
  }
}

void LayerTap::EndWindow(core::Rack& rack) {
  sim::EventLoop& loop = rack.loop();
  rack.pod().SetCoherenceObserver(nullptr);
  events_ += loop.executed() - events_start_;
  Nanos span = loop.now() - window_start_;
  std::vector<sim::BandwidthQueue*> queues = LinkQueues(rack);
  for (size_t i = 0; i < queues.size() && i < link_start_.size(); ++i) {
    link_bytes_ += queues[i]->total_bytes() - link_start_[i].first;
    if (span > 0) {
      double util = static_cast<double>(queues[i]->busy_total() -
                                        link_start_[i].second) /
                    static_cast<double>(span);
      link_util_max_ = std::max(link_util_max_, util);
    }
  }
}

double LayerTap::Delta(const std::string& name) const {
  auto it = delta_values_.find(name);
  return it == delta_values_.end() ? 0.0 : it->second;
}

void LayerTap::Emit(Metrics& out, const OpWindow& ops) {
  using cxl::CoherenceOp;
  // Generators such as stack::RunUdpLoad add their counters when they
  // finish, after the last window, so the registry is read here.
  delta_values_.clear();
  for (const auto& [name, value] : SumSeries(registry().ToJson())) {
    auto it = begin_values_.find(name);
    delta_values_[name] = value - (it == begin_values_.end() ? 0.0 : it->second);
  }
  const uint64_t served = ops.served;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out["sim.events"] = static_cast<double>(events_);
  out["fail_ratio"] = ratio(static_cast<double>(ops.failed),
                            static_cast<double>(ops.attempted));

  uint64_t hits = lines_.count(CoherenceOp::kLoadHit);
  uint64_t misses = lines_.count(CoherenceOp::kLoadMiss);
  out["mem.line_ops"] = static_cast<double>(lines_.total());
  out["mem.line_ops_per_op"] =
      served > 0 ? static_cast<double>(lines_.total()) / static_cast<double>(served)
                 : 0.0;
  out["mem.load_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0.0;
  out["mem.evict_writebacks"] =
      static_cast<double>(lines_.count(CoherenceOp::kEvictWriteback));
  out["mem.dma_lines"] = static_cast<double>(
      lines_.count(CoherenceOp::kDmaReadHit) +
      lines_.count(CoherenceOp::kDmaReadMiss) + lines_.count(CoherenceOp::kDmaWrite));
  out["mem.nt_store_lines"] = static_cast<double>(lines_.count(CoherenceOp::kStoreNt));
  out["mem.invalidate_lines"] =
      static_cast<double>(lines_.count(CoherenceOp::kInvalidateDrop));

  out["cxl.link_bytes"] = static_cast<double>(link_bytes_);
  out["cxl.link_util_max"] = link_util_max_;

  // Forwarding spans. Workloads that never forward report zeros.
  obs::Tracer& tr = *obs_->tracer();
  std::map<std::string, sim::Histogram> spans = SpanHistograms(tr, first_start_);
  auto pct = [&](const char* name, double p) {
    return InterpolatedPercentile(spans[name], p);
  };
  sim::Histogram op = spans["mmio.write"];
  op.MergeFrom(spans["mmio.read"]);
  out["mmio.op_ns.p50"] = InterpolatedPercentile(op, 0.5);
  out["mmio.op_ns.p99"] = InterpolatedPercentile(op, 0.99);
  out["rpc.enqueue_ns.p50"] = pct("rpc.enqueue", 0.5);
  out["rpc.flight_ns.p50"] = pct("rpc.flight", 0.5);
  out["rpc.flight_ns.p99"] = pct("rpc.flight", 0.99);
  out["rpc.serve_ns.p50"] = pct("rpc.serve", 0.5);
  out["rpc.reply_ns.p50"] = pct("rpc.reply", 0.5);
  out["mmio.device_bar_ns.p50"] = pct("mmio.device_bar", 0.5);
  out["mmio.unattributed_ns.p50"] = InterpolatedPercentile(
      UnattributedRootTime(tr, "mmio.write", "mmio.read", first_start_), 0.5);

  sim::Histogram queue_delay;
  for (int h = 0;; ++h) {
    const sim::Histogram* q = obs_->metrics().FindHistogram("rpc.queue_delay_ns",
                                                            QueueDelayLabels(h));
    if (q == nullptr) {
      break;
    }
    queue_delay.MergeFrom(*q);
  }
  out["rpc.queue_delay_ns.p50"] = InterpolatedPercentile(queue_delay, 0.5);
  out["rpc.queue_delay_ns.p99"] = InterpolatedPercentile(queue_delay, 0.99);
  out["agent.forwarded_ops"] =
      Delta("agent.forwarded_writes") + Delta("agent.forwarded_reads");

  // stack: the UDP generator's series, and how late any generator ran.
  out["udp.sent"] = Delta("udp.sent");
  out["udp.overload_skipped"] = Delta("udp.overload_skipped");
  out["gen.send_shortfall"] =
      ops.offered > 0 ? 1.0 - static_cast<double>(ops.sent) / ops.offered : 0.0;

  // kv: the store, the node front and the client's loadgen.
  const double gets = Delta("kv.gets");
  out["kv.hit_pool_ratio"] = ratio(Delta("kv.get_hits_pool"), gets);
  out["kv.hit_ssd_ratio"] = ratio(Delta("kv.get_hits_ssd"), gets);
  out["kv.miss_ratio"] = ratio(Delta("kv.get_misses"), gets);
  out["kv.evictions"] = Delta("kv.evictions");
  out["kv.hydrations"] = Delta("kv.hydrations");
  out["kv.shed_ratio"] =
      ratio(Delta("kv.shed_front") + Delta("kv.expired_front") +
                Delta("kv.overloaded") + Delta("kv.expired"),
            Delta("kv.rx_requests"));
  out["kv.requests"] = Delta("kv.rx_requests");
  out["kvload.timeouts"] = Delta("kvload.timeouts");
  out["kvload.skipped"] = Delta("kvload.skipped");

  // SSD queue pairs: only traced VirtualSsds emit qp.submit_wait spans.
  const sim::Histogram& qp = spans["qp.submit_wait"];
  out["qp.submits"] = static_cast<double>(qp.count());
  out["qp.submit_wait_ns.p50"] = InterpolatedPercentile(qp, 0.5);
  out["qp.submit_wait_ns.p99"] = InterpolatedPercentile(qp, 0.99);
  // Filled in by the workloads that have these (Scenario::EmitLayers).
  for (const char* name : {"doorbell.ring_ns.p50", "kv.service_ns.p50",
                           "kv.service_ns.p99", "kv.net_ns.p50"}) {
    out[name] = 0;
  }

  uint64_t window_spans = 0;
  for (const obs::SpanRecord& s : tr.spans()) {
    window_spans += s.start >= first_start_ ? 1 : 0;
  }
  out["obs.spans"] = static_cast<double>(window_spans);
  out["obs.dropped_spans"] = static_cast<double>(tr.dropped_spans());
}

namespace {

std::map<std::string, double> SumSeries(const std::string& registry_json) {
  static const std::regex kSeries(
      R"re("name":"([^"]+)","labels":\{[^}]*\},"kind":"(?:counter|gauge)","value":(-?[0-9]+))re");
  std::map<std::string, double> out;
  for (auto it = std::sregex_iterator(registry_json.begin(), registry_json.end(),
                                      kSeries);
       it != std::sregex_iterator(); ++it) {
    out[(*it)[1].str()] += std::stod((*it)[2].str());
  }
  return out;
}

std::map<std::string, sim::Histogram> SpanHistograms(const obs::Tracer& tracer,
                                                     Nanos from) {
  std::map<std::string, sim::Histogram> out;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.start >= from) {
      out[s.name].Add(s.duration());
    }
  }
  return out;
}

sim::Histogram UnattributedRootTime(const obs::Tracer& tracer, const char* root_a,
                                    const char* root_b, Nanos from) {
  const std::vector<obs::SpanRecord>& spans = tracer.spans();
  std::unordered_map<uint64_t, std::vector<size_t>> by_trace;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].start >= from) {
      by_trace[spans[i].trace_id].push_back(i);
    }
  }
  sim::Histogram out;
  std::vector<std::pair<Nanos, Nanos>> kids;
  for (const auto& [trace, members] : by_trace) {
    for (size_t r : members) {
      const obs::SpanRecord& root = spans[r];
      if (root.parent_span_id != 0 ||
          (std::string_view(root.name) != root_a &&
           std::string_view(root.name) != root_b)) {
        continue;
      }
      kids.clear();
      for (size_t k : members) {
        if (k == r) {
          continue;
        }
        Nanos s = std::max(spans[k].start, root.start);
        Nanos e = std::min(spans[k].end, root.end);
        if (e > s) {
          kids.emplace_back(s, e);
        }
      }
      std::sort(kids.begin(), kids.end());
      Nanos covered = 0;
      Nanos reach = root.start;
      for (const auto& [s, e] : kids) {
        if (e > reach) {
          covered += e - std::max(s, reach);
          reach = e;
        }
      }
      out.Add(root.duration() - covered);
    }
  }
  return out;
}

}  // namespace

}  // namespace perfbench
