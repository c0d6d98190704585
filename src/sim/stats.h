// Measurement utilities: streaming mean/variance, an HDR-style log-bucketed
// latency histogram (≤ ~1.6% relative error on percentiles), and helpers to
// print the percentile tables the benchmark harnesses emit.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cxlpool::sim {

// Welford streaming summary: count / mean / stddev / min / max.
class Summary {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Log-bucketed histogram of non-negative int64 values (latencies in ns).
// Values below 2^kSubBucketBits are exact; above, each power-of-two range
// is split into 2^kSubBucketBits sub-buckets, bounding relative error by
// 2^-kSubBucketBits.
class Histogram {
 public:
  Histogram();

  void Add(int64_t value);
  void AddN(int64_t value, uint64_t n);
  void MergeFrom(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ ? min_ : 0; }
  int64_t max() const { return count_ ? max_ : 0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  // Value at quantile p in [0, 1]; e.g. Percentile(0.5) is the median.
  int64_t Percentile(double p) const;

  // "p50=612 p90=? ..." one-line summary used in bench output.
  std::string PercentileString() const;

  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets / octave

 private:
  static size_t BucketIndex(int64_t value);
  static int64_t BucketMidpoint(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  int64_t min_ = std::numeric_limits<int64_t>::max();
  int64_t max_ = std::numeric_limits<int64_t>::min();
};

}  // namespace cxlpool::sim

#endif  // SRC_SIM_STATS_H_
