#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"

namespace cxlpool::sim {

void Summary::Add(double x) {
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

namespace {
constexpr int kSubBits = Histogram::kSubBucketBits;
constexpr uint64_t kSubCount = 1ULL << kSubBits;
// 63-bit values -> at most (63 - kSubBits + 1) octaves above the linear
// region, each with kSubCount sub-buckets.
constexpr size_t kMaxBuckets = kSubCount + (64 - kSubBits) * kSubCount;
}  // namespace

Histogram::Histogram() : buckets_(kMaxBuckets, 0) {}

size_t Histogram::BucketIndex(int64_t value) {
  CXLPOOL_DCHECK(value >= 0);
  uint64_t v = static_cast<uint64_t>(value);
  if (v < kSubCount) {
    return static_cast<size_t>(v);
  }
  int h = 63 - std::countl_zero(v);  // floor(log2(v)), h >= kSubBits
  int shift = h - kSubBits;
  uint64_t sub = (v >> shift) - kSubCount;  // in [0, kSubCount)
  return static_cast<size_t>(((static_cast<uint64_t>(shift) + 1) << kSubBits) + sub);
}

int64_t Histogram::BucketMidpoint(size_t index) {
  if (index < kSubCount) {
    return static_cast<int64_t>(index);
  }
  uint64_t top = index >> kSubBits;    // shift + 1
  uint64_t sub = index & (kSubCount - 1);
  int shift = static_cast<int>(top - 1);
  uint64_t lo = (kSubCount + sub) << shift;
  uint64_t width = 1ULL << shift;
  return static_cast<int64_t>(lo + width / 2);
}

void Histogram::Add(int64_t value) { AddN(value, 1); }

void Histogram::AddN(int64_t value, uint64_t n) {
  if (value < 0) {
    value = 0;
  }
  buckets_[BucketIndex(value)] += n;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::MergeFrom(const Histogram& other) {
  CXLPOOL_CHECK(buckets_.size() == other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<int64_t>::max();
  max_ = std::numeric_limits<int64_t>::min();
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  if (p >= 1.0) {
    return max_;
  }
  uint64_t target = static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_)));
  if (target == 0) {
    target = 1;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      // Clamp to observed extremes so tails are not inflated by bucket width.
      return std::clamp(BucketMidpoint(i), min_, max_);
    }
  }
  return max_;
}

std::string Histogram::PercentileString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.0f p50=%lld p90=%lld p99=%lld p999=%lld max=%lld",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<long long>(Percentile(0.50)),
                static_cast<long long>(Percentile(0.90)),
                static_cast<long long>(Percentile(0.99)),
                static_cast<long long>(Percentile(0.999)),
                static_cast<long long>(max()));
  return buf;
}

}  // namespace cxlpool::sim
