#include "src/sim/random.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace cxlpool::sim {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1) | 1) {
  Next();
  state_ += seed;
  Next();
}

uint32_t Pcg32::Next() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
  uint32_t rot = static_cast<uint32_t>(old >> 59);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

double Rng::Uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(gen_.Next64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  CXLPOOL_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = -n % n;
  for (;;) {
    uint64_t r = gen_.Next64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CXLPOOL_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Exponential(double mean) {
  CXLPOOL_CHECK(mean > 0);
  double u;
  do {
    u = Uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  double u2 = Uniform();
  double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_normal_ = true;
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

size_t Rng::Categorical(std::span<const double> weights) {
  CXLPOOL_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    CXLPOOL_DCHECK(w >= 0);
    total += w;
  }
  CXLPOOL_CHECK(total > 0);
  double x = Uniform() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (x < acc) {
      return i;
    }
  }
  return weights.size() - 1;
}

ZipfGenerator::ZipfGenerator(size_t n, double s) {
  CXLPOOL_CHECK(n > 0);
  cdf_.resize(n);
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (size_t i = 0; i < n; ++i) {
    cdf_[i] /= acc;
  }
}

size_t ZipfGenerator::Sample(Rng& rng) const {
  double u = rng.Uniform();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return cdf_.size() - 1;
  }
  return static_cast<size_t>(it - cdf_.begin());
}

ZipfianSampler::ZipfianSampler(uint64_t n, double theta) : n_(n), theta_(theta) {
  CXLPOOL_CHECK(n >= 1);
  CXLPOOL_CHECK(theta > 0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - Hinv(H(2.5) - std::pow(2.0, -theta_));
}

double ZipfianSampler::H(double x) const {
  // (x^{1-theta} - 1) / (1 - theta); the limit for theta -> 1 is ln(x).
  double one_minus = 1.0 - theta_;
  if (std::abs(one_minus) < 1e-9) {
    return std::log(x);
  }
  return (std::pow(x, one_minus) - 1.0) / one_minus;
}

double ZipfianSampler::Hinv(double u) const {
  double one_minus = 1.0 - theta_;
  if (std::abs(one_minus) < 1e-9) {
    return std::exp(u);
  }
  return std::pow(1.0 + u * one_minus, 1.0 / one_minus);
}

uint64_t ZipfianSampler::Sample(Rng& rng) const {
  if (n_ == 1) {
    return 0;
  }
  for (;;) {
    double u = h_x1_ + rng.Uniform() * (h_n_ - h_x1_);
    double x = Hinv(u);
    double clamped = std::min(std::max(x, 1.0), static_cast<double>(n_));
    uint64_t k = static_cast<uint64_t>(clamped + 0.5);
    k = std::min(std::max<uint64_t>(k, 1), n_);
    // Accept k either via the cheap shortcut (x close enough to k that the
    // envelope cannot cross) or the exact rejection test.
    if (static_cast<double>(k) - x <= threshold_ ||
        u >= H(static_cast<double>(k) + 0.5) - std::pow(static_cast<double>(k), -theta_)) {
      return k - 1;  // 0-based rank; rank 0 hottest
    }
  }
}

}  // namespace cxlpool::sim
