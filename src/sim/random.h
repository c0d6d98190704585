// Deterministic pseudo-random numbers and workload distributions.
//
// The simulator never uses std::random_device or global RNG state: every
// component takes an explicit Rng (or a seed) so whole experiments replay
// bit-for-bit.
#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cstdint>
#include <span>
#include <vector>

namespace cxlpool::sim {

// PCG-XSH-RR 64/32 (O'Neill 2014): small, fast, statistically solid.
class Pcg32 {
 public:
  explicit Pcg32(uint64_t seed, uint64_t stream = 0xda3e39cb94b95bdbULL);

  uint32_t Next();

  // 64 bits from two draws.
  uint64_t Next64() {
    return (static_cast<uint64_t>(Next()) << 32) | Next();
  }

 private:
  uint64_t state_;
  uint64_t inc_;
};

// Convenience wrapper bundling the generator with common distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}

  uint32_t NextU32() { return gen_.Next(); }
  uint64_t NextU64() { return gen_.Next64(); }

  // Uniform double in [0, 1).
  double Uniform();
  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [0, n). n must be > 0.
  uint64_t UniformInt(uint64_t n);
  // Uniform integer in [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi);

  bool Bernoulli(double p) { return Uniform() < p; }

  // Exponential with the given mean (inter-arrival times for Poisson load).
  double Exponential(double mean);

  // Standard Box-Muller normal.
  double Normal(double mean, double stddev);

  // exp(Normal(mu, sigma)); heavy-ish tails for service times.
  double LogNormal(double mu, double sigma);

  // Samples an index with probability proportional to weights[i].
  size_t Categorical(std::span<const double> weights);

 private:
  Pcg32 gen_;
  // Cached second Box-Muller variate.
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

// Zipf(s) over ranks {0, ..., n-1} via a precomputed CDF. Rank 0 is the
// hottest item. Used for skewed device/storage access patterns (§5).
class ZipfGenerator {
 public:
  ZipfGenerator(size_t n, double s);

  size_t Sample(Rng& rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// Zipf(theta) over ranks {0, ..., n-1} by rejection-inversion (Hörmann &
// Derflinger 1996), the memtier/YCSB-style sampler: O(1) memory and O(1)
// expected draws, so it scales to key spaces of many millions where
// ZipfGenerator's O(n) CDF table does not. Rank 0 is the hottest item.
// Deterministic for a fixed Rng seed; holds no RNG state of its own.
class ZipfianSampler {
 public:
  // n >= 1 items, exponent theta > 0 (memcached-style skew is ~0.99).
  ZipfianSampler(uint64_t n, double theta);

  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  // H(x) = integral of x^-theta: the continuous majorizing envelope.
  double H(double x) const;
  double Hinv(double u) const;

  uint64_t n_;
  double theta_;
  double h_x1_;        // H(1.5) - 1
  double h_n_;         // H(n + 0.5)
  double threshold_;   // acceptance shortcut: 2 - Hinv(H(2.5) - 2^-theta)
};

}  // namespace cxlpool::sim

#endif  // SRC_SIM_RANDOM_H_
