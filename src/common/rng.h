// Deterministic pseudo-random number generation.
//
// Every stochastic component in the simulator (workload generators, the DCSC victim sampler,
// the PEBS model) draws from an explicitly seeded Rng so that experiments and tests are
// bit-for-bit reproducible. The generator is xoshiro256** seeded via splitmix64, which is
// fast, has a 2^256-1 period, and passes BigCrush; std::mt19937 is avoided because its state
// is large and its distributions are not stable across standard library implementations.

#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace chronotier {

// Stateless 64-bit mix used for seeding and hashing.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// xoshiro256** generator with helper distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      x = SplitMix64(x);
      word = x;
    }
    has_gaussian_ = false;
  }

  // Uniform over [0, 2^64).
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform over [0, bound); bound == 0 returns 0. Uses Lemire's multiply-shift reduction.
  uint64_t NextBelow(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * bound) >> 64);
  }

  // Uniform over [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform over [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // True with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  // Standard normal via Marsaglia polar method (cached pair).
  double NextGaussian() {
    if (has_gaussian_) {
      has_gaussian_ = false;
      return cached_gaussian_;
    }
    double u = 0;
    double v = 0;
    double s = 0;
    do {
      u = 2.0 * NextDouble() - 1.0;
      v = 2.0 * NextDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_gaussian_ = v * factor;
    has_gaussian_ = true;
    return u * factor;
  }

  // Exponential with the given mean.
  double NextExponential(double mean) {
    double u = NextDouble();
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(u);
  }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4] = {};
  bool has_gaussian_ = false;
  double cached_gaussian_ = 0;
};

// Zipf(s) sampler over {0, ..., n-1} using rejection-inversion (Hörmann & Derflinger).
// Suitable for the skewed key-popularity distributions used by the KV-store workloads.
//
// For n <= kAcceptTableMax two tables built at construction replace the per-draw pow calls
// and return the same rank from the same draws:
//   - the acceptance bound H(k + 0.5) - k^-s per rank, tabulated with the very expression
//     the rejection test would otherwise evaluate;
//   - a guide over the top kGuideBits of the 53 raw bits NextDouble() uses. A bucket is
//     marked with rank k when its whole r-interval, widened by kGuideSlack, maps into k's
//     accepted u-interval [max(H(k - 0.5), bound(k)), H(k + 0.5)). u(r) is monotone under
//     IEEE rounding and the bound test is exact, so only pow's error could move a draw
//     across an edge, and the slack is orders wider than that error amplified by
//     1 / |1 - s| (the guide is left empty for 0 < |1 - s| < kGuideMinExponentGap, where
//     that amplification grows). A draw in a marked bucket returns the mark; any other
//     runs the rejection loop body on the same draw.
// Above the cap both are computed per draw.
class ZipfSampler {
 public:
  static constexpr uint64_t kAcceptTableMax = 4096;
  static constexpr int kGuideBits = 12;
  static constexpr double kGuideSlack = 1e-9;
  static constexpr double kGuideMinExponentGap = 1e-4;

  ZipfSampler(uint64_t n, double s);

  uint64_t Sample(Rng& rng) const;

  // The rejection test's acceptance bound H(k + 0.5) - k^-s for rank k in [1, n].
  double AcceptBound(uint64_t k) const {
    return accept_.empty() ? AcceptBoundFormula(k) : accept_[k - 1];
  }

  // The rank k in [1, n] a draw whose top kGuideBits raw bits equal `bucket` returns, or 0
  // when the bucket is not marked (for the tests).
  uint64_t GuideRank(uint64_t bucket) const { return guide_.empty() ? 0 : guide_[bucket]; }

  uint64_t n() const { return n_; }
  double s() const { return s_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;
  double AcceptBoundFormula(uint64_t k) const;

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;
  std::vector<double> accept_;    // accept_[k - 1] = AcceptBoundFormula(k); empty above the cap.
  std::vector<uint16_t> guide_;   // 2^kGuideBits ranks, 0 = unmarked; empty when unbuilt.
};

}  // namespace chronotier
