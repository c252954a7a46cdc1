#include "src/common/rng.h"

#include <algorithm>
#include <cmath>

namespace chronotier {

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n == 0 ? 1 : n), s_(s) {
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n_) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s_));
  if (n_ > kAcceptTableMax) {
    return;
  }
  accept_.resize(n_);
  const bool guided = s_ == 1.0 || std::abs(1.0 - s_) >= kGuideMinExponentGap;
  constexpr double kBuckets = static_cast<double>(uint64_t{1} << kGuideBits);
  if (guided) {
    guide_.assign(uint64_t{1} << kGuideBits, 0);
  }
  // One H per rank: H(k + 0.5) is both k's bound term and rank k + 1's lower edge.
  double h_below = H(0.5);  // H(k - 0.5)
  for (uint64_t k = 1; k <= n_; ++k) {
    const double h_above = H(static_cast<double>(k) + 0.5);
    accept_[k - 1] = h_above - std::pow(static_cast<double>(k), -s_);  // AcceptBoundFormula
    const double lo = std::max(h_below, accept_[k - 1]);
    h_below = h_above;
    if (!guided || !(lo < h_above)) {
      continue;
    }
    // r = (u - h_n) / (h_x1 - h_n) falls as u rises, so [lo, h_above) is the r-interval
    // (r(h_above), r(lo)]. Mark bucket b when [b, b + 1) / kBuckets, widened by the slack,
    // lies inside it.
    const double r_first = (h_above - h_n_) / (h_x1_ - h_n_) + kGuideSlack;
    const double r_last = (lo - h_n_) / (h_x1_ - h_n_) - kGuideSlack;
    const double first = std::clamp(std::ceil(r_first * kBuckets), 0.0, kBuckets);
    const double end = std::clamp(std::floor(r_last * kBuckets), 0.0, kBuckets);
    for (auto b = static_cast<uint64_t>(first); b < static_cast<uint64_t>(end); ++b) {
      guide_[b] = static_cast<uint16_t>(k);
    }
  }
}

double ZipfSampler::AcceptBoundFormula(uint64_t k) const {
  return H(static_cast<double>(k) + 0.5) - std::pow(static_cast<double>(k), -s_);
}

double ZipfSampler::H(double x) const {
  // Integral of x^-s, the continuous analogue of the zeta partial sum.
  if (s_ == 1.0) {
    return std::log(x);
  }
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::HInverse(double x) const {
  if (s_ == 1.0) {
    return std::exp(x);
  }
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  while (true) {
    // rng.NextDouble(), split so the guide reads the raw bits first.
    const uint64_t bits = rng.Next() >> 11;
    if (!guide_.empty()) {
      const uint64_t rank = guide_[bits >> (53 - kGuideBits)];
      if (rank != 0) {
        return rank - 1;
      }
    }
    const double u = h_n_ + static_cast<double>(bits) * 0x1.0p-53 * (h_x1_ - h_n_);
    const double x = HInverse(u);
    const auto k = static_cast<uint64_t>(std::clamp(x + 0.5, 1.0, static_cast<double>(n_)));
    if (static_cast<double>(k) - x <= threshold_) {
      return k - 1;
    }
    if (u >= AcceptBound(k)) {
      return k - 1;
    }
  }
}

}  // namespace chronotier
