#include "src/common/rng.h"

#include <algorithm>

namespace chronotier {

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n == 0 ? 1 : n), s_(s) {
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n_) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s_));
  if (n_ <= kAcceptTableMax) {
    accept_.resize(n_);
    for (uint64_t k = 1; k <= n_; ++k) {
      accept_[k - 1] = AcceptBoundFormula(k);
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
    const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
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
