#include "src/workloads/pmbench.h"

#include <algorithm>
#include <cmath>

namespace chronotier {

void PmbenchStream::Init(Process& process, Rng& /*rng*/) {
  const uint64_t vaddr =
      process.aspace().MapRegion(config_.working_set_bytes, process.default_page_kind());
  region_vpn_ = vaddr / kBasePageSize;
  // MapRegion may round up to the huge-page unit; address the requested set only.
  num_pages_ = std::max<uint64_t>(config_.working_set_bytes / kBasePageSize, 1);
}

namespace {

// Spreads an in-range pre-stride index (< n) by `stride` (>= 1) and wraps it back into
// [0, n). For stride <= 2 the product is below 2n, so one conditional subtraction is the
// remainder; it is written branch-free because for a centred Gaussian index the wrap is a
// coin flip. Larger strides keep the division.
uint64_t StrideWrap(uint64_t index, uint64_t stride, uint64_t n) {
  const uint64_t strided = index * stride;
  if (stride <= 2) {
    return strided - (strided >= n ? n : 0);
  }
  return strided < n ? strided : strided % n;
}

// Wraps an out-of-range Gaussian draw back into [0, n) (keeps the distribution's mass
// without clamping pileup at the edges); with sigma <= 0.25 the wrap is rare, so divisions
// stay off the hot path.
uint64_t WrapGaussian(double draw, int64_t n) {
  auto index = static_cast<int64_t>(draw);
  if (index < 0 || index >= n) {
    index = ((index % n) + n) % n;
  }
  return static_cast<uint64_t>(index);
}

}  // namespace

uint64_t PmbenchStream::MapIndexToVpn(uint64_t index) const {
  if (index >= num_pages_) {
    index %= num_pages_;
  }
  return region_vpn_ + StrideWrap(index, std::max<uint64_t>(config_.stride, 1), num_pages_);
}

std::vector<uint64_t> PmbenchStream::HotVpns(double fraction) const {
  std::vector<uint64_t> vpns;
  const auto span = static_cast<uint64_t>(static_cast<double>(num_pages_) * fraction);
  const uint64_t first = (num_pages_ - span) / 2;
  vpns.reserve(span);
  for (uint64_t i = 0; i < span; ++i) {
    vpns.push_back(MapIndexToVpn(first + i));
  }
  std::sort(vpns.begin(), vpns.end());
  vpns.erase(std::unique(vpns.begin(), vpns.end()), vpns.end());
  return vpns;
}

uint64_t PmbenchStream::DrawIndex(Rng& rng) {
  switch (config_.pattern) {
    case PmbenchPattern::kUniform:
      return rng.NextBelow(num_pages_);
    case PmbenchPattern::kLinear:
      return linear_cursor_++ % num_pages_;
    case PmbenchPattern::kGaussian: {
      const double center = static_cast<double>(num_pages_) / 2.0;
      const double sigma = static_cast<double>(num_pages_) * config_.sigma_fraction;
      return WrapGaussian(center + sigma * rng.NextGaussian(), static_cast<int64_t>(num_pages_));
    }
  }
  return 0;
}

bool PmbenchStream::Next(Rng& rng, MemOp* op) {
  if (config_.sequential_init && init_cursor_ < num_pages_) {
    op->vaddr = (region_vpn_ + init_cursor_++) * kBasePageSize;
    op->is_store = true;
    op->think_time = 0;
    return true;
  }
  if (config_.op_limit != 0 && ops_issued_ >= config_.op_limit) {
    return false;
  }
  ++ops_issued_;
  const uint64_t vpn = MapIndexToVpn(DrawIndex(rng));
  op->vaddr = vpn * kBasePageSize + rng.NextBelow(kBasePageSize & ~7ull);
  op->is_store = !rng.NextBool(config_.read_ratio);
  op->think_time = config_.per_op_delay;
  return true;
}

size_t PmbenchStream::FillBatch(Rng& rng, MemOp* ops, size_t max) {
  // The same ops as a Next() loop, with the per-call work hoisted: the init prefix first,
  // then the pattern body in one loop per pattern. Every Rng call and floating-point
  // expression is Next()'s, in Next()'s order, so each op and the RNG state after the batch
  // are identical (GeneratorBatchTest enforces this).
  size_t produced = 0;
  if (config_.sequential_init) {
    for (; produced < max && init_cursor_ < num_pages_; ++produced) {
      ops[produced] = MemOp{(region_vpn_ + init_cursor_++) * kBasePageSize, true, 0};
    }
  }
  uint64_t body = max - produced;
  if (config_.op_limit != 0) {
    body = std::min(body, config_.op_limit - ops_issued_);
  }
  ops_issued_ += body;
  MemOp* const out = ops + produced;
  const uint64_t n = num_pages_;
  const uint64_t stride = std::max<uint64_t>(config_.stride, 1);
  const uint64_t base = region_vpn_;
  const double read_ratio = config_.read_ratio;
  const SimDuration delay = config_.per_op_delay;
  auto emit = [&](MemOp& op, uint64_t index) {
    op.vaddr = (base + StrideWrap(index, stride, n)) * kBasePageSize +
               rng.NextBelow(kBasePageSize & ~7ull);
    op.is_store = !rng.NextBool(read_ratio);
    op.think_time = delay;
  };
  switch (config_.pattern) {
    case PmbenchPattern::kUniform:
      for (uint64_t i = 0; i < body; ++i) {
        emit(out[i], rng.NextBelow(n));
      }
      break;
    case PmbenchPattern::kLinear:
      for (uint64_t i = 0; i < body; ++i) {
        emit(out[i], linear_cursor_++ % n);
      }
      break;
    case PmbenchPattern::kGaussian: {
      const double center = static_cast<double>(n) / 2.0;
      const double sigma = static_cast<double>(n) * config_.sigma_fraction;
      const auto signed_n = static_cast<int64_t>(n);
      for (uint64_t i = 0; i < body; ++i) {
        emit(out[i], WrapGaussian(center + sigma * rng.NextGaussian(), signed_n));
      }
      break;
    }
  }
  return produced + body;
}

}  // namespace chronotier
