// Batch-path identity: the hot loops that produce or pre-read a whole op batch must match
// their one-at-a-time references bit for bit.
//
//   - PmbenchStream::FillBatch against a Next() loop: every op, then the RNG state after
//     the last op (the next Gaussian draw checks the cached half of the polar pair, the
//     next raw draw the xoshiro state); the stride wrap both share against the plain
//     remainder.
//   - ZipfSampler's tabulated acceptance bound against the formula it replaces, and its
//     draws against the untabulated rejection-inversion loop.
//   - TranslationCache's lookahead helpers (Peek, PrefetchSlot) move no counter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/vm/process.h"
#include "src/vm/translation_cache.h"
#include "src/workloads/pmbench.h"

namespace chronotier {
namespace {

constexpr uint64_t kPages = 100;  // Not a power of two: stride 2/3/7 wrap unevenly.

bool SameOp(const MemOp& a, const MemOp& b) {
  return a.vaddr == b.vaddr && a.is_store == b.is_store && a.think_time == b.think_time;
}

// Generates the same stream twice: through FillBatch(batch) calls and through Next().
// Infinite streams run kRounds full batches; finite ones run until the stream ends.
void ExpectFillBatchMatchesNext(const PmbenchConfig& config, size_t batch) {
  constexpr size_t kRounds = 6;
  Process batched_process(0, "batched");
  Process single_process(0, "single");
  Rng batched_rng(2024);
  Rng single_rng(2024);
  PmbenchStream batched(config);
  PmbenchStream single(config);
  batched.Init(batched_process, batched_rng);
  single.Init(single_process, single_rng);

  std::vector<MemOp> got;
  std::vector<MemOp> buffer(batch);
  for (size_t round = 0; config.op_limit != 0 || round < kRounds; ++round) {
    const size_t n = batched.FillBatch(batched_rng, buffer.data(), batch);
    got.insert(got.end(), buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(n));
    if (n < batch) {
      EXPECT_EQ(batched.FillBatch(batched_rng, buffer.data(), batch), 0u);
      break;
    }
  }

  std::vector<MemOp> want;
  MemOp op;
  while ((config.op_limit != 0 || want.size() < got.size()) && single.Next(single_rng, &op)) {
    want.push_back(op);
  }
  if (config.op_limit != 0) {
    EXPECT_FALSE(single.Next(single_rng, &op));
  }

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameOp(got[i], want[i])) << "op " << i << ": vaddr " << got[i].vaddr
                                         << " vs " << want[i].vaddr;
  }
  EXPECT_EQ(batched_rng.NextGaussian(), single_rng.NextGaussian());
  EXPECT_EQ(batched_rng.Next(), single_rng.Next());
}

// Every stride x batch size x init prefix x op-limit shape for one pattern. Op limits are
// chosen so the stream ends mid-batch or exactly on a batch edge; with an init prefix of
// kPages ops the prefix itself ends mid-batch for batch sizes 7 and 64.
void ExpectPatternMatchesNext(PmbenchPattern pattern) {
  for (const uint64_t stride : {1, 2, 3, 7}) {
    for (const size_t batch : {1, 7, 64}) {
      for (const bool init : {false, true}) {
        const uint64_t prefix = init ? kPages : 0;
        // Total ops (prefix + body) a multiple of the batch size: the last fill is full
        // and the next one returns 0.
        const uint64_t edge = (prefix + 40 + batch - 1) / batch * batch - prefix;
        for (const uint64_t op_limit : {uint64_t{0}, edge, edge + batch / 2}) {
          PmbenchConfig config;
          config.working_set_bytes = kPages * kBasePageSize;
          config.pattern = pattern;
          config.stride = stride;
          config.sigma_fraction = 0.3;  // Wide enough that Gaussian draws also wrap.
          config.read_ratio = 0.7;
          config.per_op_delay = 3;
          config.sequential_init = init;
          config.op_limit = op_limit;
          SCOPED_TRACE("stride " + std::to_string(stride) + " batch " +
                       std::to_string(batch) + " init " + std::to_string(init) +
                       " op_limit " + std::to_string(op_limit));
          ExpectFillBatchMatchesNext(config, batch);
        }
      }
    }
  }
}

TEST(GeneratorBatchTest, PmbenchGaussianFillBatchMatchesNext) {
  ExpectPatternMatchesNext(PmbenchPattern::kGaussian);
}

TEST(GeneratorBatchTest, PmbenchUniformFillBatchMatchesNext) {
  ExpectPatternMatchesNext(PmbenchPattern::kUniform);
}

TEST(GeneratorBatchTest, PmbenchLinearFillBatchMatchesNext) {
  ExpectPatternMatchesNext(PmbenchPattern::kLinear);
}

// FillBatch and Next share the stride wrap, so hold it to the plain remainder it replaces.
TEST(GeneratorBatchTest, PmbenchStrideWrapIsRemainder) {
  for (const uint64_t stride : {0, 1, 2, 3, 7}) {
    Process process(0, "wrap");
    Rng rng(1);
    PmbenchConfig config;
    config.working_set_bytes = kPages * kBasePageSize;
    config.stride = stride;
    PmbenchStream stream(config);
    stream.Init(process, rng);
    const uint64_t step = std::max<uint64_t>(stride, 1);
    for (uint64_t index = 0; index < 3 * kPages; ++index) {
      ASSERT_EQ(stream.MapIndexToVpn(index),
                stream.region_start_vpn() + (index % kPages) * step % kPages)
          << "stride " << stride << " index " << index;
    }
  }
}

// --- Zipf acceptance table ---

// The untabulated sampler, as ZipfSampler computed it before the table: H, its inverse
// and the per-draw bound H(k + 0.5) - k^-s.
class ReferenceZipf {
 public:
  ReferenceZipf(uint64_t n, double s) : n_(n == 0 ? 1 : n), s_(s) {
    h_x1_ = H(1.5) - 1.0;
    h_n_ = H(static_cast<double>(n_) + 0.5);
    threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s_));
  }

  double Bound(uint64_t k) const {
    return H(static_cast<double>(k) + 0.5) - std::pow(static_cast<double>(k), -s_);
  }

  uint64_t Sample(Rng& rng) const {
    while (true) {
      const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
      const double x = HInverse(u);
      const auto k = static_cast<uint64_t>(std::clamp(x + 0.5, 1.0, static_cast<double>(n_)));
      if (static_cast<double>(k) - x <= threshold_) {
        return k - 1;
      }
      if (u >= Bound(k)) {
        return k - 1;
      }
    }
  }

 private:
  double H(double x) const {
    return s_ == 1.0 ? std::log(x) : (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
  }
  double HInverse(double x) const {
    return s_ == 1.0 ? std::exp(x) : std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
  }

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;
};

TEST(GeneratorBatchTest, ZipfTableMatchesFormula) {
  constexpr uint64_t kCap = ZipfSampler::kAcceptTableMax;
  for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{16}, uint64_t{192}, kCap,
                           kCap + 1}) {
    for (const double s : {0.8, 0.99, 1.0, 1.05, 1.2}) {
      SCOPED_TRACE("n " + std::to_string(n) + " s " + std::to_string(s));
      const ZipfSampler zipf(n, s);
      const ReferenceZipf reference(n, s);
      for (uint64_t k = 1; k <= n; ++k) {
        ASSERT_EQ(zipf.AcceptBound(k), reference.Bound(k)) << "k " << k;
      }
      Rng rng(n * 31 + 7);
      Rng reference_rng(n * 31 + 7);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(zipf.Sample(rng), reference.Sample(reference_rng)) << "draw " << i;
      }
      EXPECT_EQ(rng.Next(), reference_rng.Next());
    }
  }
}

// --- Translation-cache lookahead ---

TEST(GeneratorBatchTest, PeekAndPrefetchSlotMoveNoCounter) {
  TranslationCache tlb;
  PageInfo unit;
  unit.vpn = 5;
  unit.Set(kPagePresent);
  tlb.Insert(5, &unit);
  EXPECT_EQ(tlb.Lookup(5), &unit);
  EXPECT_EQ(tlb.Lookup(6), nullptr);
  tlb.Invalidate(6);  // Not cached: no invalidation counted.
  const uint64_t hits = tlb.hits();
  const uint64_t misses = tlb.misses();
  const uint64_t invalidations = tlb.invalidations();

  // Peek returns the raw slot: the cached unit, an aliased unit Lookup would reject, or
  // nullptr for an empty slot.
  EXPECT_EQ(tlb.Peek(5), &unit);
  EXPECT_EQ(tlb.Peek(5 + TranslationCache::kEntries), &unit);
  EXPECT_EQ(tlb.Peek(6), nullptr);
  for (uint64_t vpn = 0; vpn < 2 * TranslationCache::kEntries; vpn += 97) {
    tlb.PrefetchSlot(vpn);
    (void)tlb.Peek(vpn);
  }

  EXPECT_EQ(tlb.hits(), hits);
  EXPECT_EQ(tlb.misses(), misses);
  EXPECT_EQ(tlb.invalidations(), invalidations);
  EXPECT_EQ(tlb.Lookup(5), &unit);  // The entry itself is untouched.
}

}  // namespace
}  // namespace chronotier
