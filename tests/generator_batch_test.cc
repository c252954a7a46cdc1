// Batch-path identity: the hot loops that produce or pre-read a whole op batch must match
// their one-at-a-time references bit for bit.
//
//   - PmbenchStream::FillBatch against a Next() loop: every op, then the RNG state after
//     the last op (the next Gaussian draw checks the cached half of the polar pair, the
//     next raw draw the xoshiro state); the stride wrap both share against the plain
//     remainder.
//   - TenantKvStream::FillBatch against a Next() loop, through the init prefix, the op
//     limit, value bursts the batch splits and multi-page values; its key-scramble table
//     against the formula, including a config where the formula wraps.
//   - ZipfSampler's tabulated acceptance bound against the formula it replaces, its guide
//     table's marked buckets (edges and interior) against the loop body, and its draws
//     against the untabulated rejection-inversion loop.
//   - TranslationCache's lookahead helpers (Peek, PrefetchSlot) move no counter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/vm/process.h"
#include "src/vm/translation_cache.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/tenant_kv.h"

namespace chronotier {
namespace {

constexpr uint64_t kPages = 100;  // Not a power of two: stride 2/3/7 wrap unevenly.

bool SameOp(const MemOp& a, const MemOp& b) {
  return a.vaddr == b.vaddr && a.is_store == b.is_store && a.think_time == b.think_time;
}

// Generates the same stream twice: through FillBatch(batch) calls and through Next().
// Infinite streams run kRounds full batches and at least `min_ops` ops; finite ones run
// until the stream ends.
template <typename Stream, typename Config>
void ExpectFillBatchMatchesNext(const Config& config, size_t batch, size_t min_ops = 0) {
  constexpr size_t kRounds = 6;
  Process batched_process(0, "batched");
  Process single_process(0, "single");
  Rng batched_rng(2024);
  Rng single_rng(2024);
  Stream batched(config);
  Stream single(config);
  batched.Init(batched_process, batched_rng);
  single.Init(single_process, single_rng);

  std::vector<MemOp> got;
  std::vector<MemOp> buffer(batch);
  for (size_t round = 0; config.op_limit != 0 || round < kRounds || got.size() < min_ops;
       ++round) {
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
          ExpectFillBatchMatchesNext<PmbenchStream>(config, batch);
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

// --- tenant_kv ---

// Cumulative op count after each post-init KV op of an unlimited stream: entry i is the
// number of ops (init prefix included) once i measured ops are issued.
std::vector<size_t> TenantKvOpEdges(const TenantKvConfig& config, uint64_t kv_ops) {
  Process process(0, "edges");
  Rng rng(2024);
  TenantKvConfig unlimited = config;
  unlimited.op_limit = 0;
  TenantKvStream stream(unlimited);
  stream.Init(process, rng);
  std::vector<size_t> edges;
  MemOp op;
  size_t ops = 0;
  while (edges.size() <= kv_ops) {
    const uint64_t issued = stream.ops_issued();
    stream.Next(rng, &op);
    if (stream.ops_issued() != issued) {
      edges.push_back(ops);  // This op starts measured op `issued + 1`.
    }
    ++ops;
  }
  return edges;
}

// A small tenant_kv server: `tenants` x 16 items, with churn and a start stagger.
TenantKvConfig SmallTenantKv(uint64_t tenants, uint64_t value_bytes) {
  TenantKvConfig config;
  config.virtual_tenants = tenants;
  config.items_per_tenant = 16;
  config.value_bytes = value_bytes;
  config.churn_period_ops = 37;
  config.churn_stride = 3;
  config.mean_interarrival = 5 * kMicrosecond;
  config.start_delay = 11 * kMicrosecond;
  return config;
}

// Every batch size x geometry x op-limit shape. One-page values make two-op bursts, so
// batch 7 splits bursts; 4 x 16 and 7 x 16 items put the end of the init prefix
// (128 and 224 ops) on a batch edge for one of 7 and 64 and mid-batch for the other. The
// op limits end the stream on a batch edge and, where a shape allows it, inside a burst
// a batch edge splits.
TEST(GeneratorBatchTest, TenantKvFillBatchMatchesNext) {
  struct Shape {
    std::string name;
    TenantKvConfig config;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"4x16 one-page", SmallTenantKv(4, kBasePageSize)});
  shapes.push_back({"7x16 one-page", SmallTenantKv(7, kBasePageSize)});
  // Sub-page values: most items in one page, the ones crossing a page edge in two.
  shapes.push_back({"4x16 100 B", SmallTenantKv(4, 100)});
  // Multi-page values (two or three pages), and values past the 8-op burst cap.
  shapes.push_back({"4x16 6000 B", SmallTenantKv(4, 6000)});
  shapes.push_back({"4x16 40000 B", SmallTenantKv(4, 40000)});
  TenantKvConfig fixed = SmallTenantKv(4, kBasePageSize);
  fixed.poisson_arrivals = false;
  fixed.churn_period_ops = 0;
  fixed.start_delay = 0;
  shapes.push_back({"fixed arrivals, no churn", fixed});
  TenantKvConfig no_gap = SmallTenantKv(7, kBasePageSize);
  no_gap.mean_interarrival = 0;
  shapes.push_back({"no arrival gap", no_gap});

  constexpr uint64_t kFirstLimit = 40;
  constexpr uint64_t kLastLimit = 400;
  std::map<size_t, int> split_ends;  // Batch size -> shapes whose end splits a burst.
  for (const Shape& shape : shapes) {
    const std::vector<size_t> edges = TenantKvOpEdges(shape.config, kLastLimit);
    for (const size_t batch : {1, 7, 64}) {
      // Limits ending on a batch edge, and (batch > 1) with a batch edge inside the last
      // op's burst.
      uint64_t on_edge = 0;
      uint64_t mid_burst = 0;
      for (uint64_t limit = kFirstLimit; limit <= kLastLimit; ++limit) {
        if (on_edge == 0 && edges[limit] % batch == 0) {
          on_edge = limit;
        }
        if (mid_burst == 0 && batch > 1 &&
            edges[limit - 1] / batch != (edges[limit] - 1) / batch &&
            edges[limit] % batch != 0) {
          mid_burst = limit;
        }
      }
      ASSERT_NE(on_edge, 0u) << shape.name << " batch " << batch;
      std::vector<uint64_t> op_limits = {0, on_edge};
      if (mid_burst != 0) {
        op_limits.push_back(mid_burst);
        ++split_ends[batch];
      }
      for (const uint64_t op_limit : op_limits) {
        TenantKvConfig config = shape.config;
        config.op_limit = op_limit;
        SCOPED_TRACE(shape.name + " batch " + std::to_string(batch) + " op_limit " +
                     std::to_string(op_limit));
        ExpectFillBatchMatchesNext<TenantKvStream>(config, batch, edges[kLastLimit]);
      }
    }
  }
  // Two-op bursts never straddle an even batch edge; the odd bursts of the sub-page and
  // multi-page shapes do.
  EXPECT_GT(split_ends[7], 0);
  EXPECT_GT(split_ends[64], 0);
}

// The reduced per-tenant offsets against the formula they replace, at every key-rank
// extreme. Items near 2^63 make SplitMix64(tenant) + items - 1 wrap for some tenant: the
// table must then stand aside.
TEST(GeneratorBatchTest, TenantKeyScrambleMatchesFormula) {
  constexpr uint64_t kTenants = 64;
  bool saw_wrap = false;
  for (const uint64_t items : {uint64_t{1}, uint64_t{2}, uint64_t{192}, uint64_t{1000003},
                               uint64_t{1} << 40, (uint64_t{1} << 63) + 1, UINT64_MAX}) {
    const TenantKeyScramble scramble(kTenants, items);
    bool wraps = false;
    for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
      wraps = wraps || SplitMix64(tenant) > UINT64_MAX - (items - 1);
    }
    saw_wrap = saw_wrap || wraps;
    EXPECT_EQ(scramble.tabulated(), !wraps) << "items " << items;
    for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
      for (const uint64_t key_rank : {uint64_t{0}, items / 2, items - 1}) {
        ASSERT_EQ(scramble.Item(tenant, key_rank), (key_rank + SplitMix64(tenant)) % items)
            << "items " << items << " tenant " << tenant << " key_rank " << key_rank;
      }
    }
  }
  EXPECT_TRUE(saw_wrap);
  EXPECT_TRUE(TenantKeyScramble(kTenants, 192).tabulated());
}

// --- Zipf acceptance and guide tables ---

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

  static constexpr uint64_t kRejected = UINT64_MAX;

  // One pass of the rejection loop on the draw whose 53 raw bits are `bits`: the rank it
  // returns, or kRejected.
  uint64_t Try(uint64_t bits) const {
    const double u = h_n_ + static_cast<double>(bits) * 0x1.0p-53 * (h_x1_ - h_n_);
    const double x = HInverse(u);
    const auto k = static_cast<uint64_t>(std::clamp(x + 0.5, 1.0, static_cast<double>(n_)));
    if (static_cast<double>(k) - x <= threshold_) {
      return k - 1;
    }
    if (u >= Bound(k)) {
      return k - 1;
    }
    return kRejected;
  }

  uint64_t Sample(Rng& rng) const {
    while (true) {
      const uint64_t rank = Try(rng.Next() >> 11);
      if (rank != kRejected) {
        return rank;
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

// Around 1 from both sides (the guide's error amplification 1 / |1 - s|), exactly 1 (the
// log/exp branch) and tenant_kv's two exponents.
constexpr double kZipfExponents[] = {0.8, 0.99, 0.999, 1.0, 1.001, 1.05, 1.2};

TEST(GeneratorBatchTest, ZipfTableMatchesFormula) {
  constexpr uint64_t kCap = ZipfSampler::kAcceptTableMax;
  for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{16}, uint64_t{192}, kCap,
                           kCap + 1}) {
    for (const double s : kZipfExponents) {
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

// Every marked guide bucket returns the rank the loop body computes for its lowest and
// highest raw draw and for random draws inside it. Unmarked buckets fall through to the
// loop body, which the draw comparison above covers.
TEST(GeneratorBatchTest, ZipfGuideMatchesFormula) {
  constexpr uint64_t kCap = ZipfSampler::kAcceptTableMax;
  constexpr int kShift = 53 - ZipfSampler::kGuideBits;
  constexpr uint64_t kBuckets = uint64_t{1} << ZipfSampler::kGuideBits;
  constexpr uint64_t kBucketMask = (uint64_t{1} << kShift) - 1;
  for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{16}, uint64_t{192},
                           uint64_t{1000}, kCap, kCap + 1}) {
    for (const double s : kZipfExponents) {
      SCOPED_TRACE("n " + std::to_string(n) + " s " + std::to_string(s));
      const ZipfSampler zipf(n, s);
      const ReferenceZipf reference(n, s);
      Rng rng(n * 17 + 3);
      uint64_t marked = 0;
      for (uint64_t bucket = 0; bucket < kBuckets; ++bucket) {
        const uint64_t rank = zipf.GuideRank(bucket);
        if (rank == 0) {
          continue;
        }
        ++marked;
        const uint64_t lowest = bucket << kShift;
        for (const uint64_t bits : {lowest, lowest | kBucketMask, lowest | (rng.Next() >> 11 &
                                    kBucketMask), lowest | (rng.Next() >> 11 & kBucketMask)}) {
          ASSERT_EQ(reference.Try(bits), rank - 1) << "bucket " << bucket << " bits " << bits;
        }
      }
      if (n > kCap) {
        EXPECT_EQ(marked, 0u);
      } else if (n <= 192) {
        // The guide is what makes tenant_kv's draws cheap: most buckets must be marked.
        EXPECT_GT(marked, kBuckets / 2);
      }
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
