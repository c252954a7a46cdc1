// Open-loop multi-tenant key-value driver (the memtier-style "millions of users" load).
//
// Models one KV server process serving a large population of virtual tenants: each
// operation first picks a tenant by Zipfian popularity (a few tenants dominate), then a
// key inside that tenant's keyspace by a second, per-tenant-scrambled Zipfian draw — so
// every tenant has its own hot set at a different heap offset. Tenant popularity churns:
// every `churn_period_ops` operations the popularity ranking rotates by a fixed stride,
// turning hot tenants cold and promoting cold ones (the hot/cold tenant churn that makes
// residency budgets interesting). Arrivals are open-loop: each operation carries an
// exponential (or fixed) interarrival think time, independent of service latency.
//
// Layout mirrors KvStoreStream: a directory region (one cache-line dirent per tenant,
// touched on every op) plus an item heap partitioned per tenant. Initialization SETs every
// item sequentially before the measured mix begins.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/workloads/workload.h"

namespace chronotier {

struct TenantKvConfig {
  uint64_t virtual_tenants = 64;   // Distinct tenants multiplexed onto this stream.
  uint64_t items_per_tenant = 512;
  uint64_t value_bytes = 256;
  double set_fraction = 1.0 / 11.0;  // SET:GET = 1:10, as in the memtier default.
  // Zipf exponents: tenant popularity (which tenant issues the next op) and key
  // popularity inside the chosen tenant's keyspace.
  double tenant_zipf_s = 1.05;
  double key_zipf_s = 0.99;
  // Popularity churn: every `churn_period_ops` post-init operations, rank r maps to
  // tenant (r + epoch * churn_stride) % virtual_tenants. A stride coprime to the tenant
  // count cycles through every rotation. 0 = no churn.
  uint64_t churn_period_ops = 20000;
  uint64_t churn_stride = 17;
  // Open-loop arrival process: mean interarrival charged as think time on the first
  // reference of each operation. Exponential when `poisson_arrivals`, else fixed.
  SimDuration mean_interarrival = 2 * kMicrosecond;
  bool poisson_arrivals = true;
  uint64_t op_limit = 0;  // Post-initialization ops; 0 = infinite.
  // Charged as think time before the very first initialization access: staggers this
  // server's load phase relative to the other processes on the machine (the
  // noisy-neighbor rows use it so the victim finishes first-touch placement first).
  SimDuration start_delay = 0;
};

// The per-tenant key scramble item = (key_rank + SplitMix64(tenant)) % items, with each
// tenant's offset reduced once so a lookup pays a conditional subtract, not a division.
// That equals the formula only while SplitMix64(tenant) + items - 1 cannot wrap; when it
// can for some tenant the table stays empty and every lookup takes the formula.
class TenantKeyScramble {
 public:
  TenantKeyScramble() = default;
  TenantKeyScramble(uint64_t tenants, uint64_t items);

  uint64_t Item(uint64_t tenant, uint64_t key_rank) const {
    if (offsets_.empty()) {
      return (key_rank + SplitMix64(tenant)) % items_;
    }
    const uint64_t item = key_rank + offsets_[tenant];
    return item >= items_ ? item - items_ : item;
  }

  bool tabulated() const { return !offsets_.empty(); }

 private:
  uint64_t items_ = 1;
  std::vector<uint64_t> offsets_;  // SplitMix64(tenant) % items; empty when it can wrap.
};

class TenantKvStream : public AccessStream {
 public:
  explicit TenantKvStream(TenantKvConfig config) : config_(config) {}

  void Init(Process& process, Rng& rng) override;
  bool Next(Rng& rng, MemOp* op) override;
  // Next()'s ops and draws, with the measured mix run straight-line: each op's dirent and
  // value MemOps go straight into `ops`, and an op the batch cuts off spills the rest of
  // its burst for the next call. Drains, the init prefix, the op limit and values spanning
  // several pages go through Next() or EmitOp().
  size_t FillBatch(Rng& rng, MemOp* ops, size_t max) override;
  bool SelfContained() const override { return true; }

  bool initialization_done() const { return init_cursor_ >= total_items(); }
  uint64_t ops_issued() const { return ops_issued_; }
  uint64_t total_items() const { return config_.virtual_tenants * config_.items_per_tenant; }

  // Address-space geometry (for tests).
  uint64_t directory_region_vpn() const { return directory_base_ / kBasePageSize; }
  uint64_t heap_region_vpn() const { return heap_base_ / kBasePageSize; }

  // The tenant a popularity rank maps to in the given churn epoch (pure function; the
  // tests pin the rotation against it).
  uint64_t TenantForRank(uint64_t rank, uint64_t epoch) const;

 private:
  uint64_t DirentAddr(uint64_t tenant) const;
  uint64_t ItemAddr(uint64_t tenant, uint64_t item) const;

  // Emits the access burst for one operation: dirent probe + the item's value pages.
  void EmitOp(uint64_t tenant, uint64_t item, bool is_set, SimDuration arrival_gap);

  TenantKvConfig config_;
  uint64_t directory_base_ = 0;
  uint64_t heap_base_ = 0;

  std::unique_ptr<ZipfSampler> tenant_zipf_;
  std::unique_ptr<ZipfSampler> key_zipf_;
  TenantKeyScramble key_scramble_;

  uint64_t init_cursor_ = 0;
  uint64_t ops_issued_ = 0;

  static constexpr uint64_t kDirentBytes = 64;

  // Tiny fixed replay buffer (dirent + value pages), same idiom as KvStoreStream.
  static constexpr int kMaxBurst = 8;
  MemOp burst_[kMaxBurst];
  int burst_len_ = 0;
  int burst_pos_ = 0;
};

}  // namespace chronotier
