// Pmbench-style paging micro-benchmark (Yang & Seymour).
//
// Reimplements the generator options the paper uses: a working set touched with uniform,
// Gaussian ("normal"), or Gaussian-with-stride ("normal_ih" + stride 2) index distributions,
// a read/write ratio, an optional per-access delay (the Fig. 9 hotness-level knob), and an
// optional op limit for finite runs.

#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace chronotier {

enum class PmbenchPattern {
  kUniform,
  kGaussian,  // normal_ih: indexes drawn N(center, sigma), spread by the stride step.
  kLinear,    // Sequential sweep.
};

struct PmbenchConfig {
  uint64_t working_set_bytes = 64ull * 1024 * 1024;
  double read_ratio = 0.95;
  PmbenchPattern pattern = PmbenchPattern::kGaussian;
  // Std-dev of the Gaussian index as a fraction of the page count. 0.0625 puts the center
  // quarter of the (pre-stride) index space at +-2 sigma, i.e. ~95% of accesses fall in the
  // paper's "hot region defined by the normal distribution" = center 25%.
  double sigma_fraction = 0.0625;
  uint64_t stride = 2;  // normal_ih stride step; 1 = dense.
  SimDuration per_op_delay = 0;
  uint64_t op_limit = 0;  // 0 = run forever.
  // Address-ordered pre-touch of the whole working set before the pattern starts (models
  // the paper's initialized-database starting placement: first-touched pages fill DRAM in
  // address order, leaving the Gaussian hot region mostly in the slow tier).
  bool sequential_init = false;
};

class PmbenchStream : public AccessStream {
 public:
  explicit PmbenchStream(PmbenchConfig config) : config_(config) {}

  const PmbenchConfig& config() const { return config_; }

  void Init(Process& process, Rng& rng) override;
  bool Next(Rng& rng, MemOp* op) override;
  bool SelfContained() const override { return true; }

  // Maps a pre-stride page index to the virtual page it touches. Exposed so benches can
  // construct ground-truth hot sets (the center fraction of the index space) even when the
  // stride scatters them across the address space.
  uint64_t MapIndexToVpn(uint64_t index) const;

  // Virtual pages whose pre-stride index lies in the centered `fraction` of the index
  // space — the benchmark's definition of the true hot set.
  std::vector<uint64_t> HotVpns(double fraction) const;

  uint64_t num_pages() const { return num_pages_; }
  uint64_t region_start_vpn() const { return region_vpn_; }

 private:
  uint64_t DrawIndex(Rng& rng);

  PmbenchConfig config_;
  uint64_t region_vpn_ = 0;
  uint64_t num_pages_ = 0;
  uint64_t ops_issued_ = 0;
  uint64_t linear_cursor_ = 0;
  uint64_t init_cursor_ = 0;
};

}  // namespace chronotier
