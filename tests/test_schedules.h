// Shared experiment schedules for the simulation-level tests: the small two-tier machine,
// its pmbench and segmented workloads, and the N-tier, chaos, fabric, tenant_kv and traced
// variants. tests/equivalence_test.cc pins every schedule here with golden fingerprints;
// other suites build on the same shapes instead of keeping their own copies.

#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/tenant_kv.h"

namespace chronotier {

inline ScanGeometry FastGeometry() {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 512;
  return geometry;
}

// Looks `name` up in the topology lineup (the six paper policies plus
// endpoint_aware_hotness) on the fast scan geometry.
inline NamedPolicyFactory FindPolicy(const std::string& name) {
  for (const auto& named : TopologyPolicySet(FastGeometry())) {
    if (named.name == name) {
      return named;
    }
  }
  ADD_FAILURE() << "no such policy: " << name;
  return {};
}

inline ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.total_pages = 16384;  // 64 MB machine, 16 MB DRAM.
  config.bandwidth_scale = 256.0;
  config.warmup = 6 * kSecond;
  config.measure = 6 * kSecond;
  config.residency_sample_interval = 2 * kSecond;  // Compare time series too.
  return config;
}

// `count` Gaussian pmbench processes over `ws_pages` each; `op_limit` > 0 makes them finite.
inline std::vector<ProcessSpec> GaussianProcs(int count, double read_ratio = 0.95,
                                              uint64_t ws_pages = 6144,
                                              uint64_t op_limit = 0) {
  PmbenchConfig w;
  w.working_set_bytes = ws_pages * kBasePageSize;
  w.read_ratio = read_ratio;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  w.op_limit = op_limit;
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < count; ++i) {
    procs.push_back({"pm", [w] { return std::make_unique<PmbenchStream>(w); }});
  }
  return procs;
}

// Many-VMA address space: 12 regions per process, region-hopping defeats the last-hit VMA
// cache, and the stream's finite init phase exercises the short-FillBatch edge.
inline std::vector<ProcessSpec> SegmentedProcs(int count) {
  SegmentedConfig w;
  w.working_set_bytes = 6144 * kBasePageSize;
  w.segments = 12;
  w.read_ratio = 0.9;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < count; ++i) {
    procs.push_back({"seg", [w] { return std::make_unique<SegmentedStream>(w); }});
  }
  return procs;
}

// Five-node CXL tree: hop penalties and per-endpoint congestion on every access.
inline ExperimentConfig NTierExperiment() {
  ExperimentConfig config = SmallExperiment();
  config.topology.tree = "(1,(2,4),(3,5))";
  config.topology.capacity_pages = {4096, 3072, 3072, 3072, 3072};
  return config;
}

// Chaos plan: copy faults park transactions and quarantine frames, pressure spikes force
// emergency reclaim, alloc-fail windows refuse demand faults.
inline ExperimentConfig ChaosExperiment() {
  ExperimentConfig config = SmallExperiment();
  config.fault.enabled = true;
  config.fault.seed = 11;
  config.fault.start_after = kSecond;
  config.fault.copy_fail_transient_p = 0.05;
  config.fault.copy_fail_persistent_p = 0.002;
  config.fault.pressure_period = 1500 * kMillisecond;
  config.fault.pressure_fire_p = 0.8;
  config.fault.pressure_duration = 100 * kMillisecond;
  config.fault.pressure_fraction = 0.08;
  config.fault.alloc_fail_period = 1900 * kMillisecond;
  config.fault.alloc_fail_fire_p = 0.8;
  config.fault.alloc_fail_duration = 50 * kMillisecond;
  config.audit_period = 500 * kMillisecond;
  return config;
}

// Fabric plan on the N-tier tree: link-down reroutes and endpoint evacuation.
inline ExperimentConfig FabricExperiment() {
  ExperimentConfig config = NTierExperiment();
  config.fault.enabled = true;
  config.fault.seed = 23;
  config.fault.start_after = kSecond;
  config.fault.fabric.link_fault_period = 400 * kMillisecond;
  config.fault.fabric.link_fault_fire_p = 0.7;
  config.fault.fabric.link_down_p = 0.5;
  config.fault.fabric.link_down_duration = 20 * kMillisecond;
  config.fault.fabric.link_degrade_duration = 40 * kMillisecond;
  config.fault.fabric.endpoint_fail_period = 2600 * kMillisecond;
  config.fault.fabric.endpoint_recovery_after = 300 * kMillisecond;
  config.audit_period = 500 * kMillisecond;
  return config;
}

// perfbench's tenant_cxl shape in miniature: 8 fair-share tenants, one open-loop KV server
// each, on the 4-endpoint chain fabric. Fills `procs`.
inline ExperimentConfig TenantKvExperiment(std::vector<ProcessSpec>* procs) {
  ExperimentConfig config = SmallExperiment();
  config.topology = BenchChainTopology(4, config.total_pages, config.fast_fraction);
  TenantKvConfig w;
  w.virtual_tenants = 8;
  w.items_per_tenant = 64;
  w.value_bytes = kBasePageSize;
  w.churn_period_ops = 4000;
  w.churn_stride = 5;
  w.mean_interarrival = 8 * kMicrosecond;
  for (int i = 0; i < 8; ++i) {
    TenantSpec tenant;
    tenant.name = "t" + std::to_string(i);
    tenant.weight = static_cast<double>(1 + i % 4);
    tenant.residency_budget_pages = {256};
    tenant.qos_program = "fair-share";
    config.tenants.push_back(tenant);
    ProcessSpec spec{"kv-" + std::to_string(i),
                     [w] { return std::make_unique<TenantKvStream>(w); }};
    spec.tenant = i;
    procs->push_back(spec);
  }
  return config;
}

// The observability machine: a working set larger than DRAM forces migration traffic, and
// 8 us/op keeps a fully traced run's event volume inside FullTracing()'s ring.
inline ExperimentConfig ObsMachine() {
  ExperimentConfig config;
  config.total_pages = 8192;  // 32 MB machine, 8 MB DRAM.
  config.bandwidth_scale = 256.0;
  config.warmup = 2 * kSecond;
  config.measure = 3 * kSecond;
  config.seed = 7;
  config.residency_sample_interval = kSecond;
  return config;
}

inline std::vector<ProcessSpec> ObsProcs() {
  PmbenchConfig w;
  w.working_set_bytes = 3072 * kBasePageSize;  // 12 MB > DRAM: forces migration traffic.
  w.read_ratio = 0.5;
  w.per_op_delay = 8 * kMicrosecond;
  w.sequential_init = true;
  return {{"pm", [w] { return std::make_unique<PmbenchStream>(w); }},
          {"pm", [w] { return std::make_unique<PmbenchStream>(w); }}};
}

// Everything on, ring sized so an ObsMachine run never overwrites (an on/off comparison
// needs the full volume recorded, and the drops counter is a result field).
inline TraceConfig FullTracing() {
  TraceConfig trace;
  trace.enabled = true;
  trace.categories = kTraceAllCategories;
  trace.ring_capacity = 1ull << 21;
  trace.provenance_sample_period = 16;
  trace.telemetry_period = 100 * kMillisecond;
  return trace;
}

}  // namespace chronotier
