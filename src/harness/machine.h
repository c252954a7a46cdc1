// Machine: the assembled simulated system.
//
// Owns the clock/event queue, the tiered physical memory, the per-node LRU lists, the
// processes with their workloads, an optional PEBS sampler, the shared reclaim (demotion)
// daemon, and exactly one TieringPolicy. The access path implemented here mirrors the
// kernel: demand fault on first touch, NUMA hint fault on poisoned PTEs, accessed/dirty bit
// maintenance, then the device-latency charge for the backing tier.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_types.h"
#include "src/fault/invariant_auditor.h"
#include "src/harness/metrics.h"
#include "src/harness/op_pipeline.h"
#include "src/harness/policy.h"
#include "src/mem/tiered_memory.h"
#include "src/migration/migration_engine.h"
#include "src/pebs/pebs.h"
#include "src/sim/event_queue.h"
#include "src/tenant/tenant.h"
#include "src/trace/tracer.h"
#include "src/vm/lru.h"
#include "src/vm/process.h"
#include "src/vm/scanner.h"
#include "src/workloads/workload.h"

namespace chronotier {

struct MachineConfig {
  std::vector<TierSpec> tiers;

  // N-tier CXL topology (src/topology). When `topology.enabled()` the tier vector is
  // derived from the parsed tree (`tiers` must stay empty) and the machine gains hop
  // penalties on the access path, per-endpoint link congestion, and routed multi-hop
  // migration. Disabled (the default) keeps the legacy ordered-tier complete graph.
  TopologySpec topology;

  // Software cost model (charged to both the faulting access and kernel time).
  SimDuration demand_fault_cost = 2 * kMicrosecond;
  SimDuration hint_fault_cost = 1500 * kNanosecond;
  SimDuration pte_visit_cost = 120 * kNanosecond;  // Per PTE/PMD examined by a scanner.
  SimDuration lru_visit_cost = 100 * kNanosecond;  // Per page examined by reclaim.

  SimDuration reclaim_check_period = 50 * kMillisecond;
  // Round-robin quantum for advancing processes between kernel events: bounds how far one
  // process can run ahead of another, so contended allocation (demand paging into the fast
  // tier) interleaves fairly instead of being ordered by pid.
  SimDuration process_quantum = 5 * kMillisecond;
  uint64_t reclaim_batch_limit = 1u << 15;  // Max pages demoted per reclaim wakeup.

  PebsConfig pebs;

  // Divides every tier's migration bandwidth: a 1/N-scale miniature machine must also scale
  // its copy engines by N or migration pressure becomes free. Benches use the same factor
  // as the capacity scaling (see EXPERIMENTS.md); unit tests keep 1.0 (testbed bandwidth).
  double bandwidth_scale = 1.0;
  // Migration-engine knobs (admission limits, retry policy). Replaces the old
  // `migration_backlog_limit` / `sync_migration_slack` scalars: the former is now
  // `migration.async_backlog_limit` (+ `migration.reclaim_backlog_limit`), the latter
  // `migration.sync_slack`. `migration.bandwidth_scale` is overwritten with
  // `bandwidth_scale` at construction — set only the top-level knob.
  MigrationEngineConfig migration;

  uint64_t seed = 42;

  // Batched access replay: RunProcessUntil prefetches up to this many ops from a process's
  // stream per refill and replays them with the virtual stream dispatch hoisted out of the
  // per-op loop. Streams are machine-state independent (Next sees only the binding's RNG
  // and the stream's own cursor), so prefetching is invisible to results: any batch size
  // replays bit-identically to single-stepping (replay_batch_ops = 1, which equivalence
  // tests use as the reference). The same fact lets self-contained streams be generated
  // batch by batch on a second thread (src/harness/op_pipeline.h).
  uint32_t replay_batch_ops = 64;

  // Access-path fast lane: per-process software translation cache (last-hit VMA + a small
  // direct-mapped vpn -> hotness-unit TLB) consulted at the top of AccessMemory. Results
  // are bit-identical with it on or off (the fast lane replays exactly the slow path's
  // present/!PROT_NONE/!migrating tail); the switch exists for equivalence tests and for
  // measuring the fast lane's contribution in bench/sim_throughput.
  bool enable_translation_cache = true;

  // Oracle access bookkeeping: per-access writes to the cold side-array (ColdPage
  // last_access / access_count) and the kPageOracleTouchedSlow flag. Nothing in src/
  // reads these — they exist for identification-accuracy figures (fig02a, fig10) and
  // tests that ground-truth hotness, so results are bit-identical either way (a seed
  // golden pins this). Off saves the one uncorrelated cache line per access that isn't
  // part of the simulated system; benches measuring raw replay speed disable it.
  bool track_oracle = true;

  // Fault-injection plan (disabled by default). When enabled, genuine allocation
  // exhaustion degrades gracefully instead of being fatal: the demand fault is refused,
  // the page stays absent, and the access is charged `alloc_retry_stall` before retrying
  // on a later touch.
  FaultPlan fault;
  SimDuration alloc_retry_stall = 100 * kMicrosecond;

  // Period of the always-on invariant audit (frame accounting, LRU membership, residency
  // counters, watermark ordering); 0 disables the periodic audit but not the end-of-run
  // audit run by the experiment harness.
  SimDuration audit_period = kSecond;

  // Observability (src/trace). Disabled by default; when enabled the machine owns a
  // Tracer that every subsystem emits into. Strictly observational: enabling it never
  // schedules queue events or touches simulation state, so results are bitwise identical
  // with tracing on or off (tests/trace_test.cc).
  TraceConfig trace;

  // Multi-tenant subsystem (src/tenant). Empty (the default) = single-tenant legacy mode:
  // one implicit unlimited tenant, no admission hook, no per-access tenant accounting —
  // the machine replays the exact pre-tenant path. Non-empty declares the tenants
  // processes are assigned to (Machine::AssignTenant / ProcessSpec::tenant); per-tenant
  // residency budgets and QoS programs then gate migration admission, and per-tenant
  // counters flow into Metrics, telemetry rows, and ExperimentResult.
  std::vector<TenantSpec> tenants;

  // Configuration validation, run at Machine construction (CHECK-fatal on any error).
  // Returns every violated constraint as a human-readable string; empty means valid.
  std::vector<std::string> Validate() const;

  // Convenience: the paper's standard 25%-DRAM two-tier box sized in base pages.
  static MachineConfig StandardTwoTier(uint64_t total_pages, double fast_fraction = 0.25);
};

class Machine : private MigrationEnv {
 public:
  Machine(MachineConfig config, std::unique_ptr<TieringPolicy> policy);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- setup ---
  Process& CreateProcess(const std::string& name);
  // Moves a process into `tenant` (default membership is tenant 0). Must happen before
  // the process faults any page in (the residency mirror starts at zero); applies the
  // tenant's access_delay override when one is configured.
  void AssignTenant(Process& process, int tenant);
  // Binds a workload; Init() runs immediately (mapping regions), first ops run on Start.
  void AttachWorkload(Process& process, std::unique_ptr<AccessStream> stream, uint64_t seed);

  // Finalizes setup: attaches the policy and starts the shared daemons. Must be called once
  // before Run*. Safe to create more processes afterwards (policy is notified).
  void Start();

  // --- execution ---
  // Runs for `duration` of simulated time. The first call also decides, once, whether the
  // self-contained streams bound so far are generated on a pipeline thread (when the
  // spare-core budget grants one; see src/harness/op_pipeline.h). Results are identical
  // either way; streams attached later stay in-thread.
  void Run(SimDuration duration);
  // Runs until every process's stream is exhausted or `max_duration` elapses; returns the
  // simulated time actually spent.
  SimDuration RunToCompletion(SimDuration max_duration);

  bool AllProcessesFinished() const;

  // Workload streams generated on the pipeline thread (0 = every stream in-thread).
  size_t pipelined_streams() const;

  // --- services for policies ---
  EventQueue& queue() override { return queue_; }
  TieredMemory& memory() override { return memory_; }
  NodeLru& lru(NodeId node) { return lrus_[static_cast<size_t>(node)]; }
  // The machine's page arena: index space for LRU linkage and home of the oracle cold
  // side-array (metrics/tests only — policies never read it).
  PageArena& arena() { return arena_; }
  const PageArena& arena() const { return arena_; }
  // The migration engine: the only path by which pages move between tiers.
  MigrationEngine& migration() { return *engine_; }
  const MigrationEngine& migration() const { return *engine_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  PebsSampler& pebs() { return pebs_; }
  void set_pebs_active(bool active) { pebs_active_ = active; }
  const MachineConfig& config() const { return config_; }
  SimTime now() const { return queue_.now(); }

  std::vector<std::unique_ptr<Process>>& processes() { return processes_; }
  Process* ProcessByPid(int32_t pid);

  // Resolves the VMA containing a page (via its owner process).
  Vma* ResolveVma(const PageInfo& page);

  // Marks a hotness unit PROT_NONE so the next access takes a hint fault. Drops any cached
  // translation for the unit so the fast lane cannot skip the fault.
  void PoisonUnit(PageInfo& unit) {
    if (unit.present()) {
      unit.Set(kPageProtNone);
      InvalidateTranslationsFor(unit);
      EmitTrace(tracer_.get(), TraceCategory::kScan, TraceEventType::kScanPoison,
                queue_.now(), unit.owner, unit.vpn, unit.node);
    }
  }

  // Demotes one unit from the fast tier (reclaim path; notifies the policy).
  bool DemoteUnit(Vma& vma, PageInfo& unit);

  // Splits a present, unsplit huge unit into base pages (Memtis page splitting); the new
  // base pages inherit residency and join the LRU. Returns false if not applicable.
  bool SplitHugeUnit(Vma& vma, PageInfo& head);

  // Runs fast-tier demotion until `free >= refill_target` or the batch limit is hit.
  // Returns pages demoted. Exposed so policies with custom triggers can reuse the mechanism.
  uint64_t ReclaimFastTier(uint64_t refill_target);

  // Fabric evacuation: drains one batch of resident pages off failing endpoint `source`
  // toward the best surviving endpoints (latency-scored with live route backlog), as
  // reclaim-class submissions under the normal AdmissionController. Returns pages moved.
  // OOM-safe: targets must keep low-watermark headroom, so when survivors cannot absorb
  // the pages the batch stops short instead of forcing allocations below floors (the
  // FabricFaultDriver gives up at its drain deadline and the endpoint stays kFailing).
  uint64_t EvacuateEndpoint(NodeId source);

  void ChargeKernel(KernelWork work, SimDuration d) { metrics_.ChargeKernel(work, d); }

  // Runs a full invariant audit right now and returns the report (also counted in
  // FaultStats::audits_run). The periodic audit CHECK-fails on any violation.
  AuditReport AuditNow();

  // One-line-per-fact dump of machine state for structured fatal errors: sim time,
  // per-tier frame/watermark/degradation state, migration-engine in-flight gauges.
  std::string FatalDump() const;

  // The fault injector, or nullptr when config.fault.enabled is false.
  FaultInjector* fault_injector() { return injector_.get(); }  // detlint:allow(dead-symbol) test access point for mid-run fault control

  // The tenant registry (always configured; single implicit tenant in legacy mode).
  TenantRegistry& tenants() { return tenants_; }
  const TenantRegistry& tenants() const { return tenants_; }

  // The tracer, or nullptr when config.trace.enabled is false. Instrumentation sites go
  // through EmitTrace(tracer(), ...), which is a single null check when tracing is off.
  Tracer* tracer() { return tracer_.get(); }

  // Charges the cost of a scanner chunk (units * pte_visit_cost) and returns it.
  SimDuration ChargeScanCost(uint64_t units_visited);

  TieringPolicy& policy() { return *policy_; }

  // Aggregate translation-cache counters across all processes (bench reporting; not part
  // of ExperimentResult so TLB-on/off runs stay field-for-field comparable).
  struct TlbCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
  };
  TlbCounters TlbStats() const;

  // Drops every cached translation covering `unit` from its owner's TLB. Called on any
  // transition that ends the unit's fast-lane eligibility (PROT_NONE poisoning, migration
  // submit/commit) or remaps vpns to different units (huge-group split).
  void InvalidateTranslationsFor(const PageInfo& unit);

 private:
  struct WorkloadBinding {
    std::unique_ptr<AccessStream> stream;
    Rng rng;  // Unused once pipelined: the lane owns the live copy.
    // Batched-replay prefetch: batch[cursor..count) are pending. `batch` points into `ops`
    // in-thread, or at the pipeline slot taken last. `exhausted` records that a short fill
    // already observed the stream's end, so no further stream calls are made (keeping the
    // stream/RNG interaction identical to single-step replay).
    std::vector<MemOp> ops;
    const MemOp* batch = nullptr;
    size_t cursor = 0;
    size_t count = 0;
    bool exhausted = false;
    int lane = -1;  // Pipeline lane, or -1 when generated in-thread.
  };

  // detlint:allow(dead-symbol) readable reference implementation of the inlined fast lane in RunProcessSlice
  SimDuration AccessMemory(Process& process, uint64_t vaddr, bool is_store);
  // Everything past the fast-lane check: VMA resolution, demand/hint faults, device
  // charge, bookkeeping, translation install. AccessMemory is lane check + this; the
  // batched replay loop in RunProcessUntil performs its own lane check with the TLB
  // reference and enable flag hoisted out of the per-op loop and calls this on a miss.
  SimDuration SlowPathAccess(Process& process, uint64_t vpn, bool is_store);
  // The fast lane: device charge + flag/metrics update for a cached, present,
  // non-PROT_NONE, non-migrating unit. Must stay byte-for-byte equivalent to the tail of
  // the slow path under the same conditions — including the PEBS sampling charge (`vpn`
  // is the accessed page, which differs from unit.vpn inside a huge unit).
  SimDuration FastPathAccess(Process& process, PageInfo& unit, uint64_t vpn, bool is_store);
  SimDuration HandleDemandFault(Process& process, Vma& vma, PageInfo& unit);
  void RunProcessUntil(Process& process, WorkloadBinding& binding, SimTime horizon);
  // Moves the self-contained bindings onto a pipeline thread if the core budget grants one.
  void StartPipeline();
  void ReclaimTick(SimTime now);
  // Telemetry snapshot callback (tier occupancy, LRU sizes, engine backlog, hit ratios);
  // installed on the tracer's sampler at Start(). Read-only over machine state.
  void FillTelemetrySample(SimTime now, TelemetrySample* sample) const;

  // --- MigrationEnv (the engine's view of the machine) ---
  void ReclaimForPromotion(uint64_t pages) override;
  void ApplyMigration(Vma& vma, PageInfo& unit, NodeId from, NodeId to) override;
  void OnUnitMigrationStateChanged(Vma& vma, PageInfo& unit) override {
    (void)vma;
    InvalidateTranslationsFor(unit);
  }
  void ChargeMigrationKernelTime(SimDuration d) override {
    metrics_.ChargeKernel(KernelWork::kMigration, d);
  }
  void OnPromotionRefused() override { metrics_.CountPromotionFailure(); }

  MachineConfig config_;
  EventQueue queue_;
  TieredMemory memory_;
  PageArena arena_;  // Page index space + oracle cold array; before lrus_ (lists link by
                     // arena index).
  std::deque<NodeLru> lrus_;  // deque: NodeLru is pinned (intrusive lists) and immovable.
  std::unique_ptr<TieringPolicy> policy_;
  Metrics metrics_;
  PebsSampler pebs_;
  bool pebs_active_ = false;
  bool started_ = false;
  bool pipeline_decided_ = false;  // Set by the first Run(), which calls StartPipeline().
  bool reclaim_in_progress_ = false;  // Re-entrancy guard: demotions never recurse.
  std::unique_ptr<Tracer> tracer_;   // Null unless config.trace.enabled; before engine_
                                     // (the engine holds a raw pointer into it).
  std::unique_ptr<MigrationEngine> engine_;  // After metrics_: stats live there.
  std::unique_ptr<FaultInjector> injector_;  // Null unless config.fault.enabled.
  TenantRegistry tenants_;  // After memory_ (holds a view) and metrics_ (stats live there).
  bool tenant_accounting_ = false;  // Per-access tenant counters; on iff tenants declared.

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<WorkloadBinding> bindings_;  // Indexed by pid.
  // After bindings_: destroyed first, so the generator thread is joined before any stream
  // it fills from dies. Null while every stream is generated in-thread.
  std::unique_ptr<OpPipeline> pipeline_;
};

}  // namespace chronotier
