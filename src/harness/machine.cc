#include "src/harness/machine.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"

namespace chronotier {

MachineConfig MachineConfig::StandardTwoTier(uint64_t total_pages, double fast_fraction) {
  MachineConfig config;
  const auto fast_pages =
      static_cast<uint64_t>(static_cast<double>(total_pages) * fast_fraction);
  config.tiers = {TierSpec::Dram(fast_pages), TierSpec::OptanePmem(total_pages - fast_pages)};
  return config;
}

std::vector<std::string> MachineConfig::Validate() const {
  std::vector<std::string> errors;
  const auto require = [&errors](bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  };
  const auto probability = [&require](double p, const std::string& name) {
    require(p >= 0.0 && p <= 1.0, name + " must be a probability in [0, 1]");
  };

  if (topology.enabled()) {
    // Tier specs are derived from the parsed topology tree; a separate tier vector would
    // be ambiguous about which description wins.
    require(tiers.empty(), "set either tiers or topology, not both");
    Topology parsed;
    std::string topo_error;
    // Sequenced: the message must be built after Build() fills topo_error (argument
    // evaluation order is unspecified).
    const bool topo_ok = Topology::Build(topology, &parsed, &topo_error);
    require(topo_ok, "topology: " + topo_error);
    require(parsed.num_nodes() <= kMaxNodes,
            "topology has " + std::to_string(parsed.num_nodes()) + " nodes; max is " +
                std::to_string(kMaxNodes));
  } else {
    require(!tiers.empty(), "at least one tier is required");
    if (!tiers.empty()) {
      require(tiers.front().kind == TierKind::kFast, "tier 0 must be the fast tier");
    }
    for (size_t i = 0; i < tiers.size(); ++i) {
      const TierSpec& spec = tiers[i];
      const std::string which = "tier " + std::to_string(i) + " (" + spec.name + ")";
      require(spec.capacity_pages > 0, which + ": capacity_pages must be > 0");
      require(spec.migration_bandwidth_bytes_per_sec > 0,
              which + ": migration bandwidth must be > 0");
      require(spec.load_latency >= 0, which + ": load_latency must be >= 0");
      require(spec.store_latency >= 0, which + ": store_latency must be >= 0");
    }
  }

  require(demand_fault_cost >= 0, "demand_fault_cost must be >= 0");
  require(hint_fault_cost >= 0, "hint_fault_cost must be >= 0");
  require(pte_visit_cost >= 0, "pte_visit_cost must be >= 0");
  require(lru_visit_cost >= 0, "lru_visit_cost must be >= 0");
  require(reclaim_check_period > 0, "reclaim_check_period must be > 0");
  require(process_quantum > 0, "process_quantum must be > 0");
  require(reclaim_batch_limit > 0, "reclaim_batch_limit must be > 0");
  require(replay_batch_ops >= 1, "replay_batch_ops must be >= 1");
  require(bandwidth_scale >= 1.0, "bandwidth_scale must be >= 1");

  require(migration.max_copy_attempts >= 1, "migration.max_copy_attempts must be >= 1");
  require(migration.retry_backoff >= 0, "migration.retry_backoff must be >= 0");
  require(migration.sync_slack >= 0, "migration.sync_slack must be >= 0");
  require(migration.async_backlog_limit >= 0, "migration.async_backlog_limit must be >= 0");
  require(migration.reclaim_backlog_limit >= 0,
          "migration.reclaim_backlog_limit must be >= 0");
  require(migration.evac_backlog_limit >= 0, "migration.evac_backlog_limit must be >= 0");
  require(migration.source_inflight_page_limit > 0,
          "migration.source_inflight_page_limit must be > 0");

  probability(fault.copy_fail_transient_p, "fault.copy_fail_transient_p");
  probability(fault.copy_fail_persistent_p, "fault.copy_fail_persistent_p");
  probability(fault.stall_fire_p, "fault.stall_fire_p");
  probability(fault.pressure_fire_p, "fault.pressure_fire_p");
  probability(fault.alloc_fail_fire_p, "fault.alloc_fail_fire_p");
  require(fault.start_after >= 0, "fault.start_after must be >= 0");
  require(fault.stall_period >= 0, "fault.stall_period must be >= 0");
  require(fault.stall_duration >= 0, "fault.stall_duration must be >= 0");
  require(fault.stall_window >= 0, "fault.stall_window must be >= 0");
  require(fault.stall_bandwidth_slowdown >= 1.0,
          "fault.stall_bandwidth_slowdown must be >= 1");
  require(fault.pressure_period >= 0, "fault.pressure_period must be >= 0");
  require(fault.pressure_duration >= 0, "fault.pressure_duration must be >= 0");
  require(fault.pressure_fraction >= 0.0 && fault.pressure_fraction < 1.0,
          "fault.pressure_fraction must be in [0, 1)");
  require(fault.alloc_fail_period >= 0, "fault.alloc_fail_period must be >= 0");
  require(fault.alloc_fail_duration >= 0, "fault.alloc_fail_duration must be >= 0");
  probability(fault.fabric.link_fault_fire_p, "fault.fabric.link_fault_fire_p");
  probability(fault.fabric.link_down_p, "fault.fabric.link_down_p");
  probability(fault.fabric.endpoint_fail_fire_p, "fault.fabric.endpoint_fail_fire_p");
  require(fault.fabric.link_fault_period >= 0, "fault.fabric.link_fault_period must be >= 0");
  require(fault.fabric.link_down_duration > 0,
          "fault.fabric.link_down_duration must be > 0");
  require(fault.fabric.link_degrade_duration > 0,
          "fault.fabric.link_degrade_duration must be > 0");
  require(fault.fabric.link_degrade_factor >= 1.0,
          "fault.fabric.link_degrade_factor must be >= 1");
  require(fault.fabric.endpoint_fail_period >= 0,
          "fault.fabric.endpoint_fail_period must be >= 0");
  require(fault.fabric.endpoint_recovery_after >= 0,
          "fault.fabric.endpoint_recovery_after must be >= 0");
  // The drain pump self-reschedules at this cadence; zero would spin the event queue.
  require(fault.fabric.evac_drain_period > 0, "fault.fabric.evac_drain_period must be > 0");
  require(fault.fabric.endpoint_drain_deadline >= 0,
          "fault.fabric.endpoint_drain_deadline must be >= 0");
  require(alloc_retry_stall >= 0, "alloc_retry_stall must be >= 0");
  require(audit_period >= 0, "audit_period must be >= 0");

  // Per-endpoint watermark floors. Fault injection drives every node to its strict `min`
  // floor (allocation-failure windows) and steers demotion/evacuation by low-watermark
  // headroom; the old check implicitly assumed the two-tier shape (one big slow tier),
  // but an N-tier tree can hide an endpoint so small its derived floors swallow the whole
  // node. Require one `min` of usable frames above the derived high watermark (min =
  // max(capacity/250, 4), high = 3*min — MemoryTier::SetDefaultWatermarks).
  if (fault.enabled && (fault.alloc_fail_period > 0 || fault.fabric.Any())) {
    const auto check_floor = [&require](const std::string& which, uint64_t capacity) {
      const uint64_t min_floor = std::max<uint64_t>(capacity / 250, 4);
      require(capacity >= 4 * min_floor,
              which + ": capacity " + std::to_string(capacity) +
                  " pages cannot honour its derived watermark floors under fault " +
                  "injection (needs >= " + std::to_string(4 * min_floor) + ")");
    };
    if (topology.enabled()) {
      for (size_t i = 0; i < topology.capacity_pages.size(); ++i) {
        check_floor("topology node " + std::to_string(i), topology.capacity_pages[i]);
      }
    } else {
      for (size_t i = 0; i < tiers.size(); ++i) {
        check_floor("tier " + std::to_string(i) + " (" + tiers[i].name + ")",
                    tiers[i].capacity_pages);
      }
    }
  }

  if (trace.enabled) {
    require(trace.ring_capacity > 0, "trace.ring_capacity must be > 0");
    require(trace.provenance_depth > 0, "trace.provenance_depth must be > 0");
    require(trace.telemetry_period >= 0, "trace.telemetry_period must be >= 0");
  }

  const size_t num_nodes =
      topology.enabled() ? topology.capacity_pages.size() : tiers.size();
  for (size_t t = 0; t < tenants.size(); ++t) {
    const TenantSpec& tenant = tenants[t];
    const std::string which = "tenants[" + std::to_string(t) + "]";
    require(!tenant.name.empty(), which + ".name must be non-empty");
    require(tenant.weight > 0.0, which + ".weight must be > 0");
    require(tenant.migration_budget_bytes_per_sec >= 0.0,
            which + ".migration_budget_bytes_per_sec must be >= 0");
    require(tenant.migration_budget_burst >= 0, which + ".migration_budget_burst must be >= 0");
    require(tenant.access_delay >= 0, which + ".access_delay must be >= 0");
    require(tenant.residency_budget_pages.size() <= num_nodes,
            which + ".residency_budget_pages has more entries than memory nodes");
    require(tenant.qos_program.empty() || IsRegisteredQosProgram(tenant.qos_program),
            which + ".qos_program \"" + tenant.qos_program + "\" is not registered");
  }
  return errors;
}

namespace {
std::vector<TierSpec> ScaleBandwidth(std::vector<TierSpec> tiers, double scale) {
  if (scale > 1.0) {
    for (TierSpec& spec : tiers) {
      spec.migration_bandwidth_bytes_per_sec /= scale;
    }
  }
  return tiers;
}

TieredMemory BuildMemory(const MachineConfig& config) {
  if (!config.topology.enabled()) {
    return TieredMemory(ScaleBandwidth(config.tiers, config.bandwidth_scale));
  }
  Topology topo;
  std::string error;
  CHECK(Topology::Build(config.topology, &topo, &error)) << "invalid topology: " << error;
  // A miniature machine scales the endpoint links together with the tiers' copy engines,
  // or congestion and routed-copy pressure become free at scale. TierSpecs() shares the
  // parsed spec's bandwidth storage with the link model, so it must be snapshotted BEFORE
  // the link scaling — each consumer is scaled exactly once. (Scaling the links first used
  // to double-scale the copy engines: every topology-machine page copy ran bandwidth_scale
  // times slower than the equivalent two-tier machine's.)
  std::vector<TierSpec> tiers = ScaleBandwidth(topo.TierSpecs(), config.bandwidth_scale);
  topo.ScaleBandwidth(config.bandwidth_scale);
  return TieredMemory(std::move(tiers), std::move(topo));
}
}  // namespace

Machine::Machine(MachineConfig config, std::unique_ptr<TieringPolicy> policy)
    : config_(config),
      memory_(BuildMemory(config)),
      policy_(std::move(policy)),
      pebs_(config.pebs) {
  for (int i = 0; i < memory_.num_nodes(); ++i) {
    lrus_.emplace_back();
    lrus_.back().set_arena(&arena_);
  }
  CHECK(policy_ != nullptr);
  const std::vector<std::string> errors = config_.Validate();
  CHECK(errors.empty()) << "invalid MachineConfig (" << errors.size() << " error(s)): first: "
                        << (errors.empty() ? "" : errors.front());
  // The engine shares the machine's bandwidth scaling so copy CPU is charged unscaled.
  MigrationEngineConfig engine_config = config_.migration;
  engine_config.bandwidth_scale = config_.bandwidth_scale;
  engine_ = std::make_unique<MigrationEngine>(engine_config, static_cast<MigrationEnv*>(this),
                                              metrics_.mutable_migration());
  if (config_.fault.enabled) {
    injector_ = std::make_unique<FaultInjector>(config_.fault, metrics_.mutable_fault());
    engine_->set_fault_oracle(injector_.get());
  }
  if (config_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(config_.trace);
    engine_->set_tracer(tracer_.get());
    if (injector_ != nullptr) {
      injector_->set_tracer(tracer_.get());
    }
  }
  // Tenant registry: always configured (one implicit tenant in legacy mode) so residency
  // mirroring and the auditor's tenant check are unconditional; the admission hook and
  // per-access accounting engage only when the config declares tenants with QoS.
  metrics_.InitTenantStats(std::max<size_t>(config_.tenants.size(), 1));
  tenants_.Configure(config_.tenants, &memory_);
  tenants_.set_stats(metrics_.mutable_tenant_stats());
  tenant_accounting_ = tenants_.active();
  if (tracer_ != nullptr) {
    tenants_.set_tracer(tracer_.get());
  }
  if (tenants_.qos_active()) {
    engine_->set_qos_hook(&tenants_);
  }
}

Machine::~Machine() = default;

Process& Machine::CreateProcess(const std::string& name) {
  const auto pid = static_cast<int32_t>(processes_.size());
  processes_.push_back(std::make_unique<Process>(pid, name));
  bindings_.emplace_back();
  Process& process = *processes_.back();
  // Every region the workload maps registers its pages with the machine's arena (LRU
  // index space + oracle cold array).
  process.aspace().set_arena(&arena_);
  process.SyncClockTo(queue_.now());
  tenants_.AssignProcess(pid, 0);  // Default membership; AssignTenant moves it later.
  if (tracer_ != nullptr) {
    tracer_->SetProcessName(pid, name);
  }
  if (started_) {
    policy_->OnProcessCreated(process);
  }
  return process;
}

void Machine::AssignTenant(Process& process, int tenant) {
  uint64_t resident = 0;
  for (NodeId node = 0; node < memory_.num_nodes(); ++node) {
    resident += process.resident_pages(node);
  }
  CHECK(resident == 0) << "AssignTenant after first touch: pid=" << process.pid()
                       << " holds " << resident << " resident pages";
  process.set_tenant(tenant);
  tenants_.AssignProcess(process.pid(), tenant);
  // Fold the tenant's Fig. 9 stall knob onto the member process; a nonzero tenant delay
  // overrides the deprecated per-process alias (ProcessSpec::access_delay).
  const TenantSpec& spec = tenants_.spec(tenant);
  if (spec.access_delay > 0) {
    process.set_access_delay(spec.access_delay);
  }
}

void Machine::AttachWorkload(Process& process, std::unique_ptr<AccessStream> stream,
                             uint64_t seed) {
  WorkloadBinding& binding = bindings_[static_cast<size_t>(process.pid())];
  CHECK(binding.lane < 0) << "AttachWorkload on pid " << process.pid()
                          << " while its stream is generated on the pipeline thread";
  binding.stream = std::move(stream);
  binding.rng.Seed(seed);
  binding.stream->Init(process, binding.rng);
}

void Machine::Start() {
  CHECK(!started_) << "Machine::Start() called twice";
  started_ = true;
  if (tracer_ != nullptr) {
    // The telemetry sampler is pull-driven (polled from Emit and existing periodic work,
    // never from its own queue event — see src/trace/telemetry.h for why).
    tracer_->telemetry().set_snapshot_fn(
        [this](SimTime now, TelemetrySample* sample) { FillTelemetrySample(now, sample); });
  }
  policy_->Attach(*this);
  if (policy_->WantsSharedReclaim()) {
    queue_.SchedulePeriodic(config_.reclaim_check_period,
                            [this](SimTime now) { ReclaimTick(now); });
  }
  if (injector_ != nullptr) {
    injector_->Arm(queue_, memory_, *engine_,
                   [this](uint64_t target) { return ReclaimFastTier(target); },
                   [this](NodeId node) { return EvacuateEndpoint(node); });
  }
  if (config_.audit_period > 0) {
    // The always-on auditor: any bookkeeping divergence dies loudly at the next period
    // boundary instead of silently skewing results.
    queue_.SchedulePeriodic(config_.audit_period, [this](SimTime now) {
      if (tracer_ != nullptr) {
        tracer_->Poll(now);
      }
      const AuditReport report = AuditNow();
      CHECK(report.clean()) << report.Summary() << "\n" << FatalDump();
    });
  }
}

AuditReport Machine::AuditNow() {
  ++metrics_.mutable_fault()->audits_run;
  return InvariantAuditor::Audit(queue_.now(), memory_, processes_, lrus_, engine_.get(),
                                 &tenants_);
}

std::string Machine::FatalDump() const {
  std::ostringstream os;
  os << "machine state at tick=" << queue_.now() << "ns:";
  for (NodeId node = 0; node < memory_.num_nodes(); ++node) {
    const MemoryTier& tier = memory_.node(node);
    const Watermarks& wm = tier.watermarks();
    os << "\n  tier " << node << " (" << tier.spec().name << "): free=" << tier.free_pages()
       << " allocated=" << tier.allocated_pages()
       << " quarantined=" << tier.quarantined_pages()
       << " pressure_stolen=" << tier.pressure_stolen_pages()
       << " capacity=" << tier.capacity_pages() << " watermarks(min=" << wm.min
       << " low=" << wm.low << " high=" << wm.high << " pro=" << wm.pro << ")"
       << (tier.degraded() ? " DEGRADED" : "")
       << (tier.strict_min_floor() ? " STRICT-MIN" : "");
  }
  os << "\n  migration: inflight_transactions=" << engine_->inflight_transactions()
     << " inflight_reserved_pages=" << engine_->inflight_reserved_pages();
  const TopologyHealth& health = memory_.health();
  if (health.any_fault()) {
    os << "\n  fabric: generation=" << health.generation()
       << " links_down=" << health.links_down()
       << " endpoints_unavailable=" << health.endpoints_unavailable();
    for (NodeId node = 0; node < memory_.num_nodes(); ++node) {
      if (health.endpoint(node) == EndpointHealth::kFailing) {
        os << " node" << node << "=FAILING";
      } else if (health.endpoint(node) == EndpointHealth::kOffline) {
        os << " node" << node << "=OFFLINE";
      }
    }
  }
  if (tenants_.active()) {
    for (int t = 0; t < tenants_.num_tenants(); ++t) {
      const TenantAccount& acct = tenants_.account(t);
      os << "\n  tenant " << t << " (" << acct.spec.name << "): resident=[";
      for (size_t node = 0; node < acct.resident_pages.size(); ++node) {
        os << (node == 0 ? "" : " ") << acct.resident_pages[node];
      }
      os << "] program=" << (acct.program != nullptr ? acct.program->name() : "-")
         << " bandwidth_cursor=" << acct.bandwidth_cursor;
    }
  }
  return os.str();
}

Process* Machine::ProcessByPid(int32_t pid) {
  if (pid < 0 || static_cast<size_t>(pid) >= processes_.size()) {
    return nullptr;
  }
  return processes_[static_cast<size_t>(pid)].get();
}

Vma* Machine::ResolveVma(const PageInfo& page) {
  Process* owner = ProcessByPid(page.owner);
  return owner != nullptr ? owner->aspace().FindVma(page.vpn) : nullptr;
}

void Machine::Run(SimDuration duration) {
  CHECK(started_) << "Run() before Start()";
  if (!pipeline_decided_) {
    pipeline_decided_ = true;
    StartPipeline();
  }
  const SimTime end = queue_.now() + duration;
  while (queue_.now() < end) {
    SimTime horizon = queue_.NextEventTime();
    if (horizon == kNeverTime || horizon > end) {
      horizon = end;
    }
    // Advance processes toward the horizon in bounded quanta so they interleave fairly.
    SimTime cursor = queue_.now();
    while (cursor < horizon) {
      cursor = std::min(cursor + config_.process_quantum, horizon);
      for (size_t i = 0; i < processes_.size(); ++i) {
        RunProcessUntil(*processes_[i], bindings_[i], cursor);
      }
    }
    queue_.RunUntil(horizon);
  }
}

SimDuration Machine::RunToCompletion(SimDuration max_duration) {
  CHECK(started_) << "RunToCompletion() before Start()";
  const SimTime start = queue_.now();
  const SimTime deadline = start + max_duration;
  // Slice execution so completion is detected promptly without busy-checking per op.
  const SimDuration slice = std::max<SimDuration>(config_.reclaim_check_period, kMillisecond);
  while (!AllProcessesFinished() && queue_.now() < deadline) {
    Run(std::min<SimDuration>(slice, deadline - queue_.now()));
  }
  return queue_.now() - start;
}

bool Machine::AllProcessesFinished() const {
  for (size_t i = 0; i < processes_.size(); ++i) {
    if (bindings_[i].stream != nullptr && !processes_[i]->finished()) {
      return false;
    }
  }
  return true;
}

size_t Machine::pipelined_streams() const {
  size_t pipelined = 0;
  for (const WorkloadBinding& binding : bindings_) {
    pipelined += binding.lane >= 0 ? 1 : 0;
  }
  return pipelined;
}

void Machine::StartPipeline() {
  for (WorkloadBinding& binding : bindings_) {
    if (binding.stream == nullptr || !binding.stream->SelfContained()) {
      continue;
    }
    if (pipeline_ == nullptr) {
      pipeline_ = OpPipeline::Claim(config_.replay_batch_ops);
      if (pipeline_ == nullptr) {
        return;
      }
    }
    binding.lane = static_cast<int>(pipeline_->AddLane(binding.stream.get(), binding.rng));
  }
  if (pipeline_ != nullptr) {
    pipeline_->Start();
  }
}

void Machine::RunProcessUntil(Process& process, WorkloadBinding& binding, SimTime horizon) {
  if (binding.stream == nullptr || process.finished()) {
    process.SyncClockTo(horizon);
    return;
  }
  // Batched replay: refill the binding's prefetch buffer once per `replay_batch_ops` ops
  // instead of taking a virtual Next() per op. Streams never see machine state, so a
  // prefetched op is the op single-stepping would have produced at the same ordinal, and
  // the stream/RNG call sequence is identical (a short fill marks `exhausted`, after which
  // the stream is never called again — matching single-step's one terminating Next()).
  // A pipelined binding takes the next slot the pipeline filled with that same FillBatch
  // call instead.
  const size_t batch = config_.replay_batch_ops;
  if (binding.lane < 0 && binding.ops.size() < batch) {
    binding.ops.resize(batch);
    binding.batch = binding.ops.data();
  }
  // Loop-invariant hoists: the TLB reference and lane flag never change mid-run, and no
  // event fires inside this loop (faults and PEBS handlers may Push events but never run
  // them), so the compiler keeps these in registers across the whole batch instead of
  // re-deriving them per op behind three call frames.
  TranslationCache& tlb = process.tlb();
  const bool lane_enabled = config_.enable_translation_cache;
  while (process.clock() < horizon) {
    if (binding.cursor == binding.count) {
      binding.count =
          binding.exhausted ? 0
          : binding.lane >= 0
              ? pipeline_->Take(static_cast<size_t>(binding.lane), &binding.batch)
              : binding.stream->FillBatch(binding.rng, binding.ops.data(), batch);
      binding.cursor = 0;
      if (binding.count < batch) {
        binding.exhausted = true;
      }
      if (binding.count == 0) {
        process.set_finished(true);
        break;
      }
    }
    const MemOp& op = binding.batch[binding.cursor++];
    SimDuration spent = op.think_time + process.access_delay();
    if (spent > 0) {
      metrics_.CountThinkTime(spent);
    }
    // Inlined AccessMemory: identical lane check and charge sequence, minus the call.
    const uint64_t vpn = op.vaddr / kBasePageSize;
    bool fast = false;
    if (lane_enabled) {
      if (PageInfo* cached = tlb.Lookup(vpn)) {
        if ((cached->flags & TranslationCache::kFastPathMask) == kPagePresent) {
          spent += FastPathAccess(process, *cached, vpn, op.is_store);
          fast = true;
        } else {
          // Stale entry (poisoned, migrating, or demand-fault pending): drop it and take
          // the slow path, which re-installs once the unit settles.
          tlb.Invalidate(vpn);
        }
      }
    }
    if (!fast) {
      spent += SlowPathAccess(process, vpn, op.is_store);
    }
    process.CountAccess();
    process.AdvanceClock(std::max<SimDuration>(spent, 1));
  }
  if (process.finished()) {
    // Idle processes still follow global time.
    process.SyncClockTo(horizon);
  }
}

SimDuration Machine::FastPathAccess(Process& process, PageInfo& unit, uint64_t vpn,
                                    bool is_store) {
  // Mirrors the tail of the slow path exactly for a present, non-PROT_NONE, non-migrating
  // unit: device charge (incl. hop penalty + link congestion), accessed/dirty maintenance,
  // store-generation bump, oracle bookkeeping, PEBS sampling, metrics. Any divergence here
  // breaks the TLB-on/off equivalence contract (tests/tlb_test.cc).
  const SimTime now = std::max(process.clock(), queue_.now());
  SimDuration latency = memory_.AccessLatency(unit.node, is_store);
  const SimDuration queued = memory_.ChargeAccessCongestion(unit.node, now);
  latency += queued;

  unit.Set(kPageAccessed);
  if (is_store) {
    unit.Set(kPageDirty);
    ++unit.write_gen;
  }
  if (config_.track_oracle) {
    ColdPage& cold = arena_.cold(unit);
    cold.last_access = now;
    ++cold.access_count;
    if (unit.node != kFastNode) {
      unit.Set(kPageOracleTouchedSlow);
    }
  }

  if (pebs_active_) {
    // PEBS observes fast-lane accesses too (the hardware samples loads/stores regardless
    // of how the software resolved the translation). OnSample handlers may split `unit`'s
    // huge group; that only invalidates cached translations, which re-install later.
    latency += pebs_.OnAccess(now, process.pid(), vpn, unit.node, is_store);
  }

  metrics_.CountAccess(is_store, unit.node == kFastNode, latency);
  if (tenant_accounting_) {
    tenants_.CountAccess(process.tenant(), latency);
  }
  EmitTrace(tracer_.get(), TraceCategory::kAccess, TraceEventType::kAccess, now,
            process.pid(), unit.vpn, unit.node, kInvalidNode, is_store ? 1 : 0,
            /*fast_lane=*/1, queued);
  return latency;
}

void Machine::InvalidateTranslationsFor(const PageInfo& unit) {
  Process* owner = ProcessByPid(unit.owner);
  if (owner == nullptr) {
    return;
  }
  // A huge head aggregates up to 512 tail vpns; over-invalidating a short or already-split
  // group is harmless (it only evicts entries that would re-install on the next touch), so
  // the flag alone decides the range and no VMA walk is needed on this path.
  const uint64_t pages = unit.huge_head() ? kBasePagesPerHugePage : 1;
  owner->tlb().InvalidateRange(unit.vpn, pages);
}

Machine::TlbCounters Machine::TlbStats() const {
  TlbCounters total;
  for (const auto& process : processes_) {
    const TranslationCache& tlb = process->tlb();
    total.hits += tlb.hits();
    total.misses += tlb.misses();
    total.invalidations += tlb.invalidations();
  }
  return total;
}

SimDuration Machine::AccessMemory(Process& process, uint64_t vaddr, bool is_store) {
  const uint64_t vpn = vaddr / kBasePageSize;

  // Fast lane: a cached translation whose unit still satisfies the fast-path flag mask
  // (present, not PROT_NONE, not migrating) skips VMA resolution and fault handling
  // entirely. PEBS sampling charges inside the lane (FastPathAccess), so PEBS policies
  // like Memtis keep the fast lane instead of forcing every access down the slow path.
  // The batched replay loop in RunProcessUntil inlines this same check.
  if (config_.enable_translation_cache) {
    TranslationCache& tlb = process.tlb();
    if (PageInfo* cached = tlb.Lookup(vpn)) {
      if ((cached->flags & TranslationCache::kFastPathMask) == kPagePresent) {
        return FastPathAccess(process, *cached, vpn, is_store);
      }
      // Stale entry (poisoned, migrating, or demand-fault pending): drop it and take the
      // slow path, which re-installs once the unit settles.
      tlb.Invalidate(vpn);
    }
  }
  return SlowPathAccess(process, vpn, is_store);
}

SimDuration Machine::SlowPathAccess(Process& process, uint64_t vpn, bool is_store) {
  TranslationCache& tlb = process.tlb();
  // The last-hit VMA short-circuits FindVma for the common same-region miss.
  Vma* vma = tlb.last_vma();
  if (vma == nullptr || !vma->Contains(vpn)) {
    vma = process.aspace().FindVma(vpn);
    CHECK(vma != nullptr) << SimError("access to unmapped virtual page", queue_.now())
                                 .Add("vpn", vpn)
                                 .Add("pid", process.pid())
                                 .Add("process", process.name())
                                 .Format()
                          << "\n" << FatalDump();
    tlb.set_last_vma(vma);
  }
  PageInfo& unit = vma->HotnessUnit(vpn);
  const SimTime now = std::max(process.clock(), queue_.now());
  SimDuration latency = 0;

  if (!unit.present()) {
    latency += HandleDemandFault(process, *vma, unit);
    if (!unit.present()) {
      // Graceful allocation refusal (injected allocation-failure window): the page stays
      // absent, the access is charged the fault + retry stall, and a later touch retries.
      return latency;
    }
  }

  if (unit.prot_none()) {
    unit.ClearFlag(kPageProtNone);
    latency += config_.hint_fault_cost;
    metrics_.ChargeKernel(KernelWork::kFaultHandling, config_.hint_fault_cost);
    metrics_.CountHintFault();
    metrics_.CountContextSwitch();
    EmitTrace(tracer_.get(), TraceCategory::kFault, TraceEventType::kHintFault, now,
              process.pid(), unit.vpn, unit.node, kInvalidNode, is_store ? 1 : 0);
    latency += policy_->OnHintFault(process, *vma, unit, is_store, now);
  }

  // Device access: tier latency plus the topology hop penalty and any (capped) queueing
  // delay on a saturated endpoint link. Charged with the same (node, now) arguments as the
  // fast lane so the congestion cursor advances identically on either path.
  latency += memory_.AccessLatency(unit.node, is_store);
  const SimDuration queued = memory_.ChargeAccessCongestion(unit.node, now);
  latency += queued;

  unit.Set(kPageAccessed);
  if (is_store) {
    unit.Set(kPageDirty);
    // Advance the store generation: an in-flight migration copy of this unit is now stale
    // and will abort at its commit check.
    ++unit.write_gen;
  }
  if (config_.track_oracle) {
    ColdPage& cold = arena_.cold(unit);
    cold.last_access = now;
    ++cold.access_count;
    if (unit.node != kFastNode) {
      unit.Set(kPageOracleTouchedSlow);
    }
  }

  if (pebs_active_) {
    latency += pebs_.OnAccess(now, process.pid(), vpn, unit.node, is_store);
  }

  metrics_.CountAccess(is_store, unit.node == kFastNode, latency);
  if (tenant_accounting_) {
    tenants_.CountAccess(process.tenant(), latency);
  }
  EmitTrace(tracer_.get(), TraceCategory::kAccess, TraceEventType::kAccess, now,
            process.pid(), unit.vpn, unit.node, kInvalidNode, is_store ? 1 : 0,
            /*fast_lane=*/0, queued);

  // Install the translation for the next touch. Only fully fast-lane-eligible units are
  // cached; everything else (just-poisoned, migrating, refused allocation) re-resolves.
  // A PEBS OnSample handler may have split `unit`'s huge group above, remapping this vpn
  // to a different (base) unit — re-check before caching a stale head pointer.
  if (config_.enable_translation_cache &&
      (unit.flags & TranslationCache::kFastPathMask) == kPagePresent &&
      (!pebs_active_ || &vma->HotnessUnit(vpn) == &unit)) {
    tlb.Insert(vpn, &unit);
  }
  return latency;
}

SimDuration Machine::HandleDemandFault(Process& process, Vma& vma, PageInfo& unit) {
  const uint64_t pages = vma.UnitPages(unit.vpn);
  NodeId node = memory_.AllocatePages(kFastNode, pages);
  if (node == kInvalidNode) {
    // Direct reclaim: push cold fast-tier pages down and retry once.
    ReclaimFastTier(memory_.node(kFastNode).watermarks().high);
    node = memory_.AllocatePages(kFastNode, pages);
    if (node == kInvalidNode) {
      if (injector_ != nullptr) {
        // Under fault injection an exhausted allocation degrades gracefully: refuse the
        // fault, charge the wasted fault entry plus a retry stall, and leave the page
        // absent so a later access retries (the strict-min window will have passed).
        FaultStats* fault_stats = metrics_.mutable_fault();
        ++fault_stats->alloc_refusals;
        ++fault_stats->emergency_reclaims;
        const SimDuration stall = config_.demand_fault_cost + config_.alloc_retry_stall;
        fault_stats->alloc_stall_time += stall;
        metrics_.ChargeKernel(KernelWork::kFaultHandling, config_.demand_fault_cost);
        metrics_.CountContextSwitch();
        EmitTrace(tracer_.get(), TraceCategory::kFault, TraceEventType::kAllocRefused,
                  queue_.now(), process.pid(), unit.vpn, kInvalidNode, kFastNode, pages);
        return stall;
      }
      CHECK(false) << SimError("out of physical memory", queue_.now())
                          .Add("pages_requested", pages)
                          .Add("pid", process.pid())
                          .Add("vpn", unit.vpn)
                          .Format()
                   << "\n" << FatalDump();
    }
  }
  unit.Set(kPagePresent);
  unit.node = node;
  lrus_[static_cast<size_t>(node)].Insert(&unit, /*active=*/true);
  process.AddResident(node, static_cast<int64_t>(pages));
  tenants_.AddResident(process.tenant(), node, static_cast<int64_t>(pages));

  metrics_.CountDemandFault();
  metrics_.CountContextSwitch();
  metrics_.ChargeKernel(KernelWork::kFaultHandling, config_.demand_fault_cost);
  EmitTrace(tracer_.get(), TraceCategory::kFault, TraceEventType::kDemandFault, queue_.now(),
            process.pid(), unit.vpn, kInvalidNode, node, pages);
  policy_->OnDemandAllocation(process, vma, unit, queue_.now());
  return config_.demand_fault_cost;
}

void Machine::ReclaimForPromotion(uint64_t pages) {
  // Promotion pressure: wake direct reclaim to demote cold pages so the engine's retry can
  // reserve frames. This mirrors the kernel's allocate-for-migration slow path and is what
  // keeps huge-page promotions (512-page units) from deadlocking against the min watermark.
  if (reclaim_in_progress_) {
    return;
  }
  const MemoryTier& fast = memory_.node(kFastNode);
  ReclaimFastTier(std::max(fast.watermarks().high, pages + fast.watermarks().min + pages));
}

void Machine::ApplyMigration(Vma& vma, PageInfo& unit, NodeId from, NodeId to) {
  const uint64_t pages = vma.UnitPages(unit.vpn);
  const bool is_promotion = to == kFastNode;
  // The unit's backing node changes under the commit's unmap-remap window: any cached
  // translation must be re-resolved (the engine clears kPageMigrating only after this).
  InvalidateTranslationsFor(unit);

  lrus_[static_cast<size_t>(from)].Erase(&unit);
  unit.node = to;
  // Promoted pages are hot: front of active. Demoted pages are cold: inactive.
  lrus_[static_cast<size_t>(to)].Insert(&unit, /*active=*/is_promotion);

  if (Process* owner = ProcessByPid(unit.owner)) {
    owner->AddResident(from, -static_cast<int64_t>(pages));
    owner->AddResident(to, static_cast<int64_t>(pages));
    // The tenant residency mirror moves with the per-process counters, so promote,
    // demote, reclaim, and evacuation commits all land in one place.
    tenants_.AddResident(owner->tenant(), from, -static_cast<int64_t>(pages));
    tenants_.AddResident(owner->tenant(), to, static_cast<int64_t>(pages));
  }
  if (is_promotion) {
    metrics_.CountPromotion(pages);
  } else {
    metrics_.CountDemotion(pages);
  }
  // Concurrent touches during the commit's unmap-remap window take a migration-entry fault.
  metrics_.CountContextSwitch();
}

bool Machine::DemoteUnit(Vma& vma, PageInfo& unit) {
  // The policy picks where reclaim pushes the unit (next slower node by default;
  // topology-aware policies weigh endpoint distance and live link congestion).
  const NodeId target = policy_->DemotionTarget(memory_, unit, queue_.now());
  if (target == unit.node) {
    return false;
  }
  CHECK(target >= 0 && target < memory_.num_nodes())
      << "policy returned invalid demotion target " << target;
  const MigrationTicket ticket = engine_->Submit(vma, unit, target, MigrationClass::kReclaim,
                                                 MigrationSource::kReclaimDaemon);
  if (!ticket.admitted) {
    return false;
  }
  policy_->OnDemotion(vma, unit, queue_.now());
  return true;
}

bool Machine::SplitHugeUnit(Vma& vma, PageInfo& head) {
  if (vma.page_kind() != PageSizeKind::kHuge || !head.huge_head() || !head.present()) {
    return false;
  }
  if (head.Has(kPageMigrating)) {
    // A 512-page copy of this unit is in flight; splitting now would orphan the reserved
    // target frames. The policy can retry after the transaction retires.
    return false;
  }
  const uint64_t group = vma.GroupIndex(head.vpn);
  if (vma.IsGroupSplit(group)) {
    return false;
  }
  const NodeId node = head.node;
  // Splitting remaps every tail vpn from the group head to its own base page: cached
  // head-translations for those vpns are the one genuinely stale-pointer hazard the
  // fast lane has, so this invalidation is load-bearing (tests/tlb_test.cc covers it).
  InvalidateTranslationsFor(head);
  vma.SplitGroup(group);
  // The head stays on its LRU list; split-out base pages join the same node's inactive list
  // (they have no individual access history yet).
  const uint64_t first = group * kBasePagesPerHugePage;
  const uint64_t last = std::min(first + kBasePagesPerHugePage, vma.num_pages());
  for (uint64_t i = first; i < last; ++i) {
    PageInfo& page = vma.pages()[i];
    if (&page == &head || !page.present()) {
      continue;
    }
    lrus_[static_cast<size_t>(node)].Insert(&page, /*active=*/false);
  }
  // Splitting walks 512 PTEs; charge it like a scan chunk.
  ChargeScanCost(kBasePagesPerHugePage);
  EmitTrace(tracer_.get(), TraceCategory::kFault, TraceEventType::kHugeSplit, queue_.now(),
            head.owner, head.vpn, node, kInvalidNode, last - first);
  return true;
}

uint64_t Machine::ReclaimFastTier(uint64_t refill_target) {
  if (reclaim_in_progress_) {
    return 0;
  }
  reclaim_in_progress_ = true;
  MemoryTier& fast = memory_.node(kFastNode);
  NodeLru& fast_lru = lrus_[static_cast<size_t>(kFastNode)];
  EmitTrace(tracer_.get(), TraceCategory::kReclaim, TraceEventType::kReclaimWake,
            queue_.now(), kTraceNoPid, kTraceNoVpn, kFastNode, kInvalidNode,
            fast.free_pages(), refill_target);
  uint64_t demoted = 0;
  uint64_t examined = 0;
  const uint64_t batch_limit = config_.reclaim_batch_limit;

  // Only pages that were already on the inactive list when this pass started are demotion
  // candidates: a page deactivated within this pass has had zero simulated time to prove it
  // is still referenced, so demoting it immediately would make eviction effectively random
  // and thrash hot pages. Aging across reclaim wakeups gives hot pages a real second chance.
  size_t eligible = fast_lru.inactive().size();

  // Targeted reclaim (memory.high semantics): a per-pass ledger of each tenant's excess
  // over its declared fast-tier budget. While a tenant has excess, the pass keeps going
  // even past the free-page target, its pages lose their second chance, and each demotion
  // pays the excess down — over-budget squatters drain even if they keep touching their
  // pages, and the admission-side budget then refuses their way back in. Empty (and
  // `draining` false) unless the config declares tenants with budget-reading programs,
  // keeping the legacy reclaim path bit-identical.
  std::vector<int64_t> budget_excess;
  int64_t draining = 0;
  if (tenant_accounting_) {
    budget_excess.assign(static_cast<size_t>(tenants_.num_tenants()), 0);
    for (int t = 0; t < tenants_.num_tenants(); ++t) {
      if (tenants_.OverBudget(t, kFastNode)) {
        const TenantAccount& acct = tenants_.account(t);
        budget_excess[static_cast<size_t>(t)] = static_cast<int64_t>(
            acct.ResidentOn(kFastNode) - acct.BudgetFor(kFastNode));
        draining += budget_excess[static_cast<size_t>(t)];
      }
    }
  }

  while ((fast.free_pages() < refill_target || draining > 0) && demoted < batch_limit &&
         eligible > 0) {
    PageInfo* page = fast_lru.inactive().Tail();
    --eligible;
    ++examined;
    int targeted = -1;  // Tenant whose budget excess this page would pay down, if any.
    if (!budget_excess.empty()) {
      if (const Process* owner = ProcessByPid(page->owner)) {
        const int tenant = owner->tenant();
        if (budget_excess[static_cast<size_t>(tenant)] > 0) {
          targeted = tenant;
        }
      }
    }
    if (page->accessed() && targeted < 0) {
      // Second chance: referenced since deactivation, back to active.
      page->ClearFlag(kPageAccessed);
      fast_lru.Activate(page);
      continue;
    }
    if (targeted < 0 && fast.free_pages() >= refill_target) {
      // In the pass only to drain over-budget tenants: within-budget pages keep their
      // spot (rotated, not demoted).
      fast_lru.inactive().Rotate(page);
      continue;
    }
    if (page->Has(kPageUnevictable) || page->Has(kPageMigrating)) {
      // Unevictable, or owned by an in-flight migration transaction (its source frames
      // must stay resident until the transaction commits or aborts).
      fast_lru.inactive().Rotate(page);
      continue;
    }
    Vma* vma = ResolveVma(*page);
    if (vma == nullptr || !DemoteUnit(*vma, *page)) {
      // Cannot demote (slow tier full); stop trying.
      break;
    }
    const uint64_t unit_pages = vma->UnitPages(page->vpn);
    demoted += unit_pages;
    if (targeted >= 0) {
      // Pay the excess down at submit time (the residency mirror moves at commit): one
      // pass never over-drains a tenant below its budget.
      budget_excess[static_cast<size_t>(targeted)] -= static_cast<int64_t>(unit_pages);
      draining -= static_cast<int64_t>(unit_pages);
    }
  }

  // An over-budget tenant's pages are, by definition, the ones it keeps touching — they
  // sit on the active list and never age to the inactive tail, so excess that survived
  // the inactive pass is drained from the active list directly (the analogue of cgroup
  // targeted reclaim walking the offending cgroup's own LRU). Within-budget tenants'
  // pages are rotated, not demoted. Skipped entirely in legacy mode (draining == 0).
  size_t active_eligible = draining > 0 ? fast_lru.active().size() : 0;
  while (draining > 0 && demoted < batch_limit && active_eligible > 0) {
    PageInfo* page = fast_lru.active().Tail();
    --active_eligible;
    ++examined;
    int targeted = -1;
    if (const Process* owner = ProcessByPid(page->owner)) {
      const int tenant = owner->tenant();
      if (budget_excess[static_cast<size_t>(tenant)] > 0) {
        targeted = tenant;
      }
    }
    if (targeted < 0 || page->Has(kPageUnevictable) || page->Has(kPageMigrating)) {
      fast_lru.active().Rotate(page);
      continue;
    }
    Vma* vma = ResolveVma(*page);
    if (vma == nullptr) {
      fast_lru.active().Rotate(page);
      continue;
    }
    if (!DemoteUnit(*vma, *page)) {
      break;  // Admission refused the drain (backlog/bandwidth): retry next wakeup.
    }
    const uint64_t unit_pages = vma->UnitPages(page->vpn);
    demoted += unit_pages;
    budget_excess[static_cast<size_t>(targeted)] -= static_cast<int64_t>(unit_pages);
    draining -= static_cast<int64_t>(unit_pages);
  }

  // Refill the inactive list so the next wakeup has aged candidates.
  examined += fast_lru.BalanceInactive(0.35, 4096);
  metrics_.ChargeKernel(KernelWork::kReclaim,
                        static_cast<SimDuration>(examined) * config_.lru_visit_cost);
  EmitTrace(tracer_.get(), TraceCategory::kReclaim, TraceEventType::kReclaimDone,
            queue_.now(), kTraceNoPid, kTraceNoVpn, kFastNode, kInvalidNode, demoted,
            examined);
  reclaim_in_progress_ = false;
  return demoted;
}

uint64_t Machine::EvacuateEndpoint(NodeId source) {
  CHECK(source > kFastNode && source < memory_.num_nodes())
      << "evacuation source must be a non-root endpoint, got " << source;
  if (reclaim_in_progress_) {
    return 0;
  }
  reclaim_in_progress_ = true;
  NodeLru& lru = lrus_[static_cast<size_t>(source)];
  const SimTime now = queue_.now();
  const uint64_t batch_limit = config_.reclaim_batch_limit;
  uint64_t moved = 0;
  uint64_t examined = 0;
  bool stop = false;

  // Best surviving endpoint for one unit: device latency plus (capped) live route backlog,
  // skipping unavailable/degraded endpoints and any without low-watermark headroom for the
  // unit. Ties break toward the lower node id; the AdmissionController still has the final
  // say at Submit. Returning kInvalidNode is the OOM-safe refusal: no survivor can absorb
  // the unit, so it stays resident rather than forcing a floor violation.
  const auto pick_target = [this, source, now](uint64_t pages) {
    constexpr SimDuration kBacklogCap = 10 * kMillisecond;
    NodeId best = kInvalidNode;
    SimDuration best_score = 0;
    for (NodeId id = 0; id < memory_.num_nodes(); ++id) {
      if (id == source || !memory_.health().endpoint_available(id)) {
        continue;
      }
      const MemoryTier& tier = memory_.node(id);
      if (tier.degraded() || tier.free_pages() < tier.watermarks().low + pages) {
        continue;
      }
      const SimDuration backlog =
          std::min(engine_->RouteBacklog(source, id, now), kBacklogCap);
      const SimDuration score = memory_.AccessLatency(id, /*is_store=*/false) + backlog;
      if (best == kInvalidNode || score < best_score) {
        best = id;
        best_score = score;
      }
    }
    return best;
  };

  // Coldest first (inactive, then active). Each list is walked at most its starting length:
  // committed units leave the list via ApplyMigration, skipped ones rotate to the head.
  for (PageList* list : {&lru.inactive(), &lru.active()}) {
    size_t remaining = list->size();
    while (!stop && remaining > 0 && moved < batch_limit) {
      PageInfo* page = list->Tail();
      --remaining;
      ++examined;
      if (page->Has(kPageUnevictable) || page->Has(kPageMigrating)) {
        list->Rotate(page);
        continue;
      }
      Vma* vma = ResolveVma(*page);
      if (vma == nullptr) {
        list->Rotate(page);
        continue;
      }
      const uint64_t pages = vma->UnitPages(page->vpn);
      const NodeId target = pick_target(pages);
      if (target == kInvalidNode) {
        stop = true;  // Survivors lack capacity; the drain pump retries next tick.
        break;
      }
      const MigrationTicket ticket = engine_->Submit(
          *vma, *page, target, MigrationClass::kReclaim, MigrationSource::kEvacuation);
      if (!ticket.admitted) {
        // Backlog/throttle pacing (or a capacity race): resume at the next drain tick
        // rather than hammering admission.
        stop = true;
        break;
      }
      if (ticket.outcome == MigrationOutcome::kCommitted) {
        moved += pages;
      } else {
        list->Rotate(page);  // Parked (injected copy fault): stays resident at the source.
      }
    }
  }

  metrics_.ChargeKernel(KernelWork::kReclaim,
                        static_cast<SimDuration>(examined) * config_.lru_visit_cost);
  reclaim_in_progress_ = false;
  return moved;
}

void Machine::ReclaimTick(SimTime now) {
  if (tracer_ != nullptr) {
    tracer_->Poll(now);
  }
  // Demotion triggers when free memory drops below the high watermark (Section 3.3.1) and
  // refills to the policy's target (`high` for the baselines, `pro` for Chrono). Like
  // memory.high reclaim, a tenant sitting over its fast-tier budget is pressure in its own
  // right: the targeted pass must run even when the machine as a whole has free headroom,
  // or a squatter on an otherwise idle machine would never drain.
  MemoryTier& fast = memory_.node(kFastNode);
  bool budget_pressure = false;
  if (tenant_accounting_) {
    for (int t = 0; t < tenants_.num_tenants() && !budget_pressure; ++t) {
      budget_pressure = tenants_.OverBudget(t, kFastNode);
    }
  }
  if (!fast.BelowHighWatermark() && !budget_pressure) {
    return;
  }
  const uint64_t target =
      std::max(policy_->DemotionRefillTarget(fast), fast.watermarks().high);
  ReclaimFastTier(target);
}

void Machine::FillTelemetrySample(SimTime now, TelemetrySample* sample) const {
  const int num_nodes = memory_.num_nodes();
  sample->tiers.reserve(static_cast<size_t>(num_nodes));
  for (NodeId node = 0; node < num_nodes; ++node) {
    const MemoryTier& tier = memory_.node(node);
    const Watermarks& wm = tier.watermarks();
    const NodeLru& lru = lrus_[static_cast<size_t>(node)];
    TelemetrySample::Tier t;
    t.free = tier.free_pages();
    t.allocated = tier.allocated_pages();
    t.quarantined = tier.quarantined_pages();
    t.stolen = tier.pressure_stolen_pages();
    t.wm_min = wm.min;
    t.wm_low = wm.low;
    t.wm_high = wm.high;
    t.wm_pro = wm.pro;
    t.lru_active = lru.active().size();
    t.lru_inactive = lru.inactive().size();
    t.inflight_reserved = engine_->inflight_reserved_pages_on(node);
    if (memory_.congestion_enabled()) {
      const EndpointCongestion& link = memory_.congestion(node);
      t.link_backlog_ns = static_cast<int64_t>(link.Backlog(now));
      t.congestion_queued_ns = static_cast<uint64_t>(link.access_queued_time());
      t.congested_accesses = link.congested_accesses();
      t.migration_link_bytes = link.migration_bytes();
    }
    sample->tiers.push_back(t);
  }

  const MigrationStats& migration = metrics_.migration();
  sample->inflight_transactions = engine_->inflight_transactions();
  const auto backlog = [&migration](MigrationClass klass) {
    const auto i = static_cast<size_t>(klass);
    return static_cast<int64_t>(migration.submitted[i]) -
           static_cast<int64_t>(migration.committed[i]) -
           static_cast<int64_t>(migration.aborted[i]) -
           static_cast<int64_t>(migration.parked[i]);
  };
  sample->backlog_sync = backlog(MigrationClass::kSync);
  sample->backlog_async = backlog(MigrationClass::kAsync);
  sample->backlog_reclaim = backlog(MigrationClass::kReclaim);

  sample->accesses = metrics_.total_ops();
  sample->fmar = metrics_.Fmar();
  const TlbCounters tlb = TlbStats();
  const uint64_t lookups = tlb.hits + tlb.misses;
  sample->tlb_hit_rate =
      lookups == 0 ? 0.0 : static_cast<double>(tlb.hits) / static_cast<double>(lookups);

  // Per-tenant rows (only on machines that declared tenants, so legacy telemetry schemas
  // are unchanged): occupancy, verdict counters, and p50/p99 access latency.
  if (tenants_.active()) {
    const std::vector<TenantStats>& tenant_stats = metrics_.tenant_stats();
    sample->tenants.reserve(static_cast<size_t>(tenants_.num_tenants()));
    for (int t = 0; t < tenants_.num_tenants(); ++t) {
      const TenantAccount& acct = tenants_.account(t);
      const TenantStats& stats = tenant_stats[static_cast<size_t>(t)];
      TelemetrySample::Tenant row;
      row.resident_fast = acct.ResidentOn(kFastNode);
      row.resident_total = 0;
      for (uint64_t pages : acct.resident_pages) {
        row.resident_total += pages;
      }
      row.accesses = stats.accesses;
      row.qos_checks = stats.qos_checks;
      row.qos_refusals = stats.qos_refusals;
      row.borrows = stats.borrows;
      row.p50_latency_ns = stats.access_latency.Quantile(0.50);
      row.p99_latency_ns = stats.access_latency.Quantile(0.99);
      sample->tenants.push_back(row);
    }
  }
}

SimDuration Machine::ChargeScanCost(uint64_t units_visited) {
  const SimDuration cost = static_cast<SimDuration>(units_visited) * config_.pte_visit_cost;
  metrics_.ChargeKernel(KernelWork::kScan, cost);
  return cost;
}

}  // namespace chronotier
