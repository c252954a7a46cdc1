// perfbench: the repository benchmark program (run it through perfbench/run.py).
//
// Runs one named workload -- the seven TopologyPolicySet policies as cells on the bench
// machine -- and writes the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1) to a JSON results file, printing them with their units as it goes.
//
// Every layer is measured from outside, through public entry points only:
//   - Experiment::Run's `inspect` and `finish` callbacks, plus two marker events put on
//     the machine's event queue at the warmup boundary and at the end of the measured
//     window, so the host clock is read around exactly the simulated window;
//   - TimedStream, a forwarding AccessStream decorator (workload generation);
//   - TimedPolicy, a forwarding TieringPolicy decorator (policy hooks);
//   - Machine::AuditNow, Machine::TlbStats and the ExperimentResult counters.
//
// A plain pass (no decorators) gives the end-to-end numbers. A traced run adds a
// decorated pass and a pass with the simulator's own tracer on; every simulated result
// field of every cell must be bit-identical across the passes, or the cell fails.
// Repeated plain passes must also repeat bit for bit. Simulated windows are fixed, so the
// chrono_* model metrics depend only on the seed; host speed decides only how many
// repetitions fit in --seconds, and timings are reported as medians over them.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/common/json.h"
#include "src/harness/machine.h"
#include "src/tenant/tenant.h"
#include "src/workloads/patterns.h"
#include "src/workloads/tenant_kv.h"

namespace ct = chronotier;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch).count();
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------------------
// Spans and per-cell probes.

// One recorded interval, exported as a Chrome-trace "X" event (ui.perfetto.dev).
struct Span {
  const char* name = "";
  const char* cat = "";
  int64_t start_ns = 0;  // Since g_epoch.
  int64_t dur_ns = 0;
  int tid = 0;           // One track per cell.
};

// Layer calls are far too many to keep as spans: every kSpanSampleEvery-th call of a
// layer becomes one, up to kMaxSampledSpans per layer per cell.
constexpr uint64_t kSpanSampleEvery = 256;
constexpr size_t kMaxSampledSpans = 2048;

struct LayerTally {
  uint64_t calls = 0;
  uint64_t ns = 0;
  uint64_t ops = 0;  // Generator only: ops produced.
  size_t spans = 0;
};

// What one cell's callbacks and decorators record. Owned by its pass; a cell touches only
// its own probe, so cells of a parallel sweep share nothing.
struct CellProbe {
  bool decorated = false;
  bool plant_mismatch = false;
  bool keep_spans = false;
  int tid = 0;
  ct::SimDuration warmup = 0;
  ct::SimDuration measure = 0;

  Clock::time_point start, inspect, window_start, window_end;
  bool window_closed = false;
  uint64_t inflight_at_end = 0;  // Migration transactions still in flight at `finish`.
  uint64_t warmup_ops = 0;  // Accesses replayed before the warmup reset.
  uint64_t window_ops = 0;  // Accesses replayed in the measured window.
  ct::Machine::TlbCounters tlb_start, tlb_end;

  LayerTally gen, hooks;
  LayerTally gen_start, hooks_start, gen_end, hooks_end;  // Snapshots at the markers.
  double audit_ms = 0;  // One AuditNow pass on the end state (decorated passes only).
  std::vector<Span> spans;

  void AddSpan(const char* name, const char* cat, Clock::time_point from,
               Clock::time_point to) {
    if (keep_spans) {
      spans.push_back(Span{name, cat, SinceEpochNs(from), SinceEpochNs(to) - SinceEpochNs(from),
                           tid});
    }
  }

  void Charge(LayerTally& tally, const char* name, const char* cat, Clock::time_point from,
              Clock::time_point to) {
    ++tally.calls;
    tally.ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
    if (keep_spans && tally.calls % kSpanSampleEvery == 0 && tally.spans < kMaxSampledSpans) {
      ++tally.spans;
      AddSpan(name, cat, from, to);
    }
  }
};

// The probe of the cell running on this thread. Experiment::Run calls the policy factory
// first, then the stream factories, `inspect` and `finish`, all on the cell's thread; the
// policy factory sets this pointer (RunPass).
thread_local CellProbe* t_probe = nullptr;

// ---------------------------------------------------------------------------------------
// Forwarding decorators.

class TimedStream : public ct::AccessStream {
 public:
  TimedStream(std::unique_ptr<ct::AccessStream> inner, CellProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void Init(ct::Process& process, ct::Rng& rng) override { inner_->Init(process, rng); }

  bool Next(ct::Rng& rng, ct::MemOp* op) override {
    const Clock::time_point t0 = Clock::now();
    const bool more = inner_->Next(rng, op);
    probe_->gen.ops += more ? 1 : 0;
    probe_->Charge(probe_->gen, "Next", "workloads", t0, Clock::now());
    return more;
  }

  size_t FillBatch(ct::Rng& rng, ct::MemOp* ops, size_t max) override {
    const Clock::time_point t0 = Clock::now();
    const size_t produced = inner_->FillBatch(rng, ops, max);
    probe_->gen.ops += produced;
    probe_->Charge(probe_->gen, "FillBatch", "workloads", t0, Clock::now());
    return produced;
  }

 private:
  std::unique_ptr<ct::AccessStream> inner_;
  CellProbe* probe_;
};

// Times every TieringPolicy hook. With `plant_mismatch` it deliberately stops forwarding
// PreferredPageSize -- the bug the output check exists to catch (Memtis loses its huge
// pages, so its cell diverges from the plain run).
class TimedPolicy : public ct::TieringPolicy {
 public:
  TimedPolicy(std::unique_ptr<ct::TieringPolicy> inner, CellProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string_view name() const override { return inner_->name(); }

  void Attach(ct::Machine& machine) override {
    HookTimer timer(probe_, "Attach");
    inner_->Attach(machine);
  }
  void OnProcessCreated(ct::Process& process) override {
    HookTimer timer(probe_, "OnProcessCreated");
    inner_->OnProcessCreated(process);
  }
  ct::SimDuration OnHintFault(ct::Process& process, ct::Vma& vma, ct::PageInfo& unit,
                              bool is_store, ct::SimTime now) override {
    HookTimer timer(probe_, "OnHintFault");
    return inner_->OnHintFault(process, vma, unit, is_store, now);
  }
  void OnDemandAllocation(ct::Process& process, ct::Vma& vma, ct::PageInfo& unit,
                          ct::SimTime now) override {
    HookTimer timer(probe_, "OnDemandAllocation");
    inner_->OnDemandAllocation(process, vma, unit, now);
  }
  void OnDemotion(ct::Vma& vma, ct::PageInfo& unit, ct::SimTime now) override {
    HookTimer timer(probe_, "OnDemotion");
    inner_->OnDemotion(vma, unit, now);
  }
  ct::NodeId DemotionTarget(const ct::TieredMemory& memory, const ct::PageInfo& unit,
                            ct::SimTime now) const override {
    HookTimer timer(probe_, "DemotionTarget");
    return inner_->DemotionTarget(memory, unit, now);
  }
  uint64_t DemotionRefillTarget(const ct::MemoryTier& fast_tier) const override {
    HookTimer timer(probe_, "DemotionRefillTarget");
    return inner_->DemotionRefillTarget(fast_tier);
  }
  bool WantsSharedReclaim() const override {
    HookTimer timer(probe_, "WantsSharedReclaim");
    return inner_->WantsSharedReclaim();
  }
  ct::PageSizeKind PreferredPageSize() const override {
    if (probe_->plant_mismatch) {
      return ct::PageSizeKind::kBase;
    }
    HookTimer timer(probe_, "PreferredPageSize");
    return inner_->PreferredPageSize();
  }

 private:
  // Charges the host time of the enclosing hook call to the policies layer.
  class HookTimer {
   public:
    HookTimer(CellProbe* probe, const char* hook)
        : probe_(probe), hook_(hook), start_(Clock::now()) {}
    ~HookTimer() { probe_->Charge(probe_->hooks, hook_, "policies", start_, Clock::now()); }
    HookTimer(const HookTimer&) = delete;
    HookTimer& operator=(const HookTimer&) = delete;

   private:
    CellProbe* probe_;
    const char* hook_;
    Clock::time_point start_;
  };

  std::unique_ptr<ct::TieringPolicy> inner_;
  CellProbe* probe_;
};

// ---------------------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  ct::MatrixRow row;
  int jobs = 1;
  bool serial_reference = false;  // Traced runs also time a --jobs 1 sweep.
};

ct::ProcessSpec SegmentedRwProc() {
  ct::SegmentedConfig w;
  w.working_set_bytes = 96ull << 20;
  w.segments = 32;
  w.read_ratio = 0.30;
  w.per_op_delay = 2 * ct::kMicrosecond;
  w.sequential_init = true;
  return ct::ProcessSpec{"segmented", [w] { return std::make_unique<ct::SegmentedStream>(w); }};
}

// One declared tenant's open-loop KV server (fig15_tenants' qos row shape).
ct::ProcessSpec TenantKvProc(int tenant) {
  ct::TenantKvConfig w;
  w.virtual_tenants = 16;
  w.items_per_tenant = 192;
  w.value_bytes = ct::kBasePageSize;  // One value page per item.
  w.churn_period_ops = 10000;
  w.churn_stride = 5;
  w.mean_interarrival = 16 * ct::kMicrosecond;
  ct::ProcessSpec spec{"kv-" + std::to_string(tenant),
                       [w] { return std::make_unique<ct::TenantKvStream>(w); }};
  spec.tenant = tenant;
  return spec;
}

// Returns a workload with an empty name when `name` is unknown.
Workload MakeWorkload(const std::string& name, uint64_t seed, ct::SimDuration warmup,
                      ct::SimDuration measure) {
  Workload workload;
  workload.name = name;
  ct::MatrixRow& row = workload.row;
  row.label = name;
  row.config = ct::BenchMachine();
  row.config.seed = seed;
  row.config.warmup = warmup;
  row.config.measure = measure;
  if (name == "pmbench" || name == "sweep_parallel") {
    row.processes = {ct::BenchPmbenchProc(96, 0.70), ct::BenchPmbenchProc(96, 0.70)};
    if (name == "sweep_parallel") {
      workload.jobs = std::min(ct::DefaultJobs(), 4);
      workload.serial_reference = true;
    }
  } else if (name == "segmented_rw") {
    row.processes = {SegmentedRwProc(), SegmentedRwProc()};
  } else if (name == "tenant_cxl") {
    row.config.topology =
        ct::BenchChainTopology(4, row.config.total_pages, row.config.fast_fraction);
    for (int i = 0; i < 8; ++i) {
      ct::TenantSpec tenant;
      tenant.name = "t" + std::to_string(i);
      tenant.weight = static_cast<double>(1 + i % 4);
      tenant.residency_budget_pages = {1024};  // Fast node capped; endpoints unlimited.
      tenant.qos_program = "fair-share";
      row.config.tenants.push_back(tenant);
      row.processes.push_back(TenantKvProc(i));
    }
  } else {
    workload.name.clear();
  }
  return workload;
}

// FNV-1a over a canonical description of what shapes the workload's results.
uint64_t ConfigHash(const Workload& workload, const std::vector<ct::NamedPolicyFactory>& set) {
  const ct::ExperimentConfig& c = workload.row.config;
  std::string text = workload.name + "|pages=" + std::to_string(c.total_pages) +
                     "|fast=" + std::to_string(c.fast_fraction) +
                     "|bw=" + std::to_string(c.bandwidth_scale) +
                     "|warmup=" + std::to_string(c.warmup) +
                     "|measure=" + std::to_string(c.measure) +
                     "|audit=" + std::to_string(c.audit_period) + "|topology=" + c.topology.tree +
                     "|jobs=" + std::to_string(workload.jobs);
  for (const ct::TenantSpec& tenant : c.tenants) {
    text += "|" + tenant.name + ":" + tenant.qos_program + ":" + std::to_string(tenant.weight);
  }
  for (const ct::ProcessSpec& process : workload.row.processes) {
    text += "|" + process.name + ":" + std::to_string(process.tenant);
  }
  for (const ct::NamedPolicyFactory& policy : set) {
    text += "|" + policy.name;
  }
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char ch : text) {
    hash = (hash ^ ch) * 1099511628211ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------------------
// Passes: the workload's cells, each run once, in one of five modes.

enum class PassKind { kPlain, kDecorated, kTracer, kSerial, kBare };

const char* PassName(PassKind kind) {
  switch (kind) {
    case PassKind::kPlain:
      return "plain";
    case PassKind::kDecorated:
      return "decorated";
    case PassKind::kTracer:
      return "tracer";
    case PassKind::kSerial:
      return "serial";
    case PassKind::kBare:
      return "bare";
  }
  return "?";
}

struct Pass {
  PassKind kind = PassKind::kPlain;
  double wall_s = 0;
  std::vector<std::unique_ptr<CellProbe>> probes;  // One per cell, in lineup order.
  std::vector<ct::ExperimentResult> results;
};

struct RunOptions {
  bool plant_mismatch = false;
  bool keep_spans = false;
};

void Inspect(ct::Machine& machine, ct::TieringPolicy&) {
  CellProbe* probe = t_probe;
  probe->inspect = Clock::now();
  probe->AddSpan("setup", "harness", probe->start, probe->inspect);
  // Marker events bracketing the measured window. They touch no simulated state, and
  // they fall on instants where Machine::Run already stops (the end of the warmup run and
  // of the measured run), so they move no replay horizon.
  const ct::SimTime window_start = machine.now() + probe->warmup;
  machine.queue().ScheduleAt(window_start, [probe, &machine](ct::SimTime) {
    probe->window_start = Clock::now();
    probe->warmup_ops = machine.metrics().total_ops();
    probe->tlb_start = machine.TlbStats();
    probe->gen_start = probe->gen;
    probe->hooks_start = probe->hooks;
    probe->AddSpan("warmup", "harness", probe->inspect, probe->window_start);
  });
  machine.queue().ScheduleAt(window_start + probe->measure, [probe, &machine](ct::SimTime) {
    probe->window_end = Clock::now();
    probe->window_closed = true;
    probe->window_ops = machine.metrics().total_ops();
    probe->tlb_end = machine.TlbStats();
    probe->gen_end = probe->gen;
    probe->hooks_end = probe->hooks;
    probe->AddSpan("window", "harness", probe->window_start, probe->window_end);
  });
}

void Finish(ct::Machine& machine, ct::ExperimentResult&) {
  CellProbe* probe = t_probe;
  probe->inflight_at_end = machine.migration().inflight_transactions();
  probe->AddSpan("end_audit", "fault", probe->window_end, Clock::now());
  if (probe->decorated) {
    const Clock::time_point t0 = Clock::now();
    const ct::AuditReport report = machine.AuditNow();
    const Clock::time_point t1 = Clock::now();
    probe->audit_ms = Seconds(t0, t1) * 1e3;
    probe->AddSpan("AuditNow", "fault", t0, t1);
    CHECK(report.clean()) << report.Summary();
  }
  t_probe = nullptr;
}

Pass RunPass(const Workload& workload, const std::vector<ct::NamedPolicyFactory>& lineup,
             PassKind kind, const RunOptions& options, int first_tid) {
  Pass pass;
  pass.kind = kind;
  std::vector<ct::NamedPolicyFactory> probed;
  for (size_t i = 0; i < lineup.size(); ++i) {
    auto probe = std::make_unique<CellProbe>();
    probe->decorated = kind == PassKind::kDecorated;
    probe->plant_mismatch = options.plant_mismatch && probe->decorated;
    probe->keep_spans = options.keep_spans;
    probe->tid = first_tid + static_cast<int>(i);
    probe->warmup = workload.row.config.warmup;
    probe->measure = workload.row.config.measure;
    CellProbe* raw = probe.get();
    pass.probes.push_back(std::move(probe));
    const ct::PolicyFactory inner = lineup[i].make;
    probed.push_back({lineup[i].name, [raw, inner]() -> std::unique_ptr<ct::TieringPolicy> {
                        raw->start = Clock::now();
                        t_probe = raw;
                        std::unique_ptr<ct::TieringPolicy> policy = inner();
                        if (raw->decorated) {
                          return std::make_unique<TimedPolicy>(std::move(policy), raw);
                        }
                        return policy;
                      }});
  }

  ct::MatrixRow row = workload.row;
  if (kind == PassKind::kDecorated) {
    for (ct::ProcessSpec& process : row.processes) {
      const ct::StreamFactory inner = process.make_stream;
      process.make_stream = [inner]() -> std::unique_ptr<ct::AccessStream> {
        return std::make_unique<TimedStream>(inner(), t_probe);
      };
    }
  }
  if (kind == PassKind::kTracer) {
    row.config.trace.enabled = true;  // Default categories, no export.
  }
  const int jobs = kind == PassKind::kSerial ? 1 : workload.jobs;
  const Clock::time_point t0 = Clock::now();
  if (kind == PassKind::kBare) {
    // No callbacks and no markers: the reference that proves the markers inert.
    pass.results = std::move(ct::RunMatrix({row}, lineup, jobs).front());
  } else {
    pass.results = std::move(ct::RunMatrix({row}, probed, jobs, Inspect, Finish).front());
  }
  pass.wall_s = Seconds(t0, Clock::now());
  return pass;
}

// ---------------------------------------------------------------------------------------
// Output checks.

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Names the first simulated field that differs between two results of one cell, or
// returns "" when every field matches. `trace_fields` also compares the trace-derived
// trace_events_dropped (not comparable against a tracer-on run).
std::string FirstDifference(const ct::ExperimentResult& a, const ct::ExperimentResult& b,
                            bool trace_fields) {
#define PB_SAME(field) \
  if (!(a.field == b.field)) return #field;
#define PB_SAME_D(field) \
  if (!SameBits(a.field, b.field)) return #field;
  PB_SAME(policy_name) PB_SAME(elapsed)
  PB_SAME_D(throughput_ops) PB_SAME_D(avg_latency_ns) PB_SAME_D(median_latency_ns)
  PB_SAME_D(p99_latency_ns) PB_SAME_D(read_avg_ns) PB_SAME_D(write_avg_ns) PB_SAME_D(fmar)
  PB_SAME_D(kernel_time_fraction) PB_SAME_D(context_switches_per_sec)
  PB_SAME(promoted_pages) PB_SAME(demoted_pages) PB_SAME(promotion_events)
  PB_SAME(thrash_events) PB_SAME(hint_faults) PB_SAME(migrations_submitted)
  PB_SAME(migrations_committed) PB_SAME(migrations_aborted) PB_SAME(migrations_refused)
  PB_SAME_D(migration_mean_attempts) PB_SAME_D(copy_bandwidth_utilization)
  PB_SAME(congested_accesses) PB_SAME(congestion_queued_ns) PB_SAME(multi_hop_copies)
  PB_SAME(multi_hop_legs) PB_SAME(migrations_parked) PB_SAME(faults_injected_transient)
  PB_SAME(faults_injected_persistent) PB_SAME(frames_quarantined) PB_SAME(alloc_refusals)
  PB_SAME(emergency_reclaims) PB_SAME(pressure_spikes) PB_SAME(stall_windows)
  PB_SAME(links_down) PB_SAME(endpoint_failures) PB_SAME(evacuated_pages)
  PB_SAME(evacuation_refused) PB_SAME(reroutes) PB_SAME(reroute_parks)
  PB_SAME(inflight_at_measure_start) PB_SAME(audits_run) PB_SAME(migration_commit_hash)
  PB_SAME(sample_times) PB_SAME(residency_percent)
  if (trace_fields) {
    PB_SAME(trace_events_dropped)
  }
  PB_SAME(tenants.size())
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    const ct::TenantResult& x = a.tenants[t];
    const ct::TenantResult& y = b.tenants[t];
    if (x.name != y.name || x.accesses != y.accesses ||
        !SameBits(x.p50_latency_ns, y.p50_latency_ns) ||
        !SameBits(x.p99_latency_ns, y.p99_latency_ns) ||
        x.resident_fast_pages != y.resident_fast_pages ||
        x.resident_total_pages != y.resident_total_pages || x.qos_checks != y.qos_checks ||
        x.qos_refusals != y.qos_refusals || x.qos_admits != y.qos_admits ||
        x.borrows != y.borrows || x.migration_pages_admitted != y.migration_pages_admitted ||
        x.migration_bytes_admitted != y.migration_bytes_admitted) {
      return "tenants[" + std::to_string(t) + "]";
    }
  }
#undef PB_SAME
#undef PB_SAME_D
  return "";
}

// Checks one cell's own consistency: the markers fired, work happened, audits ran and
// the migration ledger balances.
std::string CellProblem(const CellProbe& probe, const ct::ExperimentResult& r) {
  if (!probe.window_closed) {
    return "window markers did not fire";
  }
  if (probe.window_ops == 0) {
    return "no accesses in the measured window";
  }
  if (r.audits_run == 0) {
    return "no invariant audit ran";
  }
  // Transactions retiring in the window were submitted in it or were in flight at its
  // start; those still in flight at the end may have been submitted in it too.
  const uint64_t retired = r.migrations_committed + r.migrations_aborted + r.migrations_parked;
  if (retired > r.migrations_submitted + r.inflight_at_measure_start + probe.inflight_at_end) {
    return "migration ledger does not balance";
  }
  return "";
}

// ---------------------------------------------------------------------------------------
// Aggregation.

struct CellTimes {
  double setup_s = 0;
  double window_s = 0;
  uint64_t window_ops = 0;
  uint64_t total_ops = 0;
};

CellTimes TimesOf(const CellProbe& p) {
  CellTimes t;
  t.setup_s = Seconds(p.start, p.inspect);
  t.window_s = Seconds(p.window_start, p.window_end);
  t.window_ops = p.window_ops;
  t.total_ops = p.warmup_ops + p.window_ops;
  return t;
}

double PassSetupSeconds(const Pass& pass) {
  double sum = 0;
  for (const auto& probe : pass.probes) {
    sum += TimesOf(*probe).setup_s;
  }
  return sum;
}

double PassWindowSeconds(const Pass& pass) {
  double sum = 0;
  for (const auto& probe : pass.probes) {
    sum += TimesOf(*probe).window_s;
  }
  return sum;
}

// Accesses per host second. Serial workloads: window accesses over the summed windows.
// A parallel sweep's windows overlap, so there it is every replayed access (warmup
// included) over the sweep's wall-clock time.
double PassAccessesPerSecond(const Pass& pass, bool parallel) {
  uint64_t ops = 0;
  for (const auto& probe : pass.probes) {
    ops += parallel ? TimesOf(*probe).total_ops : TimesOf(*probe).window_ops;
  }
  return Ratio(static_cast<double>(ops), parallel ? pass.wall_s : PassWindowSeconds(pass));
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // Printed beside the value (paper reference).
};

size_t CellIndex(const std::vector<ct::NamedPolicyFactory>& lineup, const std::string& name) {
  for (size_t i = 0; i < lineup.size(); ++i) {
    if (lineup[i].name == name) {
      return i;
    }
  }
  CHECK(false) << "policy " << name << " missing from the lineup";
  return 0;
}

std::vector<Metric> EndToEndMetrics(const std::vector<Pass>& plain, bool parallel,
                                    const std::vector<ct::NamedPolicyFactory>& lineup) {
  std::vector<double> aps, setup;
  for (const Pass& pass : plain) {
    aps.push_back(PassAccessesPerSecond(pass, parallel));
    setup.push_back(PassSetupSeconds(pass));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const ct::ExperimentResult& chrono = plain.front().results[CellIndex(lineup, "Chrono")];
  const ct::ExperimentResult& linux_nb = plain.front().results[CellIndex(lineup, "Linux-NB")];
  return {
      {"accesses_per_s", Median(aps), "1/s", ""},
      {"setup_s", Median(setup), "s", ""},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", ""},
      {"chrono_speedup_vs_linux_nb", Ratio(chrono.throughput_ops, linux_nb.throughput_ops),
       "x", "paper Fig. 6: ~3x Linux-NB (+216%)"},
      {"chrono_fmar", chrono.fmar, "ratio", "paper Fig. 8: 0.77 (Linux-NB 0.49)"},
      {"chrono_p99_ns", chrono.p99_latency_ns, "ns", "paper Fig. 7: P99 79% below Linux-NB"},
  };
}

std::vector<Metric> LayerMetrics(const std::vector<Pass>& plain,
                                 const std::vector<Pass>& decorated,
                                 const std::vector<Pass>& tracer, const std::vector<Pass>& serial,
                                 bool parallel,
                                 const std::vector<ct::NamedPolicyFactory>& lineup) {
  // Timing shares: medians over repetitions of per-pass ratios.
  std::vector<double> gen_share, gen_ns_per_op, hook_share, hook_ns_per_call, audit_share,
      residual, setup_ms, runner, decorator_overhead, tracer_overhead;
  double audit_ms_sum = 0;
  size_t audit_cells = 0;
  for (size_t rep = 0; rep < decorated.size(); ++rep) {
    const Pass& pass = decorated[rep];
    double window_ns = 0, gen_ns = 0, hook_ns = 0, audit_ns = 0;
    uint64_t gen_ops = 0, hook_calls = 0;
    for (size_t c = 0; c < pass.probes.size(); ++c) {
      const CellProbe& p = *pass.probes[c];
      window_ns += TimesOf(p).window_s * 1e9;
      gen_ns += static_cast<double>(p.gen_end.ns - p.gen_start.ns);
      gen_ops += p.gen_end.ops - p.gen_start.ops;
      hook_ns += static_cast<double>(p.hooks_end.ns - p.hooks_start.ns);
      hook_calls += p.hooks_end.calls - p.hooks_start.calls;
      // audits_run counts the window's periodic audits plus the end-of-run one.
      const uint64_t audits = pass.results[c].audits_run;
      audit_ns += static_cast<double>(audits > 0 ? audits - 1 : 0) * p.audit_ms * 1e6;
      audit_ms_sum += p.audit_ms;
      ++audit_cells;
    }
    gen_share.push_back(Ratio(gen_ns, window_ns));
    gen_ns_per_op.push_back(Ratio(gen_ns, static_cast<double>(gen_ops)));
    hook_share.push_back(Ratio(hook_ns, window_ns));
    hook_ns_per_call.push_back(Ratio(hook_ns, static_cast<double>(hook_calls)));
    audit_share.push_back(Ratio(audit_ns, window_ns));
    residual.push_back(1.0 - gen_share.back() - hook_share.back() - audit_share.back());
    const auto span_of = [parallel](const Pass& p) {
      return parallel ? p.wall_s : PassWindowSeconds(p);
    };
    decorator_overhead.push_back(Ratio(span_of(pass), span_of(plain[rep])) - 1.0);
    tracer_overhead.push_back(Ratio(span_of(tracer[rep]), span_of(plain[rep])) - 1.0);
    runner.push_back(serial.empty() ? 1.0 : Ratio(serial[rep].wall_s, plain[rep].wall_s));
    setup_ms.push_back(PassSetupSeconds(plain[rep]) * 1e3 /
                       static_cast<double>(plain[rep].probes.size()));
  }

  // Counts: exact, from the first repetition (every repetition repeats them).
  const Pass& first = decorated.front();
  uint64_t ops = 0, hook_calls = 0, audits = 0, tlb_hits = 0, tlb_misses = 0, hint = 0,
           submitted = 0, committed = 0, aborted = 0, refused = 0, promoted = 0, demoted = 0,
           congested = 0, queued_ns = 0, legs = 0, qos_checks = 0, qos_refusals = 0;
  double copy_util = 0;
  for (size_t c = 0; c < first.probes.size(); ++c) {
    const CellProbe& p = *first.probes[c];
    const ct::ExperimentResult& r = first.results[c];
    ops += p.window_ops;
    hook_calls += p.hooks_end.calls - p.hooks_start.calls;
    audits += r.audits_run;
    tlb_hits += p.tlb_end.hits - p.tlb_start.hits;
    tlb_misses += p.tlb_end.misses - p.tlb_start.misses;
    hint += r.hint_faults;
    submitted += r.migrations_submitted;
    committed += r.migrations_committed;
    aborted += r.migrations_aborted;
    refused += r.migrations_refused;
    promoted += r.promoted_pages;
    demoted += r.demoted_pages;
    congested += r.congested_accesses;
    queued_ns += r.congestion_queued_ns;
    legs += r.multi_hop_legs;
    copy_util += r.copy_bandwidth_utilization / static_cast<double>(first.probes.size());
    for (const ct::TenantResult& t : r.tenants) {
      qos_checks += t.qos_checks;
      qos_refusals += t.qos_refusals;
    }
  }
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> metrics = {
      {"workloads.gen_share", Median(gen_share), "ratio", ""},
      {"workloads.gen_ns_per_op", Median(gen_ns_per_op), "ns", ""},
      {"workloads.ops", d(ops), "count", ""},
      {"policies.hook_share", Median(hook_share), "ratio", ""},
      {"policies.hook_calls", d(hook_calls), "count", ""},
      {"policies.hook_ns_per_call", Median(hook_ns_per_call), "ns", ""},
      {"fault.audit_ms", audit_ms_sum / static_cast<double>(audit_cells), "ms", ""},
      {"fault.audits_run", d(audits), "count", ""},
      {"fault.audit_share", Median(audit_share), "ratio", ""},
      {"vm.tlb_hit_rate", Ratio(d(tlb_hits), d(tlb_hits + tlb_misses)), "ratio", ""},
      {"vm.tlb_misses", d(tlb_misses), "count", ""},
      {"vm.hint_faults", d(hint), "count", ""},
      {"migration.submitted", d(submitted), "count", ""},
      {"migration.committed", d(committed), "count", ""},
      {"migration.aborted", d(aborted), "count", ""},
      {"migration.refused", d(refused), "count", ""},
      {"migration.commit_ratio", Ratio(d(committed), d(submitted)), "ratio", ""},
      {"migration.copy_bw_util", copy_util, "ratio", ""},
      {"mem.promoted_pages", d(promoted), "count", ""},
      {"mem.demoted_pages", d(demoted), "count", ""},
      {"topology.congested_accesses", d(congested), "count", ""},
      {"topology.queued_ms", d(queued_ns) / 1e6, "ms", ""},
      {"topology.multi_hop_legs", d(legs), "count", ""},
      {"tenant.qos_checks", d(qos_checks), "count", ""},
      {"tenant.qos_refusal_ratio", Ratio(d(qos_refusals), d(qos_checks)), "ratio", ""},
      {"harness.residual_share", Median(residual), "ratio", ""},
      {"harness.setup_ms_per_cell", Median(setup_ms), "ms", ""},
      {"harness.runner_speedup", Median(runner), "x", ""},
      {"trace.decorator_overhead", Median(decorator_overhead), "ratio", ""},
      {"trace.tracer_overhead", Median(tracer_overhead), "ratio", ""},
  };
  for (size_t c = 0; c < lineup.size(); ++c) {
    std::vector<double> aps;
    for (const Pass& pass : plain) {
      const CellTimes t = TimesOf(*pass.probes[c]);
      aps.push_back(Ratio(d(t.window_ops), t.window_s));
    }
    metrics.push_back({"policies." + lineup[c].name + ".accesses_per_s", Median(aps), "1/s", ""});
  }
  return metrics;
}

// ---------------------------------------------------------------------------------------
// Output.

void WriteSpans(const std::string& path, const std::vector<Pass>& passes,
                const std::vector<ct::NamedPolicyFactory>& lineup) {
  std::ofstream out(path);
  CHECK(out.good()) << "cannot write spans to " << path;
  ct::JsonWriter json(out);
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (const Pass& pass : passes) {
    for (size_t c = 0; c < pass.probes.size(); ++c) {
      const CellProbe& p = *pass.probes[c];
      json.BeginObject();
      json.Key("name");
      json.Value("thread_name");
      json.Key("ph");
      json.Value("M");
      json.Key("pid");
      json.Value(1);
      json.Key("tid");
      json.Value(p.tid);
      json.Key("args");
      json.BeginObject();
      json.Key("name");
      json.Value(std::string(PassName(pass.kind)) + "/" + lineup[c].name);
      json.EndObject();
      json.EndObject();
      for (const Span& span : p.spans) {
        json.BeginObject();
        json.Key("name");
        json.Value(span.name);
        json.Key("cat");
        json.Value(span.cat);
        json.Key("ph");
        json.Value("X");
        json.Key("pid");
        json.Value(1);
        json.Key("tid");
        json.Value(span.tid);
        json.Key("ts");
        json.Value(static_cast<double>(span.start_ns) / 1e3);
        json.Key("dur");
        json.Value(static_cast<double>(span.dur_ns) / 1e3);
        json.EndObject();
      }
    }
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
}

struct Manifest {
  int host_cpus = 0;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string compiler = PERFBENCH_COMPILER;
  std::string commit;
  uint64_t seed = 0;
  uint64_t config_hash = 0;
};

struct Failure {
  std::string cell;
  std::string problem;
};

void WriteResults(const std::string& path, const std::string& workload, int trace,
                  const Manifest& manifest, uint64_t attempted,
                  const std::vector<Failure>& failures, int reps, double seconds,
                  const std::vector<Metric>& metrics, const std::vector<Pass>& plain,
                  const std::vector<ct::NamedPolicyFactory>& lineup) {
  const Pass& first = plain.front();
  std::ofstream out(path);
  CHECK(out.good()) << "cannot write results to " << path;
  ct::JsonWriter json(out);
  json.set_pretty(true);
  json.BeginObject();
  json.Key("workload");
  json.Value(workload);
  json.Key("trace");
  json.Value(trace);
  json.Key("manifest");
  json.BeginObject();
  json.Key("host_cpus");
  json.Value(manifest.host_cpus);
  json.Key("build_type");
  json.Value(manifest.build_type);
  json.Key("compiler");
  json.Value(manifest.compiler);
  json.Key("commit");
  json.Value(manifest.commit);
  json.Key("seed");
  json.Value(manifest.seed);
  json.Key("config_hash");
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(manifest.config_hash));
  json.Value(std::string(hash));
  json.EndObject();
  json.Key("repetitions");
  json.Value(reps);
  json.Key("measured_seconds");
  json.Value(seconds);
  json.Key("cells");
  json.Value(attempted);
  json.Key("cells_failed");
  json.Value(static_cast<uint64_t>(failures.size()));
  json.Key("failures");
  json.BeginArray();
  for (const Failure& f : failures) {
    json.BeginObject();
    json.Key("cell");
    json.Value(f.cell);
    json.Key("problem");
    json.Value(f.problem);
    json.EndObject();
  }
  json.EndArray();
  json.Key("metrics");
  json.BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.Key("value");
    json.Value(m.value);
    json.Key("unit");
    json.Value(m.unit);
    json.EndObject();
  }
  json.EndObject();
  // Host timings of every plain pass, [repetition][cell], for offline analysis.
  for (const char* key : {"window_host_s", "setup_host_s"}) {
    json.Key(key);
    json.BeginArray();
    for (const Pass& pass : plain) {
      json.BeginArray();
      for (const auto& probe : pass.probes) {
        const CellTimes t = TimesOf(*probe);
        json.Value(std::strcmp(key, "window_host_s") == 0 ? t.window_s : t.setup_s);
      }
      json.EndArray();
    }
    json.EndArray();
  }
  json.Key("policies");
  json.BeginArray();
  for (size_t c = 0; c < first.results.size(); ++c) {
    const ct::ExperimentResult& r = first.results[c];
    const CellTimes t = TimesOf(*first.probes[c]);
    json.BeginObject();
    json.Key("policy");
    json.Value(lineup[c].name);
    json.Key("window_accesses");
    json.Value(t.window_ops);
    json.Key("window_host_s");
    json.Value(t.window_s);
    json.Key("setup_host_s");
    json.Value(t.setup_s);
    json.Key("sim_throughput_ops");
    json.Value(r.throughput_ops);
    json.Key("fmar");
    json.Value(r.fmar);
    json.Key("p99_latency_ns");
    json.Value(r.p99_latency_ns);
    json.Key("migration_commit_hash");
    json.Value(r.migration_commit_hash);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string spans;
  std::string commit = "unknown";
  double warmup_s = 2;
  double measure_s = 3;
  bool plant_mismatch = false;
  bool bare_pass = false;
};

[[noreturn]] void Usage(const char* prog, const std::string& error) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 --out FILE\n"
               "          [--spans FILE] [--commit ID] [--warmup-s S] [--measure-s S]\n"
               "          [--plant-mismatch] [--bare-pass]\n"
               "workloads: pmbench segmented_rw tenant_cxl sweep_parallel\n",
               prog, error.c_str(), prog);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(argv[0], arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (arg == "--out") {
      args.out = value();
    } else if (arg == "--spans") {
      args.spans = value();
    } else if (arg == "--commit") {
      args.commit = value();
    } else if (arg == "--warmup-s") {
      args.warmup_s = std::atof(value().c_str());
    } else if (arg == "--measure-s") {
      args.measure_s = std::atof(value().c_str());
    } else if (arg == "--plant-mismatch") {
      args.plant_mismatch = true;
    } else if (arg == "--bare-pass") {
      args.bare_pass = true;
    } else {
      Usage(argv[0], "unknown argument '" + arg + "'");
    }
  }
  if (args.out.empty() || (args.trace != 0 && args.trace != 1) || args.seconds <= 0 ||
      args.warmup_s <= 0 || args.measure_s <= 0) {
    Usage(argv[0], "bad or missing arguments");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload workload =
      MakeWorkload(args.workload, args.seed, static_cast<ct::SimDuration>(args.warmup_s * 1e9),
                   static_cast<ct::SimDuration>(args.measure_s * 1e9));
  if (workload.name.empty()) {
    Usage(argv[0], "unknown workload '" + args.workload + "'");
  }
  const std::vector<ct::NamedPolicyFactory> lineup = ct::TopologyPolicySet(ct::BenchGeometry());
  const bool parallel = workload.jobs > 1;

  Manifest manifest;
  manifest.host_cpus = ct::DefaultJobs();
  manifest.commit = args.commit;
  manifest.seed = args.seed;
  manifest.config_hash = ConfigHash(workload, lineup);
  std::printf("perfbench %s seed=%llu trace=%d | cpus=%d build=%s compiler=%s commit=%s "
              "config=%016llx jobs=%d\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
              manifest.host_cpus, manifest.build_type.c_str(), manifest.compiler.c_str(),
              manifest.commit.c_str(), static_cast<unsigned long long>(manifest.config_hash),
              workload.jobs);

  RunOptions options;
  options.plant_mismatch = args.plant_mismatch;
  options.keep_spans = args.trace == 1 && !args.spans.empty();

  // Repetitions: each one is a plain pass (traced runs add decorated, tracer and, for the
  // parallel sweep, serial passes). Keep going while another repetition fits in --seconds.
  std::vector<Pass> plain, decorated, tracer, serial, bare;
  std::vector<Failure> failures;
  uint64_t attempted = 0;
  const Clock::time_point start = Clock::now();
  const auto fail = [&](PassKind kind, size_t rep, size_t cell, const std::string& problem) {
    failures.push_back({std::string(PassName(kind)) + "/rep" + std::to_string(rep) + "/" +
                            lineup[cell].name,
                        problem});
    std::printf("  FAILED %s: %s\n", failures.back().cell.c_str(), problem.c_str());
  };
  int tid = 1;
  while (true) {
    const size_t rep = plain.size();
    const Clock::time_point rep_start = Clock::now();
    std::vector<Pass*> passes;
    const auto run = [&](PassKind kind, std::vector<Pass>& group) {
      group.push_back(RunPass(workload, lineup, kind, options, tid));
      tid += static_cast<int>(lineup.size());
      passes.push_back(&group.back());
    };
    run(PassKind::kPlain, plain);
    if (args.trace == 1) {
      run(PassKind::kDecorated, decorated);
      run(PassKind::kTracer, tracer);
      if (workload.serial_reference) {
        run(PassKind::kSerial, serial);
      }
    }
    if (args.bare_pass && rep == 0) {
      run(PassKind::kBare, bare);
    }
    // Every pass of every repetition is checked against the first plain pass.
    const Pass& reference = plain.front();
    for (const Pass* pass : passes) {
      for (size_t c = 0; c < pass->results.size(); ++c) {
        ++attempted;
        std::string problem = pass->kind == PassKind::kBare
                                  ? ""
                                  : CellProblem(*pass->probes[c], pass->results[c]);
        if (problem.empty() && pass != &reference) {
          const std::string field = FirstDifference(reference.results[c], pass->results[c],
                                                    pass->kind != PassKind::kTracer);
          if (!field.empty()) {
            problem = "result field '" + field + "' differs from the first plain pass";
          } else if (pass->kind != PassKind::kBare &&
                     pass->probes[c]->window_ops != reference.probes[c]->window_ops) {
            problem = "window access count differs from the first plain pass";
          }
        }
        if (!problem.empty()) {
          fail(pass->kind, rep, c, problem);
        }
      }
    }
    const double rep_s = Seconds(rep_start, Clock::now());
    const double elapsed = Seconds(start, Clock::now());
    std::printf("  rep %zu: %.3f s (plain pass %.3f s wall)\n", rep, rep_s, plain.back().wall_s);
    std::fflush(stdout);
    if (elapsed + rep_s > args.seconds) {
      break;
    }
  }
  const double measured_s = Seconds(start, Clock::now());

  const std::vector<Metric> metrics =
      args.trace == 0 ? EndToEndMetrics(plain, parallel, lineup)
                      : LayerMetrics(plain, decorated, tracer, serial, parallel, lineup);
  std::printf("%zu repetition(s) in %.2f s; cells %llu, cells_failed %zu\n", plain.size(),
              measured_s, static_cast<unsigned long long>(attempted), failures.size());
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  if (args.trace == 0) {
    std::printf("  (the chrono_* figures come from the simulator's model, which is not validated\n"
                "   against hardware; the paper's numbers are a reference, not an error bound)\n");
  }
  WriteResults(args.out, workload.name, args.trace, manifest, attempted, failures,
               static_cast<int>(plain.size()), measured_s, metrics, plain, lineup);
  if (options.keep_spans) {
    std::vector<Pass> all;
    for (std::vector<Pass>* group : {&plain, &decorated, &tracer, &serial}) {
      for (Pass& pass : *group) {
        all.push_back(std::move(pass));
      }
    }
    WriteSpans(args.spans, all, lineup);
  }
  return failures.empty() ? 0 : 1;
}
