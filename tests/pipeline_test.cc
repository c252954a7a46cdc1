// Pipelined workload generation tests (src/harness/op_pipeline.h).
//
// The claim: generating a self-contained stream's batches on a second thread changes no
// result. Every equivalence test below runs the same experiment with the pipeline forced
// off and forced on (ScopedPipelineOverride, so the core budget of the host does not
// matter) and compares every ExperimentResult field, tenant rows included. The rest pin
// the edges: finite streams, a stream that throws or CHECK-fails at op k (same op in both
// modes), teardown while the generator is parked or after a mid-run failure, decorators
// that must stay in-thread, and the core budget. Run under TSan (CHRONOTIER_TSAN=ON) to
// check the cross-thread edge itself.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/harness/op_pipeline.h"
#include "src/harness/runner.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/tenant_kv.h"
#include "src/workloads/trace.h"
#include "tests/experiment_result_testutil.h"

namespace chronotier {
namespace {

ScanGeometry FastGeometry() {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 512;
  return geometry;
}

ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.total_pages = 16384;  // 64 MB machine, 16 MB DRAM.
  config.bandwidth_scale = 256.0;
  config.warmup = 3 * kSecond;
  config.measure = 3 * kSecond;
  config.residency_sample_interval = kSecond;
  return config;
}

std::vector<ProcessSpec> PmbenchProcs(int count, uint64_t op_limit = 0) {
  PmbenchConfig w;
  w.working_set_bytes = 6144 * kBasePageSize;
  w.read_ratio = 0.7;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  w.op_limit = op_limit;
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < count; ++i) {
    procs.push_back({"pm", [w] { return std::make_unique<PmbenchStream>(w); }});
  }
  return procs;
}

std::vector<ProcessSpec> SegmentedProcs(int count) {
  SegmentedConfig w;
  w.working_set_bytes = 6144 * kBasePageSize;
  w.segments = 12;
  w.read_ratio = 0.3;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < count; ++i) {
    procs.push_back({"seg", [w] { return std::make_unique<SegmentedStream>(w); }});
  }
  return procs;
}

// perfbench's tenant_cxl shape in miniature: 8 fair-share tenants, one open-loop KV server
// each, on the 4-endpoint chain fabric.
ExperimentConfig TenantExperiment(std::vector<ProcessSpec>* procs) {
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

ExperimentConfig ChaosExperiment() {
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

NamedPolicyFactory FindPolicy(const std::string& name) {
  for (const auto& named : TopologyPolicySet(FastGeometry())) {
    if (named.name == name) {
      return named;
    }
  }
  ADD_FAILURE() << "no such policy: " << name;
  return {};
}

// Runs `config` with the pipeline forced off and forced on and compares every field. Also
// checks that each run took the path it was forced onto.
void ExpectPipelineEquivalence(const std::string& key, const ExperimentConfig& config,
                               const NamedPolicyFactory& named,
                               const std::vector<ProcessSpec>& procs) {
  const auto run = [&](bool pipelined, size_t* streams_on_pipeline) {
    const ScopedPipelineOverride force(pipelined);
    return Experiment::Run(config, named.make, procs, nullptr,
                           [streams_on_pipeline](Machine& machine, ExperimentResult&) {
                             *streams_on_pipeline = machine.pipelined_streams();
                           });
  };
  size_t in_thread_streams = 0;
  size_t pipelined_streams = 0;
  const ExperimentResult in_thread = run(false, &in_thread_streams);
  const ExperimentResult pipelined = run(true, &pipelined_streams);
  EXPECT_EQ(in_thread_streams, 0u) << key;
  EXPECT_EQ(pipelined_streams, procs.size()) << key;
  ExpectResultsIdentical(in_thread, pipelined, key + ": pipelined vs in-thread");
}

// The equivalence matrix: every policy on each workload shape, one test per cell so each
// stays short under TSan.
struct Cell {
  const char* workload;
  const char* policy;
};

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.workload << "/" << cell.policy; }

std::vector<Cell> Cells() {
  std::vector<Cell> cells;
  for (const char* workload : {"pmbench", "segmented", "tenant_kv"}) {
    for (const char* policy : {"Linux-NB", "AutoTiering", "Multi-Clock", "TPP", "Memtis",
                               "Chrono", "endpoint_aware_hotness"}) {
      cells.push_back({workload, policy});
    }
  }
  cells.push_back({"chaos", "Chrono"});
  cells.push_back({"chaos", "Multi-Clock"});
  return cells;
}

std::string CellName(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::string(info.param.workload) + "_" + info.param.policy;
  for (char& c : name) {
    c = std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return name;
}

class PipelineEquivalenceTest : public ::testing::TestWithParam<Cell> {};

TEST_P(PipelineEquivalenceTest, PipelinedMatchesInThread) {
  const Cell& cell = GetParam();
  const std::string workload = cell.workload;
  ExperimentConfig config = workload == "chaos" ? ChaosExperiment() : SmallExperiment();
  std::vector<ProcessSpec> procs;
  if (workload == "tenant_kv") {
    config = TenantExperiment(&procs);
  } else if (workload == "segmented") {
    procs = SegmentedProcs(2);
  } else {
    procs = PmbenchProcs(2);
  }
  ExpectPipelineEquivalence(workload + "/" + cell.policy, config, FindPolicy(cell.policy),
                            procs);
}

INSTANTIATE_TEST_SUITE_P(Matrix, PipelineEquivalenceTest, ::testing::ValuesIn(Cells()),
                         CellName);

TEST(PipelineTest, SmallBatchWrapsTheRing) {
  // 7-op slots never align with quanta, and 16 of them wrap the ring many times a second.
  ExperimentConfig config = SmallExperiment();
  config.warmup = kSecond;
  config.measure = 2 * kSecond;
  config.replay_batch_ops = 7;
  ExpectPipelineEquivalence("batch7/Chrono", config, FindPolicy("Chrono"), PmbenchProcs(2));
}

TEST(PipelineTest, FiniteStreamsEndAtTheSameOp) {
  // After the 6144-op init (96 slots), the stream's end lands mid-slot (100003 ops) or
  // exactly on a slot boundary (64 * 1563: the next fill is an empty short one). Both
  // processes must finish at the same simulated time in both modes.
  for (const uint64_t op_limit : {100003ull, 64ull * 1563}) {
    ExperimentConfig config = SmallExperiment();
    config.run_to_completion = true;
    config.measure = 60 * kSecond;
    ExpectPipelineEquivalence("finite/" + std::to_string(op_limit), config,
                              FindPolicy("Chrono"), PmbenchProcs(2, op_limit));
  }
}

// Sequential ops over a small region that fail at op `fail_at` (0-based): by throwing
// std::runtime_error, or through a CHECK.
class FailingStream : public AccessStream {
 public:
  FailingStream(uint64_t fail_at, bool use_check) : fail_at_(fail_at), use_check_(use_check) {}

  void Init(Process& process, Rng&) override {
    base_vpn_ =
        process.aspace().MapRegion(kPages * kBasePageSize, process.default_page_kind()) /
        kBasePageSize;
  }

  bool Next(Rng& rng, MemOp* op) override {
    if (issued_ == fail_at_) {
      CHECK(!use_check_) << "stream failed at op " << issued_;
      throw std::runtime_error("stream failed at op " + std::to_string(issued_));
    }
    op->vaddr = (base_vpn_ + issued_ % kPages) * kBasePageSize;
    op->is_store = rng.NextBool(0.5);
    op->think_time = kMicrosecond;
    ++issued_;
    return true;
  }

  bool SelfContained() const override { return true; }

 private:
  static constexpr uint64_t kPages = 64;
  uint64_t fail_at_;
  bool use_check_;
  uint64_t base_vpn_ = 0;
  uint64_t issued_ = 0;
};

class NullPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "null"; }
  void Attach(Machine&) override {}
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }
};

std::unique_ptr<Machine> MachineWith(std::unique_ptr<AccessStream> stream) {
  auto machine = std::make_unique<Machine>(MachineConfig::StandardTwoTier(4096),
                                           std::make_unique<NullPolicy>());
  Process& process = machine->CreateProcess("app");
  machine->AttachWorkload(process, std::move(stream), 9);
  machine->Start();
  return machine;
}

TEST(PipelineTest, ExceptionSurfacesAtTheSameOp) {
  constexpr uint64_t kFailAt = 1000;  // Inside the 16th 64-op batch.
  uint64_t replayed[2] = {0, 0};
  for (const bool pipelined : {false, true}) {
    const ScopedPipelineOverride force(pipelined);
    std::unique_ptr<Machine> machine =
        MachineWith(std::make_unique<FailingStream>(kFailAt, /*use_check=*/false));
    EXPECT_THROW(machine->Run(kSecond), std::runtime_error);
    EXPECT_EQ(machine->pipelined_streams(), pipelined ? 1u : 0u);
    replayed[pipelined ? 1 : 0] = machine->processes()[0]->completed_accesses();
    // Destroying the machine after the mid-run failure must join the generator.
  }
  EXPECT_EQ(replayed[0], kFailAt / 64 * 64);
  EXPECT_EQ(replayed[1], replayed[0]);
}

// A short first Run replays fewer than 64 ops; the pause after it lets the generator run
// its 16-slot ring ahead past op 500. The "replayed" line must still come out before the
// CHECK message: the failure is re-raised on the replay thread when it reaches that batch.
void RunUntilCheckFailure(bool pipelined) {
  const ScopedPipelineOverride force(pipelined);
  std::unique_ptr<Machine> machine =
      MachineWith(std::make_unique<FailingStream>(500, /*use_check=*/true));
  machine->Run(20 * kMicrosecond);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::fprintf(stderr, "replayed=%llu\n",
               static_cast<unsigned long long>(machine->processes()[0]->completed_accesses()));
  std::fflush(stderr);
  machine->Run(kSecond);
}

TEST(PipelineDeathTest, CheckFailureSurfacesAtTheSameOp) {
  const char* expected = "replayed=[0-9]+\n.*CHECK failed: !use_check_ stream failed at op 500";
  EXPECT_DEATH(RunUntilCheckFailure(false), expected);
  EXPECT_DEATH(RunUntilCheckFailure(true), expected);
}

TEST(PipelineTest, TeardownWhileGeneratorIsParkedOnAFullRing) {
  const ScopedPipelineOverride force(true);
  PmbenchConfig w;
  w.working_set_bytes = 512 * kBasePageSize;
  std::unique_ptr<Machine> machine = MachineWith(std::make_unique<PmbenchStream>(w));
  machine->Run(kMillisecond);
  ASSERT_EQ(machine->pipelined_streams(), 1u);
  // The ring fills within microseconds; after this the generator has spun out and parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  machine.reset();  // Must wake and join it, not hang (the ctest timeout catches a hang).
}

TEST(PipelineTest, TraceRecorderStaysInThreadAndRecordsExactlyTheReplayedOps) {
  const ScopedPipelineOverride force(true);
  PmbenchConfig w;
  w.working_set_bytes = 1024 * kBasePageSize;
  w.per_op_delay = kMicrosecond;
  MachineConfig config = MachineConfig::StandardTwoTier(8192);
  config.replay_batch_ops = 1;  // No prefetch: every op fetched is replayed at once.
  Machine machine(config, std::make_unique<NullPolicy>());
  Process& recorded = machine.CreateProcess("recorded");
  Process& plain = machine.CreateProcess("plain");
  Trace trace;
  machine.AttachWorkload(
      recorded, std::make_unique<TraceRecorder>(std::make_unique<PmbenchStream>(w), &trace), 3);
  machine.AttachWorkload(plain, std::make_unique<PmbenchStream>(w), 4);
  machine.Start();
  machine.Run(50 * kMillisecond);

  EXPECT_EQ(machine.pipelined_streams(), 1u);  // Only the plain stream.
  ASSERT_GT(recorded.completed_accesses(), 0u);
  EXPECT_EQ(trace.size(), recorded.completed_accesses());
  // The recorded ops are the stream's own sequence, in order.
  Process reference_process(0, "reference");
  Rng rng(3);
  PmbenchStream reference(w);
  reference.Init(reference_process, rng);
  const uint64_t base = reference_process.aspace().lowest_vpn() * kBasePageSize;
  for (size_t i = 0; i < trace.size(); ++i) {
    MemOp op;
    ASSERT_TRUE(reference.Next(rng, &op));
    ASSERT_EQ(trace.entries()[i].vaddr, op.vaddr - base) << "op " << i;
    ASSERT_EQ(trace.entries()[i].is_store, op.is_store) << "op " << i;
  }
}

// A runner batch that keeps DefaultJobs() workers busy; each cell reports how many of its
// streams the pipeline took.
std::vector<ExperimentJob> ProbeBatch(size_t cells, std::vector<size_t>* pipelined) {
  pipelined->assign(cells, 0);
  std::vector<ExperimentJob> batch;
  for (size_t i = 0; i < cells; ++i) {
    ExperimentJob job;
    job.label = "cell-" + std::to_string(i);
    job.config = SmallExperiment();
    job.config.warmup = 0;
    job.config.measure = 200 * kMillisecond;
    job.make_policy = FindPolicy("Linux-NB").make;
    job.processes = PmbenchProcs(2);
    size_t* slot = &(*pipelined)[i];
    job.finish = [slot](Machine& machine, ExperimentResult&) {
      *slot = machine.pipelined_streams();
    };
    batch.push_back(std::move(job));
  }
  return batch;
}

TEST(PipelineTest, RunnerThatFillsTheCoresLeavesMachinesInThread) {
  const int jobs = DefaultJobs();
  std::vector<size_t> pipelined;
  RunExperiments(ProbeBatch(static_cast<size_t>(jobs), &pipelined), jobs);
  for (size_t i = 0; i < pipelined.size(); ++i) {
    EXPECT_EQ(pipelined[i], 0u) << "cell " << i << " of a " << jobs << "-job sweep";
  }
  // A serial sweep leaves DefaultJobs() - 1 cores spare: each machine takes one in turn.
  RunExperiments(ProbeBatch(2, &pipelined), 1);
  for (size_t i = 0; i < pipelined.size(); ++i) {
    EXPECT_EQ(pipelined[i], jobs > 1 ? 2u : 0u) << "cell " << i << " of a serial sweep";
  }
}

}  // namespace
}  // namespace chronotier
