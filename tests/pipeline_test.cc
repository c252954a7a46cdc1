// Pipelined workload generation tests (src/harness/op_pipeline.h).
//
// The claim: generating a self-contained stream's batches on a second thread changes no
// result. The pipeline_on/pipeline_off cells of the equivalence matrix
// (tests/equivalence_test.cc) check it for every policy on the pmbench, segmented,
// tenant_kv and chaos schedules. The tests here pin the edges, with the pipeline forced
// off and on (ScopedPipelineOverride, so the core budget of the host does not matter):
// 7-op slots, finite streams, a stream that throws or CHECK-fails at op k (same op in both
// modes), teardown while the generator is parked or after a mid-run failure, decorators
// that must stay in-thread, and the core budget. Run under TSan (CHRONOTIER_TSAN=ON) to
// check the cross-thread edge itself.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/harness/op_pipeline.h"
#include "src/harness/result_fields.h"
#include "src/harness/runner.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/trace.h"
#include "tests/test_schedules.h"

namespace chronotier {
namespace {

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
  EXPECT_EQ(FirstDifference(in_thread, pipelined), "") << key << ": pipelined vs in-thread";
}

TEST(PipelineTest, SmallBatchWrapsTheRing) {
  // 7-op slots never align with quanta, and 16 of them wrap the ring many times a second.
  ExperimentConfig config = SmallExperiment();
  config.warmup = kSecond;
  config.measure = 2 * kSecond;
  config.replay_batch_ops = 7;
  ExpectPipelineEquivalence("batch7/Chrono", config, FindPolicy("Chrono"),
                            GaussianProcs(2, /*read_ratio=*/0.7));
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
                              FindPolicy("Chrono"),
                              GaussianProcs(2, /*read_ratio=*/0.7, 6144, op_limit));
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
    job.processes = GaussianProcs(2, /*read_ratio=*/0.7);
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
