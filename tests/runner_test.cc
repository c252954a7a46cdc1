// Parallel experiment runner tests.
//
// The runner's contract: RunExperiments(batch, jobs) returns, for any jobs value, exactly
// what the serial loop returns — same results, same submission order. Each Machine is
// fully self-contained (own event queue, RNGs, metrics), so the parallel schedule cannot
// leak between cells; these tests prove it by comparing every ExperimentResult field,
// including residency time series, fault counters and the migration commit hash. Run them
// under TSan (CHRONOTIER_TSAN=ON) to prove the no-shared-state claim at the memory level.

#include <gtest/gtest.h>

#include <string>

#include "src/harness/result_fields.h"
#include "src/harness/runner.h"
#include "tests/test_schedules.h"

namespace chronotier {
namespace {

// A batch that exercises every result field: two policies, two seeds, residency sampling
// everywhere, and one fault-injected cell.
std::vector<ExperimentJob> MixedBatch() {
  std::vector<ExperimentJob> batch;
  for (const auto& named : StandardPolicySet(FastGeometry())) {
    if (named.name != "Chrono" && named.name != "Linux-NB") {
      continue;
    }
    for (const uint64_t seed : {42ull, 7ull}) {
      ExperimentJob job;
      job.label = named.name + "/seed-" + std::to_string(seed);
      job.config.total_pages = 8192;  // 32 MB machine, 8 MB DRAM.
      job.config.bandwidth_scale = 256.0;
      job.config.warmup = 3 * kSecond;
      job.config.measure = 4 * kSecond;
      job.config.seed = seed;
      job.config.residency_sample_interval = kSecond;
      job.make_policy = named.make;
      job.processes = GaussianProcs(2, /*read_ratio=*/0.5, /*ws_pages=*/3072);  // 12 MB.
      batch.push_back(std::move(job));
    }
  }
  // Fault-injected cell: parked migrations, quarantined frames, pressure spikes — the
  // degradation counters must survive the round trip through a worker thread too.
  ExperimentJob chaos = batch.front();
  chaos.label = "chaos";
  chaos.config.fault.enabled = true;
  chaos.config.fault.seed = 5;
  chaos.config.fault.start_after = kSecond;
  chaos.config.fault.copy_fail_transient_p = 0.05;
  chaos.config.fault.pressure_period = 1300 * kMillisecond;
  chaos.config.fault.pressure_fire_p = 0.8;
  chaos.config.fault.pressure_duration = 100 * kMillisecond;
  chaos.config.fault.pressure_fraction = 0.08;
  chaos.config.audit_period = 500 * kMillisecond;
  batch.push_back(std::move(chaos));
  return batch;
}

TEST(RunnerTest, ParallelMatchesSerialBitwise) {
  const std::vector<ExperimentJob> batch = MixedBatch();
  const std::vector<ExperimentResult> serial = RunExperiments(batch, 1);
  const std::vector<ExperimentResult> parallel = RunExperiments(batch, 4);

  ASSERT_EQ(serial.size(), batch.size());
  ASSERT_EQ(parallel.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(FirstDifference(parallel[i], serial[i]), "") << "job=" << batch[i].label;
    EXPECT_FALSE(serial[i].sample_times.empty()) << batch[i].label;
  }
  // The equivalence is only meaningful if the cells are genuinely different runs.
  EXPECT_NE(serial[0].migration_commit_hash, serial[1].migration_commit_hash);
}

TEST(RunnerTest, ResultsArriveInSubmissionOrder) {
  const std::vector<ExperimentJob> batch = MixedBatch();
  const std::vector<ExperimentResult> results = RunExperiments(batch, 4);
  size_t i = 0;
  for (const auto& named : StandardPolicySet(FastGeometry())) {
    if (named.name != "Chrono" && named.name != "Linux-NB") {
      continue;
    }
    EXPECT_EQ(results[i].policy_name, named.name) << "slot " << i;
    EXPECT_EQ(results[i + 1].policy_name, named.name) << "slot " << i + 1;
    i += 2;
  }
}

TEST(RunnerTest, JobCountIsClamped) {
  std::vector<ExperimentJob> batch = MixedBatch();
  batch.resize(2);
  // 0 and negative degrade to serial; a job count far beyond the batch spawns at most one
  // thread per job. Both must produce the standard results.
  const std::vector<ExperimentResult> reference = RunExperiments(batch, 1);
  for (const int jobs : {0, -3, 64}) {
    const std::vector<ExperimentResult> results = RunExperiments(batch, jobs);
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(FirstDifference(results[i], reference[i]), "")
          << "jobs=" << jobs << " slot=" << i;
    }
  }
}

TEST(RunnerTest, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(RunExperiments({}, 8).empty());
}

TEST(RunnerTest, DefaultJobsIsPositive) { EXPECT_GE(DefaultJobs(), 1); }

}  // namespace
}  // namespace chronotier
