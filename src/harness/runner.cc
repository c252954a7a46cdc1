#include "src/harness/runner.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/harness/op_pipeline.h"

namespace chronotier {

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<ExperimentResult> RunExperiments(const std::vector<ExperimentJob>& batch,
                                             int jobs) {
  std::vector<ExperimentResult> results(batch.size());
  const auto run_one = [&](size_t index) {
    const ExperimentJob& job = batch[index];
    results[index] =
        Experiment::Run(job.config, job.make_policy, job.processes, job.inspect, job.finish);
  };

  jobs = std::min<int>(std::max(jobs, 1), static_cast<int>(batch.size()));
  // The workers beyond this thread occupy jobs - 1 cores, so machines only get a generator
  // thread from whatever spare cores remain (src/harness/op_pipeline.h).
  const ScopedCoreReservation reservation(std::max(jobs - 1, 0));
  if (jobs <= 1) {
    for (size_t i = 0; i < batch.size(); ++i) {
      run_one(i);
    }
    return results;
  }

  // Work-stealing by atomic ticket: each worker claims the next unclaimed index. Result
  // slots are disjoint, so the only shared write is the ticket counter itself.
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const size_t index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= batch.size()) {
          return;
        }
        run_one(index);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  return results;
}

}  // namespace chronotier
