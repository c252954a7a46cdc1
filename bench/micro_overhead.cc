// Micro-benchmarks (google-benchmark) for the mechanisms whose low overhead the paper's
// design leans on: CIT bookkeeping is "timestamp recording and basic arithmetic", the
// candidate XArray is "low-latency access and minimal memory consumption", and the DCSC
// heat maps are simple bucket updates.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/check.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/xarray.h"
#include "src/core/candidate_filter.h"
#include "src/core/cit.h"
#include "src/core/estimator.h"
#include "src/core/promotion_queue.h"
#include "src/migration/migration_engine.h"
#include "src/sim/event_queue.h"
#include "src/vm/address_space.h"
#include "src/vm/scanner.h"

namespace ct = chronotier;

// Global allocation counter: every `new` in the binary routes through here, so a
// benchmark can assert a region of code is allocation-free (the event core's contract).
// Counting is the only side effect — allocation still comes from malloc.
std::atomic<uint64_t> g_heap_allocs{0};

// These replacements pair malloc with free by design. Once GCC inlines them into a caller
// it sees `free` on memory from `operator new` and warns (-Wmismatched-new-delete), which
// is a false positive for replacement allocation functions; it is silenced for them only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

void BM_CitStampAndCompute(benchmark::State& state) {
  ct::PageInfo page;
  ct::SimTime now = 0;
  for (auto _ : state) {
    now += 7 * ct::kMillisecond;
    ct::StampScanTimestamp(page, now);
    benchmark::DoNotOptimize(ct::ComputeCitMillis(page, now + 3 * ct::kMillisecond));
  }
}
BENCHMARK(BM_CitStampAndCompute);

void BM_XArrayStoreLoadErase(benchmark::State& state) {
  ct::XArray<uint32_t> xa;
  ct::Rng rng(1);
  for (auto _ : state) {
    const uint64_t key = rng.NextBelow(1u << 20);
    xa.Store(key, 1);
    benchmark::DoNotOptimize(xa.Load(key));
    xa.Erase(key);
  }
}
BENCHMARK(BM_XArrayStoreLoadErase);

void BM_XArrayLookupDense(benchmark::State& state) {
  ct::XArray<uint32_t> xa;
  for (uint64_t i = 0; i < 4096; ++i) {
    xa.Store(0x100000 + i, static_cast<uint32_t>(i));
  }
  ct::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xa.Load(0x100000 + rng.NextBelow(4096)));
  }
}
BENCHMARK(BM_XArrayLookupDense);

void BM_CandidateFilterRound(benchmark::State& state) {
  ct::CandidateFilter filter(2);
  std::vector<ct::PageInfo> pages(1024);
  for (size_t i = 0; i < pages.size(); ++i) {
    pages[i].vpn = 0x1000 + i;
    pages[i].owner = 1;
  }
  size_t i = 0;
  for (auto _ : state) {
    ct::PageInfo& page = pages[i++ & 1023];
    benchmark::DoNotOptimize(filter.RecordQualifyingCit(page, 5));
  }
}
BENCHMARK(BM_CandidateFilterRound);

void BM_PromotionQueue(benchmark::State& state) {
  ct::PromotionQueue queue;
  std::vector<ct::PageInfo> pages(256);
  size_t i = 0;
  for (auto _ : state) {
    ct::PageInfo& page = pages[i++ & 255];
    queue.Enqueue(page);
    benchmark::DoNotOptimize(queue.Pop());
  }
}
BENCHMARK(BM_PromotionQueue);

void BM_HeatMapAdd(benchmark::State& state) {
  ct::Log2Histogram map(28);
  ct::Rng rng(3);
  for (auto _ : state) {
    map.Add(rng.NextBelow(1u << 20));
  }
  benchmark::DoNotOptimize(map.total());
}
BENCHMARK(BM_HeatMapAdd);

void BM_ScannerChunk(benchmark::State& state) {
  ct::AddressSpace aspace(0);
  aspace.MapRegion(64ull << 20);  // 16k pages.
  ct::RangeScanner scanner(&aspace);
  for (auto _ : state) {
    scanner.ScanChunk(1024, [](ct::Vma&, ct::PageInfo& unit) { unit.Set(ct::kPageProtNone); });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ScannerChunk);

void BM_ReservoirAdd(benchmark::State& state) {
  ct::ReservoirSampler sampler(65536);
  double x = 0;
  for (auto _ : state) {
    sampler.Add(x += 1.0);
  }
}
BENCHMARK(BM_ReservoirAdd);

void BM_RngGaussian(benchmark::State& state) {
  ct::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextGaussian());
  }
}
BENCHMARK(BM_RngGaussian);

void BM_SelectionEfficiencyNumeric(benchmark::State& state) {
  const ct::HotnessDensity h(0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ct::SelectionEfficiency([&h](double x) { return h(x); }, 2, 64.0));
  }
}
BENCHMARK(BM_SelectionEfficiencyNumeric);

// --- Event queue ---

// Cost of one periodic firing (re-arm + dispatch). The queue used to deep-copy the
// callback's captures on every firing; it now moves the stored std::function out and back,
// so this should be flat in the capture size (see BM_PeriodicRearmLargeCapture).
void BM_PeriodicRearm(benchmark::State& state) {
  ct::EventQueue queue;
  uint64_t fired = 0;
  queue.SchedulePeriodic(ct::kMillisecond, [&fired](ct::SimTime) { ++fired; });
  for (auto _ : state) {
    queue.RunNext();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_PeriodicRearm);

// Same, but the callback's captures exceed std::function's small-buffer optimization —
// with per-firing copies this heap-allocated every tick; with move re-arm it never does.
void BM_PeriodicRearmLargeCapture(benchmark::State& state) {
  ct::EventQueue queue;
  uint64_t fired = 0;
  std::array<uint64_t, 16> payload{};  // 128 B: safely past any SBO inline buffer.
  queue.SchedulePeriodic(ct::kMillisecond, [&fired, payload](ct::SimTime) {
    fired += payload[0] + 1;
  });
  for (auto _ : state) {
    queue.RunNext();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_PeriodicRearmLargeCapture);

// One-shot schedule + dispatch, the other high-frequency queue pattern (migration
// completions, fault windows).
void BM_OneShotScheduleAndRun(benchmark::State& state) {
  ct::EventQueue queue;
  uint64_t fired = 0;
  for (auto _ : state) {
    queue.ScheduleAfter(ct::kMillisecond, [&fired](ct::SimTime) { ++fired; });
    queue.RunNext();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_OneShotScheduleAndRun);

// Cancel cost as the pending-event count grows. The slot-map queue cancels by slot
// index — O(1) — so the per-cancel time must stay flat across the Arg sweep (the old
// queue linear-scanned a callbacks vector, making this O(pending)).
void BM_EventCancelVsPending(benchmark::State& state) {
  ct::EventQueue queue;
  const int64_t pending = state.range(0);
  for (int64_t i = 0; i < pending; ++i) {
    queue.ScheduleAt(ct::kSecond + static_cast<ct::SimTime>(i), [](ct::SimTime) {});
  }
  for (auto _ : state) {
    const ct::EventId id =
        queue.ScheduleAt(ct::kMillisecond, [](ct::SimTime) {});
    benchmark::DoNotOptimize(queue.Cancel(id));
    // The cancelled entry sorts before every pending event, so this purge pops exactly
    // it — the heap stays at `pending` entries instead of growing per iteration.
    benchmark::DoNotOptimize(queue.NextEventTime());
  }
  state.counters["pending"] = static_cast<double>(pending);
}
BENCHMARK(BM_EventCancelVsPending)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

// The event core's allocation contract: after warmup (slot map and heap at capacity),
// scheduling and firing an event performs zero heap allocations — the callback lands in
// the InlineFunction buffer and the slot is recycled off the free list. CHECK-enforced:
// a regression aborts the bench run, it does not just shift a number.
void BM_EventScheduleAllocationFree(benchmark::State& state) {
  ct::EventQueue queue;
  uint64_t fired = 0;
  // Warmup: grow the slot map and heap past anything the timed loop needs.
  for (int i = 0; i < 1024; ++i) {
    queue.ScheduleAfter(ct::kMillisecond + i, [&fired](ct::SimTime) { ++fired; });
  }
  while (queue.pending() > 0) {
    queue.RunNext();
  }
  const uint64_t allocs_before = g_heap_allocs.load();
  uint64_t events = 0;
  for (auto _ : state) {
    queue.ScheduleAfter(ct::kMillisecond, [&fired](ct::SimTime) { ++fired; });
    queue.RunNext();
    ++events;
  }
  const uint64_t allocs = g_heap_allocs.load() - allocs_before;
  CHECK_EQ(allocs, uint64_t{0})
      << "event core allocated " << allocs << " time(s) over " << events
      << " scheduled events — the steady-state schedule/fire path must be heap-free";
  state.counters["allocs_per_event"] =
      events == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(events);
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_EventScheduleAllocationFree);

// --- Migration engine ---

// Minimal host for driving the engine without a full Machine: applies committed moves to
// the page metadata and swallows reclaim/kernel-time callbacks.
class BareMigrationEnv : public ct::MigrationEnv {
 public:
  BareMigrationEnv() : memory_(ct::TieredMemory::DramOptane(1u << 16)) {}

  ct::EventQueue& queue() override { return queue_; }
  ct::TieredMemory& memory() override { return memory_; }
  void ReclaimForPromotion(uint64_t) override {}
  void ApplyMigration(ct::Vma&, ct::PageInfo& unit, ct::NodeId, ct::NodeId to) override {
    unit.node = to;
  }
  void ChargeMigrationKernelTime(ct::SimDuration) override {}
  void OnPromotionRefused() override {}

  ct::EventQueue queue_;
  ct::TieredMemory memory_;
};

// Async transaction pipeline vs. write intensity. Arg = percent chance that a store lands
// mid-copy (bumping write_gen inside the copy window), forcing a dirty abort + retry.
// Counters: txns/s of engine bookkeeping, abort rate per copy pass, copy passes per commit.
void BM_MigrationEngineAsync(benchmark::State& state) {
  const double store_prob = static_cast<double>(state.range(0)) / 100.0;
  BareMigrationEnv env;
  ct::MigrationStats stats;
  ct::MigrationEngineConfig config;
  ct::MigrationEngine engine(config, &env, &stats);

  constexpr uint64_t kPages = 1024;
  ct::AddressSpace aspace(1);
  const uint64_t base_vpn = aspace.MapRegion(kPages * ct::kBasePageSize) / ct::kBasePageSize;
  ct::Vma& vma = *aspace.FindVma(base_vpn);
  env.memory_.node(ct::kSlowNode).TryAllocate(kPages);
  for (uint64_t i = 0; i < kPages; ++i) {
    ct::PageInfo& page = vma.PageAt(base_vpn + i);
    page.Set(ct::kPagePresent);
    page.node = ct::kSlowNode;
  }

  const ct::SimDuration half_copy =
      env.memory_.CostOfMigration(ct::kSlowNode, ct::kFastNode, ct::kBasePageSize).copy_time /
      2;
  ct::Rng rng(7);
  uint64_t idx = 0;
  for (auto _ : state) {
    ct::PageInfo& unit = vma.PageAt(base_vpn + (idx++ % kPages));
    const ct::NodeId target = unit.node == ct::kFastNode ? ct::kSlowNode : ct::kFastNode;
    const ct::MigrationTicket ticket =
        engine.Submit(vma, unit, target, ct::MigrationClass::kAsync,
                      ct::MigrationSource::kPolicyDaemon);
    if (ticket.admitted && rng.NextDouble() < store_prob) {
      ct::PageInfo* page = &unit;
      env.queue_.ScheduleAt(env.queue_.now() + half_copy,
                            [page](ct::SimTime) { ++page->write_gen; });
    }
    while (env.queue_.pending() > 0) {
      env.queue_.RunNext();
    }
  }

  state.SetItemsProcessed(static_cast<int64_t>(stats.TotalCommitted()));
  state.counters["txns_per_sec"] = benchmark::Counter(
      static_cast<double>(stats.TotalCommitted()), benchmark::Counter::kIsRate);
  state.counters["abort_rate"] =
      stats.copy_attempts == 0 ? 0.0
                               : static_cast<double>(stats.dirty_aborted_copies) /
                                     static_cast<double>(stats.copy_attempts);
  state.counters["attempts_per_commit"] = stats.MeanAttemptsPerCommit();
  state.counters["final_aborts"] = static_cast<double>(stats.TotalAborted());
}
BENCHMARK(BM_MigrationEngineAsync)->Arg(0)->Arg(25)->Arg(50)->Arg(95);

// Sync (fault-inline) submission: the whole transaction executes inside Submit, so this is
// the per-fault engine overhead a hint-fault promotion pays.
void BM_MigrationEngineSyncSubmit(benchmark::State& state) {
  BareMigrationEnv env;
  ct::MigrationStats stats;
  ct::MigrationEngineConfig config;
  config.sync_slack = 365ll * 24 * 3600 * ct::kSecond;  // Never refuse on backlog.
  ct::MigrationEngine engine(config, &env, &stats);

  constexpr uint64_t kPages = 1024;
  ct::AddressSpace aspace(1);
  const uint64_t base_vpn = aspace.MapRegion(kPages * ct::kBasePageSize) / ct::kBasePageSize;
  ct::Vma& vma = *aspace.FindVma(base_vpn);
  env.memory_.node(ct::kSlowNode).TryAllocate(kPages);
  for (uint64_t i = 0; i < kPages; ++i) {
    ct::PageInfo& page = vma.PageAt(base_vpn + i);
    page.Set(ct::kPagePresent);
    page.node = ct::kSlowNode;
  }

  uint64_t idx = 0;
  for (auto _ : state) {
    ct::PageInfo& unit = vma.PageAt(base_vpn + (idx++ % kPages));
    const ct::NodeId target = unit.node == ct::kFastNode ? ct::kSlowNode : ct::kFastNode;
    benchmark::DoNotOptimize(engine.Submit(vma, unit, target, ct::MigrationClass::kSync,
                                           ct::MigrationSource::kFaultPath,
                                           env.queue_.now()));
  }
  state.counters["txns_per_sec"] = benchmark::Counter(
      static_cast<double>(stats.TotalCommitted()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MigrationEngineSyncSubmit);

}  // namespace

BENCHMARK_MAIN();
