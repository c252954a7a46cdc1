#include "src/harness/op_pipeline.h"

#include "src/common/check.h"
#include "src/harness/runner.h"

namespace chronotier {
namespace {

// Busy rounds before a side parks. The replay thread waits out about one batch's
// generation while the generator is mid-fill on the lane it needs. The generator waits out
// about one batch's replay for a ring to free a slot: on replay-bound workloads a slot
// frees every few microseconds, and parking for each would cost the replay thread a
// futex wake every few batches (~3.5k per segmented_rw cell, against ~100 with the spin).
constexpr int kReplaySpinRounds = 256;
constexpr int kGeneratorSpinRounds = 512;
// Slots per lane: a power of two, so the slot counters may wrap.
constexpr uint32_t kSlots = 16;
// Smallest batch the budget pipelines: each slot costs a cross-core handoff of a few cache
// misses, which a batch must amortize (with an earlier spin-only wait, 7-op slots replayed
// ~3x slower than in-thread and 64-op slots ~1.6x faster).
constexpr size_t kMinBudgetBatchOps = 32;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::atomic<int>& SpareCores() {
  static std::atomic<int> spare{DefaultJobs() - 1};
  return spare;
}

enum Override : int { kBudget = 0, kForcedInThread = 1, kForcedPipelined = 2 };
std::atomic<int> g_override{kBudget};

}  // namespace

struct OpPipeline::Lane {
  Lane(uint32_t lane_index, AccessStream* lane_stream, const Rng& lane_rng, size_t batch_ops)
      : index(lane_index),
        stream(lane_stream),
        rng(lane_rng),
        ops(batch_ops * kSlots),
        counts(kSlots, 0),
        errors(kSlots) {}

  // Written only by the thread holding `filling`.
  const uint32_t index;
  AccessStream* const stream;
  Rng rng;
  std::vector<MemOp> ops;  // Slot s holds ops[s * batch_ops, (s + 1) * batch_ops).
  std::vector<size_t> counts;
  std::vector<std::exception_ptr> errors;
  // The filling side: whichever thread holds `filling` runs the next FillBatch.
  alignas(64) std::atomic<uint32_t> filled{0};  // Slots published.
  std::atomic<bool> filling{false};
  std::atomic<bool> done{false};  // The stream ended or threw; no more fills.
  // The replay side.
  alignas(64) std::atomic<uint32_t> released{0};  // Slots handed back.
  bool holding = false;                           // A taken slot awaits release.
};

std::unique_ptr<OpPipeline> OpPipeline::Claim(size_t batch_ops) {
  const int mode = g_override.load();
  bool holds_core = false;
  if (mode == kForcedInThread) {
    return nullptr;
  }
  if (mode == kBudget) {
    if (batch_ops < kMinBudgetBatchOps) {
      return nullptr;
    }
    std::atomic<int>& spare = SpareCores();
    int available = spare.load();
    while (available > 0 && !spare.compare_exchange_weak(available, available - 1)) {
    }
    if (available <= 0) {
      return nullptr;
    }
    holds_core = true;
  }
  auto pipeline = std::make_unique<OpPipeline>(batch_ops);
  pipeline->holds_core_ = holds_core;
  return pipeline;
}

OpPipeline::OpPipeline(size_t batch_ops) : batch_ops_(batch_ops) { CHECK_GE(batch_ops, 1u); }

OpPipeline::~OpPipeline() {
  if (generator_.joinable()) {
    stop_.store(true);
    wake_epoch_.fetch_add(1);
    wake_epoch_.notify_one();
    generator_.join();
  }
  if (holds_core_) {
    SpareCores().fetch_add(1);
  }
}

size_t OpPipeline::AddLane(AccessStream* stream, const Rng& rng) {
  CHECK(!generator_.joinable()) << "OpPipeline::AddLane after Start";
  CHECK(stream != nullptr && stream->SelfContained());
  lanes_.push_back(
      std::make_unique<Lane>(static_cast<uint32_t>(lanes_.size()), stream, rng, batch_ops_));
  return lanes_.size() - 1;
}

void OpPipeline::Start() {
  CHECK(!generator_.joinable()) << "OpPipeline::Start called twice";
  generator_ = std::thread([this] { GeneratorMain(); });
}

size_t OpPipeline::Take(size_t index, const MemOp** ops) {
  Lane& lane = *lanes_[index];
  uint32_t next = lane.released.load(std::memory_order_relaxed);
  if (lane.holding) {
    lane.holding = false;
    lane.released.store(++next);
    // Hysteresis: a parked generator is woken once this ring is half drained, not per slot.
    if (generator_sleeping_.load() && lane.filled.load() - next <= kSlots / 2) {
      WakeGenerator();
    }
  }
  // An empty ring: fill the slot here rather than idle, unless the generator is already
  // filling this lane; then wait for it to publish, spinning about one fill before parking.
  for (int spin = 0; lane.filled.load(std::memory_order_acquire) == next; ++spin) {
    if (TryFill(lane)) {
      continue;
    }
    if (spin < kReplaySpinRounds) {
      CpuRelax();
      continue;
    }
    replay_waiting_on_.store(lane.index);
    if (lane.filled.load() == next && lane.filling.load()) {
      lane.filled.wait(next, std::memory_order_acquire);
    }
    replay_waiting_on_.store(kNoLane, std::memory_order_relaxed);
  }
  lane.holding = true;
  const uint32_t slot = next & (kSlots - 1);
  if (lane.errors[slot]) {
    try {
      std::rethrow_exception(lane.errors[slot]);
    } catch (const CheckFailedError& failure) {
      failure.Raise();
    }
  }
  *ops = &lane.ops[slot * batch_ops_];
  return lane.counts[slot];
}

void OpPipeline::WakeGenerator() {
  if (generator_sleeping_.exchange(false)) {
    wake_epoch_.fetch_add(1);
    wake_epoch_.notify_one();
  }
}

OpPipeline::Lane* OpPipeline::NextLaneToFill(bool* blocked) {
  Lane* best = nullptr;
  uint32_t best_free = 0;
  *blocked = false;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->done.load(std::memory_order_relaxed)) {
      continue;
    }
    const uint32_t free = kSlots - (lane->filled.load() - lane->released.load());
    if (free == 0) {
      continue;
    }
    if (lane->filling.load(std::memory_order_relaxed)) {
      *blocked = true;
    } else if (free > best_free) {
      best = lane.get();
      best_free = free;
    }
  }
  return best;
}

bool OpPipeline::TryFill(Lane& lane) {
  if (lane.filling.exchange(true, std::memory_order_acquire)) {
    return false;
  }
  const uint32_t filled = lane.filled.load(std::memory_order_relaxed);
  const bool fill = !lane.done.load(std::memory_order_relaxed) &&
                    filled - lane.released.load() < kSlots;
  if (fill) {
    const uint32_t slot = filled & (kSlots - 1);
    try {
      lane.counts[slot] =
          lane.stream->FillBatch(lane.rng, &lane.ops[slot * batch_ops_], batch_ops_);
      lane.done.store(lane.counts[slot] < batch_ops_, std::memory_order_relaxed);
    } catch (...) {
      lane.errors[slot] = std::current_exception();
      lane.done.store(true, std::memory_order_relaxed);
    }
    lane.filled.store(filled + 1);
    if (replay_waiting_on_.load() == lane.index) {
      lane.filled.notify_one();
    }
  }
  lane.filling.store(false, std::memory_order_release);
  return fill;
}

void OpPipeline::GeneratorMain() {
  const internal::ScopedCheckCapture capture;
  bool blocked = false;
  int idle = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (Lane* lane = NextLaneToFill(&blocked)) {
      TryFill(*lane);
      idle = 0;
      continue;
    }
    // While the replay thread is mid-fill on a lane with room, the slot after it is ours:
    // wait out that one fill instead of parking and being woken for it.
    if (blocked || ++idle < kGeneratorSpinRounds) {
      CpuRelax();
      continue;
    }
    const uint32_t epoch = wake_epoch_.load();
    generator_sleeping_.store(true);
    if (NextLaneToFill(&blocked) == nullptr && !blocked && !stop_.load()) {
      wake_epoch_.wait(epoch);
    }
    generator_sleeping_.store(false);
    idle = 0;
  }
}

ScopedPipelineOverride::ScopedPipelineOverride(bool pipelined) {
  const int previous = g_override.exchange(pipelined ? kForcedPipelined : kForcedInThread);
  CHECK_EQ(previous, static_cast<int>(kBudget)) << "ScopedPipelineOverride does not nest";
}

ScopedPipelineOverride::~ScopedPipelineOverride() { g_override.store(kBudget); }

ScopedCoreReservation::ScopedCoreReservation(int cores) : cores_(cores) {
  SpareCores().fetch_sub(cores_);
}

ScopedCoreReservation::~ScopedCoreReservation() { SpareCores().fetch_add(cores_); }

}  // namespace chronotier
