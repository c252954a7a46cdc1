// Pipelined workload generation: one generator thread per Machine fills op batches for its
// self-contained streams (AccessStream::SelfContained) ahead of replay.
//
// Each lane is a ring of batch slots for one workload binding, consumed by the replay
// thread. Every slot is filled by exactly one FillBatch(rng, slot, batch_ops) call, in slot
// order, and filling stops after the first short (or throwing) fill — the call sequence
// in-thread replay makes, only earlier. The replay thread's refill takes the next slot
// instead of calling FillBatch, so the op at every ordinal, and hence every result, is the
// one in-thread replay produces. Fills normally run on the generator thread; when the
// replay thread finds its ring empty and the generator busy elsewhere, it runs the fill
// itself rather than idle. A per-lane flag keeps fills one at a time and in order.
//
// Exceptions: a fill that throws stores the exception in its slot and ends the lane; Take()
// rethrows it when replay reaches that slot, the same op ordinal at which in-thread replay
// would have thrown. The generator thread runs under a ScopedCheckCapture, so a failed CHECK
// in a stream travels the same way and aborts on the replay thread, not earlier.
//
// Waiting: when every ring is full the generator spins about one batch's replay, then
// parks (atomic wait) and is woken once a ring is half drained; the replay thread spins
// about one fill while the generator is mid-fill on the lane it needs, then parks until
// that slot is published. A side notifies only when the other is parked, so while both
// are busy no batch costs a futex call.
//
// Core budget: pipelines run on spare host cores, counted process-wide. The count starts
// at DefaultJobs() - 1; RunExperiments reserves jobs - 1 of them while its workers run, and
// a Machine claims one at its first Run or stays in-thread. So a runner that fills the
// cores leaves every machine in-thread, and a lone machine gets a second core.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/workloads/workload.h"

namespace chronotier {

class OpPipeline {
 public:
  // Returns a pipeline holding one spare core, or nullptr when the budget has none or
  // `batch_ops` is too small to amortize a cross-thread handoff per batch (a
  // ScopedPipelineOverride decides instead while one is alive). Lanes are added, then
  // Start() launches the thread.
  static std::unique_ptr<OpPipeline> Claim(size_t batch_ops);

  // A pipeline outside the budget (holds no core); Machine goes through Claim().
  explicit OpPipeline(size_t batch_ops);

  // Stops, wakes and joins the generator thread, then returns the core. Streams handed to
  // AddLane must outlive this.
  ~OpPipeline();

  OpPipeline(const OpPipeline&) = delete;
  OpPipeline& operator=(const OpPipeline&) = delete;

  // Registers a self-contained stream and takes over its RNG; from Start() on only the
  // pipeline's fills touch either. Returns the lane index for Take().
  size_t AddLane(AccessStream* stream, const Rng& rng);
  void Start();

  // Replay side: releases the slot taken last on `lane` and returns the next filled one,
  // pointing `*ops` at its ops. A count below batch_ops means the stream ended there; do not
  // call again after that. Rethrows the exception (or re-raises the CHECK failure) the
  // slot's fill raised.
  size_t Take(size_t lane, const MemOp** ops);

 private:
  struct Lane;

  void GeneratorMain();
  // The lane with the most free slots that is still generating and not being filled, or
  // nullptr. `*blocked` is set when a lane with a free slot is being filled by the replay
  // thread.
  Lane* NextLaneToFill(bool* blocked);
  // Runs the lane's next FillBatch into its next free slot and publishes it, unless the
  // other thread is filling the lane, the ring is full or the stream ended. Returns
  // whether it filled.
  bool TryFill(Lane& lane);
  void WakeGenerator();

  const size_t batch_ops_;
  bool holds_core_ = false;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> stop_{false};
  // Generator parking: it sleeps on `wake_epoch_`; the replay thread bumps and notifies it
  // only while `generator_sleeping_` is set.
  std::atomic<uint32_t> wake_epoch_{0};
  std::atomic<bool> generator_sleeping_{false};
  // Lane the replay thread is parked on (kNoLane when it is not); the generator notifies
  // that lane's `filled` counter only when it publishes there.
  static constexpr uint32_t kNoLane = ~0u;
  std::atomic<uint32_t> replay_waiting_on_{kNoLane};
  std::thread generator_;  // Last: it uses every member above.
};

// Test hook, the only override of the core budget: while alive, every Machine reaching its
// first Run pipelines its self-contained streams (`pipelined` = true) or keeps them
// in-thread (false), whatever the budget says. Not nestable.
class ScopedPipelineOverride {
 public:
  explicit ScopedPipelineOverride(bool pipelined);
  ~ScopedPipelineOverride();
  ScopedPipelineOverride(const ScopedPipelineOverride&) = delete;
  ScopedPipelineOverride& operator=(const ScopedPipelineOverride&) = delete;
};

// Held by RunExperiments while its worker threads run: takes `cores` out of the spare-core
// budget so machines on those workers stay in-thread.
class ScopedCoreReservation {
 public:
  explicit ScopedCoreReservation(int cores);
  ~ScopedCoreReservation();
  ScopedCoreReservation(const ScopedCoreReservation&) = delete;
  ScopedCoreReservation& operator=(const ScopedCoreReservation&) = delete;

 private:
  int cores_;
};

}  // namespace chronotier
