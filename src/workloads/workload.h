// Workload abstraction: a stream of memory operations issued by a simulated process.

#pragma once

#include <cstdint>
#include <memory>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/vm/process.h"

namespace chronotier {

// One memory operation.
struct MemOp {
  uint64_t vaddr = 0;
  bool is_store = false;
  // Compute time spent before this access (models instruction work / artificial delay).
  SimDuration think_time = 0;
};

// A generator of MemOps bound to one process.
class AccessStream {
 public:
  virtual ~AccessStream() = default;

  // Maps the working set into the process's address space. Called exactly once, before any
  // Next() call.
  virtual void Init(Process& process, Rng& rng) = 0;

  // Produces the next operation. Returns false when the stream is exhausted (finite
  // workloads such as graph traversals); infinite workloads always return true.
  virtual bool Next(Rng& rng, MemOp* op) = 0;

  // Fills up to `max` operations into `ops` and returns how many were produced; fewer than
  // `max` means the stream ended. The default implementation delegates to Next() in a loop,
  // so any stream is batchable and the op/RNG sequence is identical to single-stepping —
  // that equivalence is what lets Machine::RunProcessUntil replay a whole batch per quantum
  // with the virtual dispatch hoisted out of the per-op loop (the __batch1 and __batch7
  // cells of tests/equivalence_test.cc hold batched replay to the default's fingerprint).
  // Streams with cheap bulk generation may override it (PmbenchStream and TenantKvStream
  // do); an override must produce the ops a Next() loop would and leave `rng` in the same
  // state, for every batch size and stream end. tests/generator_batch_test.cc
  // (GeneratorBatchTest) enforces this per override.
  virtual size_t FillBatch(Rng& rng, MemOp* ops, size_t max) {
    size_t produced = 0;
    while (produced < max && Next(rng, &ops[produced])) {
      ++produced;
    }
    return produced;
  }

  // The self-contained contract: true promises that Next() and FillBatch() read and write
  // only this stream's own members and the `rng` passed in — no pointer to anything the
  // caller or another stream can see, no static state. Such a stream may be generated on
  // another thread, ahead of replay (src/harness/op_pipeline.h): it sees the same call
  // sequence, only earlier, so results cannot change. Its cursor state (ops issued, phase)
  // then runs ahead of the simulation; what other threads may read while it runs is only
  // what Init() fixed (region geometry). Decorators that write shared state (TraceRecorder
  // appending to the caller's Trace) keep the default and stay on the replay thread.
  virtual bool SelfContained() const { return false; }
};

}  // namespace chronotier
