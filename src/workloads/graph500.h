// Graph500-style macro-benchmark: Kronecker (R-MAT) graph generation plus BFS and SSSP
// kernels whose memory references are issued into the simulated address space.
//
// The graph structure (CSR arrays, distance/parent arrays) is laid out in the process's
// virtual memory exactly as a real implementation would place it; the traversal state
// machine emits one MemOp per array element touched. Vertex popularity follows the
// power-law degree distribution of the Kronecker generator, producing the mild hot/warm
// frequency gradient the paper highlights (Section 5.2).

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "src/workloads/workload.h"

namespace chronotier {

enum class GraphKernel {
  kBfs,
  kSssp,  // Bellman-Ford-style relaxation rounds (Graph500's "weighted" kernel).
};

struct Graph500Config {
  int scale = 14;           // 2^scale vertices.
  int edge_factor = 16;     // Edges per vertex.
  int num_roots = 8;        // Traversals per run (Graph500 runs 64; scaled down).
  GraphKernel kernel = GraphKernel::kBfs;
  // Compute time per memory reference (queue management, comparisons); paces the traversal
  // so tiering dynamics act while it runs.
  SimDuration per_op_think = 0;
  // R-MAT partition probabilities (Graph500 spec: A=0.57, B=0.19, C=0.19).
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
};

// In-memory CSR graph with the simulated-address layout bookkeeping.
class CsrGraph {
 public:
  // Generates the Kronecker edge list and builds the CSR (host side).
  static CsrGraph Generate(const Graph500Config& config, Rng& rng);

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return xadj_.empty() ? 0 : xadj_.back(); }

  const std::vector<uint64_t>& xadj() const { return xadj_; }
  const std::vector<uint32_t>& adjncy() const { return adjncy_; }


 private:
  uint64_t num_vertices_ = 0;
  std::vector<uint64_t> xadj_;    // num_vertices + 1 offsets.
  std::vector<uint32_t> adjncy_;  // Edge targets.
};

class Graph500Stream : public AccessStream {
 public:
  explicit Graph500Stream(Graph500Config config) : config_(config) {}

  void Init(Process& process, Rng& rng) override;
  bool Next(Rng& rng, MemOp* op) override;
  bool SelfContained() const override { return true; }

  const CsrGraph& graph() const { return *graph_; }
  int roots_completed() const { return roots_completed_; }
  uint64_t vertices_visited() const { return vertices_visited_; }

 private:
  // Virtual addresses of the mapped arrays.
  uint64_t AddrXadj(uint64_t v) const { return base_xadj_ + v * 8; }
  uint64_t AddrAdjncy(uint64_t e) const { return base_adjncy_ + e * 4; }
  uint64_t AddrDist(uint64_t v) const { return base_dist_ + v * 8; }

  void StartNextRoot(Rng& rng);

  Graph500Config config_;
  std::unique_ptr<CsrGraph> graph_;

  uint64_t base_xadj_ = 0;
  uint64_t base_adjncy_ = 0;
  uint64_t base_dist_ = 0;

  // Traversal state: the host-side kernel runs vertex-at-a-time, buffering the memory
  // references it performs; Next() replays them.
  std::deque<uint32_t> frontier_;
  std::vector<uint32_t> level_;  // Per-vertex BFS level / tentative distance (host mirror).
  std::deque<MemOp> pending_;
  bool resetting_ = false;
  uint64_t pending_reset_cursor_ = 0;
  int roots_completed_ = 0;
  uint64_t vertices_visited_ = 0;
};

}  // namespace chronotier
