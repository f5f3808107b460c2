// Per-basic-block data-flow graph.
//
// This is the structure both algorithms of the paper walk: the
// ErrorDetectionPass's output is analysed through it, BUG (Algorithm 2)
// traverses it "in a topological order, giving preference to the
// instructions in the critical path", and the list scheduler consumes the
// same edges.  Edges only point forward in program order, so program order
// is a valid topological order.
//
// Edge kinds:
//   kData    RAW through a register; latency = producer latency.
//   kAnti    WAR; latency 0 (issue-order constraint).
//   kOutput  WAW; latency keeps the write times ordered.
//   kMemory  load/store ordering (after static disambiguation by base
//            register + offset range).
//   kBarrier call ordering against memory ops and other calls.
//   kGuard   CHECK -> guarded non-replicated instruction (Algorithm 1: the
//            check must complete before the store/branch/call it protects).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/machine_config.h"
#include "ir/function.h"

namespace casted::dfg {

enum class DepKind : std::uint8_t {
  kData,
  kAnti,
  kOutput,
  kMemory,
  kBarrier,
  kGuard,
};

struct Edge {
  std::uint32_t from = 0;  // node index (position in block)
  std::uint32_t to = 0;
  DepKind kind = DepKind::kData;
  std::uint32_t latency = 0;
};

class DataFlowGraph {
 public:
  // Builds the graph for `block` using `config` latencies.
  DataFlowGraph(const ir::BasicBlock& block,
                const arch::MachineConfig& config);

  std::size_t size() const { return insns_->size(); }
  const ir::Instruction& insn(std::uint32_t node) const {
    return (*insns_)[node];
  }

  const std::vector<Edge>& preds(std::uint32_t node) const {
    return preds_[node];
  }
  const std::vector<Edge>& succs(std::uint32_t node) const {
    return succs_[node];
  }

  // Longest-path distance (in cycles) from `node` to the end of the block,
  // inclusive of the node's own latency — the list-scheduling priority.
  std::uint32_t height(std::uint32_t node) const { return heights_[node]; }

  // Critical-path length of the whole block (max height).
  std::uint32_t criticalPathLength() const;

  // Node indices sorted by decreasing height; ties resolved by program
  // order.  This is both BUG's visit preference and the scheduler's ready-
  // list priority.
  std::vector<std::uint32_t> priorityOrder() const;

 private:
  void addEdge(std::uint32_t from, std::uint32_t to, DepKind kind,
               std::uint32_t latency);
  void buildEdges(const arch::MachineConfig& config);
  void computeHeights();

  const std::vector<ir::Instruction>* insns_;
  std::vector<std::vector<Edge>> preds_;
  std::vector<std::vector<Edge>> succs_;
  std::vector<std::uint32_t> heights_;
};

}  // namespace casted::dfg
