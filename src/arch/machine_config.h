// Machine description: the configurable clustered-VLIW target of the paper
// (Table I plus the issue-width / inter-cluster-delay axes of Figs. 6-10).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "ir/opcode.h"

namespace casted::arch {

// One cache level of Table I.
struct CacheLevelConfig {
  std::string name;
  std::uint64_t sizeBytes = 0;
  std::uint32_t blockBytes = 0;
  std::uint32_t associativity = 0;
  std::uint32_t latency = 0;  // total access latency in cycles
};

// The three-level Itanium2 hierarchy plus main memory latency.
struct CacheConfig {
  std::array<CacheLevelConfig, 3> levels = {
      CacheLevelConfig{"L1", 16 * 1024, 64, 4, 1},
      CacheLevelConfig{"L2", 256 * 1024, 128, 8, 5},
      CacheLevelConfig{"L3", 3 * 1024 * 1024, 128, 12, 12},
  };
  std::uint32_t memoryLatency = 150;

  // Throws FatalError when a level's geometry is inconsistent (size not a
  // multiple of block*assoc, non-power-of-two blocks, non-increasing
  // latencies).
  void validate() const;
};

// Per-functional-unit-class instruction latencies ("Instruction Latencies:
// configurable" in Table I).  Memory latency here is the L1-hit latency;
// misses add stall cycles in the simulator.
struct LatencyConfig {
  std::uint32_t intAlu = 1;
  std::uint32_t intMul = 3;
  std::uint32_t intDiv = 12;
  std::uint32_t fpAlu = 4;
  std::uint32_t fpMul = 4;
  std::uint32_t fpDiv = 16;
  std::uint32_t mem = 1;
  std::uint32_t branch = 1;
  std::uint32_t call = 1;

  std::uint32_t forClass(ir::FuClass cls) const;
};

// Per-cluster register-file capacity (Table I: 64GP, 64FL, 32PR per cluster).
struct RegisterFileConfig {
  std::uint32_t gp = 64;
  std::uint32_t fp = 64;
  std::uint32_t pr = 32;

  std::uint32_t forClass(ir::RegClass cls) const;
};

// The whole machine.
struct MachineConfig {
  std::uint32_t clusterCount = 2;
  std::uint32_t issueWidth = 2;        // per cluster
  std::uint32_t interClusterDelay = 1; // extra cycles to read a remote register

  // Optional per-cluster memory-port limit; 0 means "no limit beyond the
  // issue width".  The paper's evaluation uses unconstrained slots; the
  // ablation bench restricts memory ports.  The other rules are fixed:
  // every other class may fill the issue width, and a branch closes its
  // issue cycle for the whole lockstep machine (the IA-64 "branch ends the
  // instruction group" rule), so a cycle holds at most one branch.  With
  // fused checks that only touches block terminators; with split checks
  // every trap-jump becomes a group boundary, which is what makes
  // check-dense code sequential (the paper's h263enc argument, §IV-B2).
  std::uint32_t memPortsPerCluster = 0;

  // BUG anticipated-communication penalty, as a percentage of the
  // inter-cluster delay beyond its first cycle.  A bottom-up greedy
  // assigner cannot see that a result placed off its operands' cluster
  // usually has to travel back to its consumers; this charges part of the
  // return trip up front.  Defaults to 0 (pure Algorithm 2): the
  // `ablation_bug` bench shows the placement fallback below dominates it —
  // aggressive spreading plus the per-block fallback gives both the lowest
  // mean slowdown and zero losses against the fixed schemes.
  std::uint32_t bugAnticipationPercent = 0;

  // After BUG assigns a block, also evaluate the single-cluster (SCED-like)
  // and original/redundant-split (DCED-like) placements with the
  // scheduler's cost model and keep the shortest schedule.  This makes the
  // paper's "CASTED at least matches the best performing fixed scheme"
  // claim hold by construction at block granularity: greedy bottom-up
  // assignment alone can over-spread on high-delay machines or
  // under-spread on narrow ones.  Disabled by the ablation bench.
  bool bugPlacementFallback = true;

  LatencyConfig latencies;
  RegisterFileConfig registerFile;
  CacheConfig cache;

  std::uint32_t latencyFor(ir::Opcode op) const {
    return latencies.forClass(ir::opcodeInfo(op).fuClass);
  }

  // Issue ports available to `cls` on one cluster.
  std::uint32_t portLimit(ir::FuClass cls) const;

  // Throws FatalError on inconsistent parameters.
  void validate() const;

  // e.g. "2x issue=2 delay=1" — used in experiment tables.
  std::string toString() const;
};

// The paper's default 2-cluster machine for a given (issueWidth, delay)
// evaluation point.
MachineConfig makePaperMachine(std::uint32_t issueWidth,
                               std::uint32_t interClusterDelay);

}  // namespace casted::arch
