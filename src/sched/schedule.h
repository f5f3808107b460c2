// Schedule containers: the static VLIW bundle schedule the list scheduler
// produces and the timing simulator consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.h"

namespace casted::sched {

// One scheduled instruction: where and when it issues.
struct ScheduledInsn {
  std::uint32_t node = 0;     // index into the block's instruction vector
  std::uint32_t cycle = 0;    // issue cycle, relative to block start
  std::uint32_t cluster = 0;
  std::uint32_t slot = 0;     // issue slot within (cluster, cycle)
  std::uint32_t latency = 0;  // operation latency used by the scheduler
};

// Static schedule of one basic block.
struct BlockSchedule {
  std::vector<ScheduledInsn> insns;  // sorted by (cycle, cluster, slot)
  std::uint32_t length = 0;          // cycles until all results complete

  // issueCycle[node] for O(1) lookup by the simulator.
  std::vector<std::uint32_t> issueCycle;

  // Renders the bundle view used by the motivating-example bench (one row
  // per cycle, one column per cluster), e.g.
  //   cycle | cluster0        | cluster1
  //   0     | A  B            | A'
  std::string render(const ir::BasicBlock& block,
                     std::uint32_t clusterCount,
                     std::uint32_t issueWidth) const;
};

// The cache-access plan of one block: the order in which the timing walk at
// the block's end replays its memory ops through the cache, and the
// same-cycle bundles whose misses overlap (each bundle pays its worst miss).
// Order within a bundle decides LRU state, so both simulator engines charge
// a block from this one plan.
struct MemoryPlan {
  std::vector<std::uint32_t> nodes;        // memory-op nodes, access order
  std::vector<std::uint32_t> bundleSizes;  // consecutive runs of `nodes`
};

// `block`'s memory ops sorted by issue cycle (std::sort over the ops in node
// order, so ties keep whatever order that sort leaves) and partitioned into
// same-cycle bundles.
MemoryPlan memoryPlan(const ir::BasicBlock& block,
                      const BlockSchedule& schedule);

// Static schedule of a function (one BlockSchedule per block, same order).
struct FunctionSchedule {
  std::vector<BlockSchedule> blocks;

  // Total static schedule length (sum of block lengths); a rough code-size /
  // latency indicator used by tests.
  std::uint64_t totalLength() const;
};

// Whole program.
struct ProgramSchedule {
  std::vector<FunctionSchedule> functions;
};

}  // namespace casted::sched
