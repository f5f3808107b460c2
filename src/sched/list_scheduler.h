// Cluster-aware list scheduler.
//
// Classic priority list scheduling over the block DFG, honouring the cluster
// already assigned to each instruction by the assignment pass (SCED, DCED or
// BUG).  The operand-ready model prices cross-cluster register communication:
// a consumer on a different cluster than a data-edge producer waits an extra
// `interClusterDelay` cycles (paper §III-A — remote register-file reads go
// through the interconnect).  Guard/memory/ordering edges carry no cross-
// cluster penalty: control and memory are shared in the lockstep machine.
#pragma once

#include "arch/machine_config.h"
#include "dfg/dfg.h"
#include "pm/analysis_manager.h"
#include "sched/schedule.h"

namespace casted::sched {

// Schedules one block.  Every instruction's `cluster` field must be a valid
// cluster index in `config`.  The block's last instruction, its terminator,
// is placed after all others and issues in the block's last issue cycle.
BlockSchedule scheduleBlock(const dfg::DataFlowGraph& graph,
                            const arch::MachineConfig& config);

// Schedules every block of `fn`.  With `am`, block DFGs come from the
// manager's cache (typically warm from the assignment pass, which preserves
// them) instead of being rebuilt.
FunctionSchedule scheduleFunction(const ir::Function& fn,
                                  const arch::MachineConfig& config,
                                  pm::AnalysisManager* am = nullptr);

// Schedules every function of `program`.
ProgramSchedule scheduleProgram(const ir::Program& program,
                                const arch::MachineConfig& config,
                                pm::AnalysisManager* am = nullptr);

// The operand-ready helper shared with BUG's completion-cycle heuristic:
// earliest cycle `node` could issue on `cluster`, given issue cycles and
// clusters of its already-placed predecessors.
std::uint32_t operandReadyCycle(const dfg::DataFlowGraph& graph,
                                std::uint32_t node, std::uint32_t cluster,
                                const std::vector<std::uint32_t>& issueCycle,
                                const std::vector<std::uint32_t>& clusterOf,
                                std::uint32_t interClusterDelay);

}  // namespace casted::sched
