// Focused timing-model tests: the per-bundle miss overlap (MLP), per-frame
// memory-op addresses across a call, the branch-ends-bundle rule,
// zero-delay interconnects, and multi-point fault plans.
#include <gtest/gtest.h>

#include <cstring>

#include "passes/assignment.h"
#include "passes/error_detection.h"
#include "ir/builder.h"
#include "sched/list_scheduler.h"
#include "sched/reservation_table.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace casted::sim {
namespace {

using ir::IrBuilder;
using ir::Opcode;
using ir::Program;
using ir::Reg;

// Two independent loads from distinct cold cache lines, plus a halt.
Program twoColdLoads() {
  Program prog;
  prog.allocateGlobal("output", 8);
  prog.allocateGlobal("data", 4096);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const std::int64_t data =
      static_cast<std::int64_t>(prog.symbol("data").address);
  const Reg baseA = b.movImm(data);
  const Reg baseB = b.movImm(data + 2048);  // different L1/L2 lines
  const Reg a = b.load(baseA, 0);
  const Reg c = b.load(baseB, 0);
  b.halt(b.add(a, c));
  return prog;
}

RunResult runOn(const Program& prog, const arch::MachineConfig& config) {
  return simulate(prog, sched::scheduleProgram(prog, config), config);
}

TEST(MlpTest, SameBundleMissesOverlap) {
  const Program prog = twoColdLoads();
  // Wide cluster: both loads issue in the same cycle -> one miss charge.
  const arch::MachineConfig wide = testutil::machine(4, 1);
  const RunResult overlapped = runOn(prog, wide);
  // Single-issue: loads issue in different cycles -> two miss charges.
  const arch::MachineConfig narrow = testutil::machine(1, 1);
  const RunResult serial = runOn(prog, narrow);

  const std::uint32_t missExtra =
      wide.cache.memoryLatency - wide.latencies.mem;
  EXPECT_EQ(overlapped.stats.stallCycles, missExtra);
  EXPECT_EQ(serial.stats.stallCycles, 2u * missExtra);
}

TEST(MlpTest, SpreadingAcrossClustersBuysOverlap) {
  // Force the two loads onto different clusters at issue width 1: they can
  // share a cycle (one per cluster) and the misses overlap — CASTED's MLP
  // argument (§III-D).
  Program prog = twoColdLoads();
  auto& insns = prog.function(0).block(0).insns();
  // movi, movi, load, load, add, halt
  insns[1].cluster = 1;
  insns[3].cluster = 1;
  const arch::MachineConfig config = testutil::machine(1, 1);
  const RunResult spread = runOn(prog, config);
  const std::uint32_t missExtra =
      config.cache.memoryLatency - config.latencies.mem;
  EXPECT_EQ(spread.stats.stallCycles, missExtra);
}

// The caller's block loads from A and then calls a callee whose block loads
// from B; both loads sit at node 1 of their blocks.  Each block is charged
// with its own frame's addresses, so the caller's load misses on A after
// the callee's miss on B.
TEST(BlockTimingTest, CallerBlockChargesItsOwnAddressesAfterACall) {
  Program prog;
  prog.allocateGlobal("output", 8);
  prog.allocateGlobal("data", 4096);
  const std::int64_t data =
      static_cast<std::int64_t>(prog.symbol("data").address);
  ir::Function& callee = prog.addFunction("f");
  const Reg base = callee.newReg(ir::RegClass::kGp);
  callee.params().push_back(base);
  {
    IrBuilder b(callee);
    b.setBlock(b.createBlock("body"));
    b.load(b.addImm(base, 0), 0);
    b.ret({});
  }
  ir::Function& main = prog.addFunction("main");
  prog.setEntryFunction(main.id());
  IrBuilder b(main);
  b.setBlock(b.createBlock("entry"));
  const Reg a = b.load(b.movImm(data), 0);
  b.call(callee, {b.movImm(data + 2048)});  // a different L1/L2/L3 line
  b.halt(a);

  const arch::MachineConfig config = testutil::machine(2, 1);
  const std::uint32_t missExtra =
      config.cache.memoryLatency - config.latencies.mem;
  for (const Engine engine : {Engine::kDecoded, Engine::kReference}) {
    SCOPED_TRACE(engineName(engine));
    SimOptions options;
    options.engine = engine;
    const RunResult result = simulate(
        prog, sched::scheduleProgram(prog, config), config, options);
    ASSERT_EQ(result.exit, ExitKind::kHalted);
    EXPECT_EQ(result.stats.memoryAccesses, 2u);
    EXPECT_EQ(result.stats.cacheLevel[0].misses, 2u);
    EXPECT_EQ(result.stats.cacheLevel[0].hits, 0u);
    EXPECT_EQ(result.stats.stallCycles, 2u * missExtra);
  }
}

TEST(BundleCloseTest, BranchEndsTheMachineWord) {
  // A branch closes its issue cycle on every cluster: once the terminator's
  // slot is taken, nothing else issues in that cycle.
  const arch::MachineConfig closed = testutil::machine(4, 1);
  sched::ReservationTable table(closed);
  table.reserve(0, 2, ir::FuClass::kIntAlu);
  table.reserve(0, 2, ir::FuClass::kBranch);
  for (std::uint32_t cluster = 0; cluster < closed.clusterCount; ++cluster) {
    EXPECT_FALSE(table.canIssue(cluster, 2, ir::FuClass::kIntAlu));
    EXPECT_EQ(table.earliestIssue(cluster, 2, ir::FuClass::kIntAlu), 3u);
  }
}

TEST(ZeroDelayTest, FreeInterconnectMakesSpreadingFree) {
  // delay 0: cross-cluster reads cost nothing, so DCED matches SCED's
  // semantics with strictly more resources.
  const Program prog = testutil::makeRandomStraightLine(3, 40);
  arch::MachineConfig config = testutil::machine(1, 1);
  config.interClusterDelay = 0;
  ir::Program protectedProg = prog;
  ::casted::passes::applyErrorDetection(protectedProg);
  ir::Program dced = protectedProg;
  ir::Program sced = protectedProg;
  ::casted::passes::assignClusters(dced, config, ::casted::passes::Scheme::kDced);
  ::casted::passes::assignClusters(sced, config, ::casted::passes::Scheme::kSced);
  const RunResult dcedRun = runOn(dced, config);
  const RunResult scedRun = runOn(sced, config);
  EXPECT_LE(dcedRun.stats.cycles, scedRun.stats.cycles);
}

TEST(FaultPlanTest, MultiplePointsAllApplied) {
  Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 24);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base = b.movImm(static_cast<std::int64_t>(out));  // ordinal 0
  const Reg a = b.movImm(10);                                 // ordinal 1
  const Reg c = b.movImm(20);                                 // ordinal 2
  b.store(base, 0, a);
  b.store(base, 8, c);
  b.halt(b.movImm(0));

  FaultPlan plan;
  plan.points.push_back({1, 0, 0});  // 10 ^ 1 = 11
  plan.points.push_back({2, 0, 1});  // 20 ^ 2 = 22
  SimOptions options;
  options.faultPlan = &plan;
  const arch::MachineConfig config = testutil::machine(2, 1);
  const RunResult result =
      simulate(prog, sched::scheduleProgram(prog, config), config, options);
  ASSERT_EQ(result.exit, ExitKind::kHalted);
  std::int64_t w0 = 0;
  std::int64_t w1 = 0;
  std::memcpy(&w0, result.output.data(), 8);
  std::memcpy(&w1, result.output.data() + 8, 8);
  EXPECT_EQ(w0, 11);
  EXPECT_EQ(w1, 22);
}

TEST(FaultPlanTest, OrdinalBeyondRunIsIgnored) {
  const Program prog = testutil::makeLoopProgram(3);
  FaultPlan plan;
  plan.points.push_back({1000000, 0, 0});
  SimOptions options;
  options.faultPlan = &plan;
  const arch::MachineConfig config = testutil::machine(2, 1);
  const RunResult faulty =
      simulate(prog, sched::scheduleProgram(prog, config), config, options);
  const RunResult golden =
      simulate(prog, sched::scheduleProgram(prog, config), config);
  EXPECT_EQ(faulty.output, golden.output);
}

}  // namespace
}  // namespace casted::sim
