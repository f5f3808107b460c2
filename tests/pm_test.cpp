// Tests for the casted::pm layer: pipeline construction, analysis caching
// and invalidation, and the per-pass PipelineReport.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ir/builder.h"
#include "pm/analysis_manager.h"
#include "pm/pass.h"
#include "pm/pass_manager.h"
#include "support/check.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::pm {
namespace {

using passes::Scheme;

std::vector<std::string> passNames(const PassManager& manager) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < manager.passCount(); ++i) {
    names.emplace_back(manager.pass(i).name());
  }
  return names;
}

// --- pipeline construction --------------------------------------------------

TEST(BuildPipelineTest, CastedOrderMatchesPaperToolFlow) {
  const PassManager manager = core::buildPipeline(Scheme::kCasted);
  EXPECT_EQ(passNames(manager),
            (std::vector<std::string>{"early-opts", "error-detection",
                                      "local-cse", "dce", "assignment",
                                      "protection-lint"}));
}

TEST(BuildPipelineTest, NoedSkipsErrorDetection) {
  const PassManager manager = core::buildPipeline(Scheme::kNoed);
  EXPECT_EQ(passNames(manager),
            (std::vector<std::string>{"early-opts", "local-cse", "dce",
                                      "assignment", "protection-lint"}));
}

TEST(BuildPipelineTest, OptionsToggleStages) {
  core::PipelineOptions options;
  options.runLateOptimisations = false;
  options.modelRegisterPressure = true;
  const PassManager manager = core::buildPipeline(Scheme::kSced, options);
  EXPECT_EQ(passNames(manager),
            (std::vector<std::string>{"early-opts", "error-detection",
                                      "spill", "assignment",
                                      "protection-lint"}));
}

// --- analysis caching -------------------------------------------------------

TEST(AnalysisManagerTest, RepeatedQueriesHitTheCache) {
  const ir::Program prog = testutil::makeLoopProgram(4);
  const arch::MachineConfig config = testutil::machine(2, 1);
  AnalysisManager am(config);
  const ir::Function& fn = prog.function(0);

  am.dataFlowGraph(fn, 0);
  am.liveness(fn);
  EXPECT_EQ(am.hits(), 0u);
  EXPECT_EQ(am.misses(), 2u);

  am.dataFlowGraph(fn, 0);
  am.liveness(fn);
  EXPECT_EQ(am.hits(), 2u);
  EXPECT_EQ(am.misses(), 2u);

  am.dataFlowGraph(fn, 1);  // different block: its own miss
  EXPECT_EQ(am.misses(), 3u);
}

TEST(AnalysisManagerTest, InvalidateFunctionDropsItsAnalyses) {
  const ir::Program prog = testutil::makeLoopProgram(4);
  AnalysisManager am(testutil::machine(2, 1));
  const ir::Function& fn = prog.function(0);
  am.dataFlowGraph(fn, 0);
  am.invalidateFunction(fn);
  EXPECT_EQ(am.invalidations(), 1u);
  am.dataFlowGraph(fn, 0);
  EXPECT_EQ(am.hits(), 0u);
  EXPECT_EQ(am.misses(), 2u);
}

// A pass that reads one block DFG and declares it mutated nothing.
class ReadOnlyPass final : public Pass {
 public:
  std::string_view name() const override { return "read-only"; }
  PassResult run(ir::Program& program, AnalysisManager& am) override {
    am.dataFlowGraph(program.function(0), 0);
    PassResult result;
    result.preserved = Preserved::kAll;
    return result;
  }
};

// A pass that appends a (dead but harmless) instruction and reports kNone.
class AppendPass final : public Pass {
 public:
  std::string_view name() const override { return "append"; }
  PassResult run(ir::Program& program, AnalysisManager&) override {
    ir::Function& fn = program.function(0);
    auto& insns = fn.block(0).insns();
    ir::Instruction nop;
    nop.op = ir::Opcode::kMovImm;
    nop.id = fn.newInsnId();
    nop.defs = {fn.newReg(ir::RegClass::kGp)};
    nop.imm = 0;
    insns.insert(insns.end() - 1, nop);
    return {};  // Preserved::kNone
  }
};

TEST(PassManagerTest, PreservingPassKeepsCacheMutatingPassDropsIt) {
  ir::Program prog = testutil::makeTinyProgram();
  AnalysisManager am(testutil::machine(2, 1));

  PassManager keeps;
  keeps.emplacePass<ReadOnlyPass>();
  keeps.emplacePass<ReadOnlyPass>();
  keeps.run(prog, am);
  // Second pass re-reads the graph the first one built.
  EXPECT_EQ(am.misses(), 1u);
  EXPECT_EQ(am.hits(), 1u);
  EXPECT_EQ(am.invalidations(), 0u);

  PassManager drops;
  drops.emplacePass<AppendPass>();
  drops.emplacePass<ReadOnlyPass>();
  drops.run(prog, am);
  // The mutation invalidated everything; the reader rebuilt from scratch.
  EXPECT_GE(am.invalidations(), 1u);
  EXPECT_EQ(am.misses(), 2u);
}

TEST(PassManagerTest, SchedulerReusesAssignmentDfgsThroughSharedManager) {
  // The flagship reuse: cluster assignment (BUG) walks every block DFG and
  // only writes `cluster` fields, so the list scheduler right after gets
  // every graph as a cache hit.
  const workloads::Workload wl = workloads::makeH263dec(1);
  const core::CompiledProgram bin = core::compile(
      wl.program, testutil::machine(2, 1), Scheme::kCasted);
  EXPECT_GT(bin.report.analysisHits, 0u);
  const PassReport* assignment = bin.report.find("assignment");
  ASSERT_NE(assignment, nullptr);
  EXPECT_TRUE(assignment->preservedAnalyses);
}

// --- the report -------------------------------------------------------------

TEST(PipelineReportTest, DeltasSumToObservedCodeGrowth) {
  const workloads::Workload wl = workloads::makeH263dec(1);
  const std::size_t sourceInsns = wl.program.insnCount();
  const core::CompiledProgram bin = core::compile(
      wl.program, testutil::machine(2, 1), Scheme::kSced);

  EXPECT_EQ(bin.report.sourceInsns, sourceInsns);
  EXPECT_EQ(bin.report.finalInsns, bin.program.insnCount());
  EXPECT_EQ(bin.report.totalInsnDelta(),
            static_cast<std::int64_t>(bin.report.finalInsns) -
                static_cast<std::int64_t>(bin.report.sourceInsns));
  // Per-pass deltas reproduce the paper's ~2.4x growth (§IV-C).
  const double growth =
      static_cast<double>(bin.report.finalInsns) /
      static_cast<double>(bin.report.sourceInsns);
  EXPECT_GT(growth, 1.7);
  EXPECT_LT(growth, 3.0);
  // Replication is where the growth comes from.
  const PassReport* ed = bin.report.find("error-detection");
  ASSERT_NE(ed, nullptr);
  EXPECT_GT(ed->insnDelta, 0);
}

TEST(PipelineReportTest, AbsentPassReportsZeroStats) {
  const core::CompiledProgram bin =
      core::compile(testutil::makeTinyProgram(), testutil::machine(2, 1),
                    Scheme::kNoed);
  EXPECT_EQ(bin.report.find("error-detection"), nullptr);
  EXPECT_EQ(bin.report.stat("error-detection", "checks"), 0u);
  EXPECT_EQ(bin.report.stat("assignment", "no-such-key"), 0u);
}

TEST(PipelineReportTest, ToStringListsEveryPass) {
  const core::CompiledProgram bin =
      core::compile(testutil::makeTinyProgram(), testutil::machine(2, 1),
                    Scheme::kCasted);
  const std::string text = bin.report.toString();
  for (const PassReport& pass : bin.report.passes) {
    EXPECT_NE(text.find(pass.pass), std::string::npos) << pass.pass;
  }
}

// --- post-pass verification -------------------------------------------------

// A pass that removes the terminator of block 0 — invalid IR.
class CorruptingPass final : public Pass {
 public:
  std::string_view name() const override { return "corrupt"; }
  PassResult run(ir::Program& program, AnalysisManager&) override {
    program.function(0).block(0).insns().pop_back();
    return {};
  }
};

TEST(PassManagerTest, VerifyAfterPassThrowsOnCorruptedIr) {
  ir::Program prog = testutil::makeTinyProgram();
  AnalysisManager am(testutil::machine(2, 1));
  PassManager manager({.verifyAfterEachPass = true});
  manager.emplacePass<CorruptingPass>();
  EXPECT_THROW(manager.run(prog, am), FatalError);
}

TEST(PassManagerTest, VerificationCanBeDisabled) {
  ir::Program prog = testutil::makeTinyProgram();
  AnalysisManager am(testutil::machine(2, 1));
  PassManager manager({.verifyAfterEachPass = false});
  manager.emplacePass<CorruptingPass>();
  EXPECT_NO_THROW(manager.run(prog, am));
}

}  // namespace
}  // namespace casted::pm
