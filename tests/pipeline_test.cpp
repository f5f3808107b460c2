// End-to-end pipeline tests, including the paper's motivating examples
// (Figs. 2 and 3) and the headline adaptivity property.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::core {
namespace {

using passes::Scheme;

std::uint64_t cyclesFor(const ir::Program& prog,
                        const arch::MachineConfig& config, Scheme scheme) {
  const CompiledProgram bin = compile(prog, config, scheme);
  const sim::RunResult result = run(bin);
  EXPECT_EQ(result.exit, sim::ExitKind::kHalted);
  return result.stats.cycles;
}

TEST(PipelineTest, CompileProducesVerifiedProgramAndSchedule) {
  const ir::Program prog = testutil::makeTinyProgram();
  const CompiledProgram bin =
      compile(prog, testutil::machine(2, 1), Scheme::kCasted);
  EXPECT_TRUE(ir::verify(bin.program).empty());
  EXPECT_EQ(bin.schedule.functions.size(), bin.program.functionCount());
  EXPECT_GT(bin.report.stat("error-detection", "replicated"), 0u);
  EXPECT_GT(bin.report.stat("error-detection", "checks"), 0u);
}

TEST(PipelineTest, SourceProgramNotModified) {
  const ir::Program prog = testutil::makeTinyProgram();
  const std::size_t before = prog.insnCount();
  compile(prog, testutil::machine(2, 1), Scheme::kCasted);
  EXPECT_EQ(prog.insnCount(), before);
}

TEST(PipelineTest, NoedSkipsErrorDetection) {
  const ir::Program prog = testutil::makeTinyProgram();
  const CompiledProgram bin =
      compile(prog, testutil::machine(2, 1), Scheme::kNoed);
  EXPECT_EQ(bin.report.find("error-detection"), nullptr);
  EXPECT_EQ(bin.report.stat("error-detection", "replicated"), 0u);
  EXPECT_EQ(bin.report.stat("assignment", "off-cluster0"), 0u);
}

TEST(PipelineTest, CodeGrowthNearPaperFactor) {
  // Paper §IV-C: error-detection binaries are ~2.4x the original on
  // average.
  const workloads::Workload wl = workloads::makeH263dec(1);
  const std::size_t sourceInsns = wl.program.insnCount();
  const CompiledProgram bin =
      compile(wl.program, testutil::machine(2, 1), Scheme::kSced);
  const double growth = bin.codeGrowth(sourceInsns);
  EXPECT_GT(growth, 1.7);
  EXPECT_LT(growth, 3.0);
}

TEST(PipelineTest, ErrorDetectionPreservesSemanticsUnderAllConfigs) {
  const ir::Program prog = testutil::makeRandomStraightLine(55, 60);
  const CompiledProgram golden =
      compile(prog, testutil::machine(2, 1), Scheme::kNoed);
  const sim::RunResult goldenRun = run(golden);
  for (std::uint32_t iw : {1u, 2u, 4u}) {
    for (std::uint32_t delay : {1u, 3u}) {
      for (Scheme scheme :
           {Scheme::kSced, Scheme::kDced, Scheme::kCasted}) {
        const CompiledProgram bin =
            compile(prog, testutil::machine(iw, delay), scheme);
        const sim::RunResult result = run(bin);
        EXPECT_EQ(result.output, goldenRun.output)
            << schemeName(scheme) << " iw=" << iw << " d=" << delay;
      }
    }
  }
}

TEST(PipelineTest, ProtectedSchemesDifferOnlyInClusters) {
  // SCED, DCED and CASTED run the same passes up to the cluster assignment,
  // so their binaries hold the same instruction stream, (op, defs, uses,
  // imm) for (op, defs, uses, imm), and differ only in `cluster`.  Their
  // faulty runs are therefore functionally identical; only cycle counts,
  // and through them the timeout verdict, can differ (EXPERIMENTS.md,
  // Figs. 9 and 10).  Every workload at issue 1-4 x delay 1-4.
  for (const workloads::Workload& wl : workloads::makeAllWorkloads(1)) {
    for (std::uint32_t issue = 1; issue <= 4; ++issue) {
      for (std::uint32_t delay = 1; delay <= 4; ++delay) {
        const arch::MachineConfig config = testutil::machine(issue, delay);
        const CompiledProgram sced =
            compile(wl.program, config, Scheme::kSced);
        for (const Scheme scheme : {Scheme::kDced, Scheme::kCasted}) {
          const CompiledProgram other = compile(wl.program, config, scheme);
          const std::string context =
              wl.name + " " + passes::schemeName(scheme) + " issue " +
              std::to_string(issue) + " delay " + std::to_string(delay);
          ASSERT_EQ(other.program.functionCount(),
                    sced.program.functionCount())
              << context;
          for (ir::FuncId f = 0; f < sced.program.functionCount(); ++f) {
            const ir::Function& a = sced.program.function(f);
            const ir::Function& b = other.program.function(f);
            ASSERT_EQ(a.blockCount(), b.blockCount()) << context;
            for (ir::BlockId blk = 0; blk < a.blockCount(); ++blk) {
              const auto& x = a.block(blk).insns();
              const auto& y = b.block(blk).insns();
              ASSERT_EQ(x.size(), y.size()) << context << " @" << a.name();
              for (std::size_t i = 0; i < x.size(); ++i) {
                ASSERT_TRUE(x[i].op == y[i].op && x[i].defs == y[i].defs &&
                            x[i].uses == y[i].uses && x[i].imm == y[i].imm)
                    << context << " @" << a.name() << " bb" << blk
                    << " insn " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(PipelineTest, VerifyCanBeDisabledForSpeed) {
  PipelineOptions options;
  options.verifyAfterPasses = false;
  const CompiledProgram bin = compile(testutil::makeTinyProgram(),
                                      testutil::machine(2, 1),
                                      Scheme::kCasted, options);
  EXPECT_GT(bin.program.insnCount(), 0u);
}

// --- the paper's motivating examples -----------------------------------------

// The DFG of Figs. 2/3: A, B, C feed D; D feeds the (non-replicated) store.
ir::Program motivatingProgram() {
  ir::Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  ir::IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const ir::Reg base = b.movImm(
      static_cast<std::int64_t>(prog.symbol("output").address));
  const ir::Reg a = b.addImm(base, 3);   // A
  const ir::Reg c1 = b.addImm(base, 5);  // B
  const ir::Reg c2 = b.addImm(base, 7);  // C
  const ir::Reg d = b.add(b.add(a, c1), c2);  // D (two nodes)
  b.store(base, 0, d);                   // N.R. store
  b.halt(b.movImm(0));
  return prog;
}

TEST(MotivatingExampleTest, Fig2NarrowMachineDcedBeatsSced) {
  // Example 1: single-issue clusters, delay 1.  The single core is resource
  // constrained, so DCED < SCED.
  const ir::Program prog = motivatingProgram();
  const arch::MachineConfig config = testutil::machine(1, 1);
  const std::uint64_t sced = cyclesFor(prog, config, Scheme::kSced);
  const std::uint64_t dced = cyclesFor(prog, config, Scheme::kDced);
  EXPECT_LT(dced, sced);
}

TEST(MotivatingExampleTest, Fig3WideMachineScedBeatsDced) {
  // Example 2: two-wide clusters, larger delay.  The single core absorbs
  // the redundant ILP while DCED pays communication on every check.
  const ir::Program prog = motivatingProgram();
  const arch::MachineConfig config = testutil::machine(2, 3);
  const std::uint64_t sced = cyclesFor(prog, config, Scheme::kSced);
  const std::uint64_t dced = cyclesFor(prog, config, Scheme::kDced);
  EXPECT_LT(sced, dced);
}

TEST(MotivatingExampleTest, CastedMatchesTheBestOnBothMachines) {
  const ir::Program prog = motivatingProgram();
  for (auto [iw, delay] : {std::pair{1u, 1u}, std::pair{2u, 3u}}) {
    const arch::MachineConfig config = testutil::machine(iw, delay);
    const std::uint64_t sced = cyclesFor(prog, config, Scheme::kSced);
    const std::uint64_t dced = cyclesFor(prog, config, Scheme::kDced);
    const std::uint64_t casted = cyclesFor(prog, config, Scheme::kCasted);
    EXPECT_LE(casted, std::min(sced, dced)) << "iw=" << iw << " d=" << delay;
  }
}

// --- headline adaptivity across the full grid ---------------------------------

class AdaptivityGridTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(AdaptivityGridTest, CastedAtMostBestFixedScheme) {
  const auto [name, iw, delay] = GetParam();
  const workloads::Workload wl = workloads::makeWorkload(name, 1);
  const arch::MachineConfig config = testutil::machine(iw, delay);
  const std::uint64_t sced = cyclesFor(wl.program, config, Scheme::kSced);
  const std::uint64_t dced = cyclesFor(wl.program, config, Scheme::kDced);
  const std::uint64_t casted = cyclesFor(wl.program, config, Scheme::kCasted);
  // Allow a 2% tolerance: the fallback decides on static schedule length,
  // while cycles include cache stalls.
  EXPECT_LE(static_cast<double>(casted),
            1.02 * static_cast<double>(std::min(sced, dced)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AdaptivityGridTest,
    ::testing::Combine(::testing::Values("h263dec", "h263enc", "181.mcf"),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '.') {
          c = '_';
        }
      }
      return name + "_iw" + std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param));
    });

// NOED is always the fastest (error detection cannot speed things up).
TEST(PipelineTest, SlowdownsAreAtLeastOne) {
  const workloads::Workload wl = workloads::makeH263dec(1);
  const arch::MachineConfig config = testutil::machine(2, 2);
  const std::uint64_t noed = cyclesFor(wl.program, config, Scheme::kNoed);
  for (Scheme scheme : {Scheme::kSced, Scheme::kDced, Scheme::kCasted}) {
    EXPECT_GE(cyclesFor(wl.program, config, scheme), noed);
  }
}

// Unprotected library functions reproduce the paper's residual-corruption
// observation: faults there cannot be detected.
TEST(PipelineTest, UnprotectedHelperSkipsProtection) {
  workloads::Workload wl = workloads::makeVpr(1);
  wl.program.findFunction("span")->setProtected(false);
  const CompiledProgram bin =
      compile(wl.program, testutil::machine(2, 1), Scheme::kCasted);
  EXPECT_EQ(bin.report.stat("error-detection", "skipped-unprotected"), 1u);
  // The helper kept its original size (no duplicates inside).
  const ir::Function* span = nullptr;
  for (ir::FuncId f = 0; f < bin.program.functionCount(); ++f) {
    if (bin.program.function(f).name() == "span") {
      span = &bin.program.function(f);
    }
  }
  ASSERT_NE(span, nullptr);
  for (ir::BlockId b = 0; b < span->blockCount(); ++b) {
    for (const ir::Instruction& insn : span->block(b).insns()) {
      EXPECT_EQ(insn.origin, ir::InsnOrigin::kOriginal);
    }
  }
}

}  // namespace
}  // namespace casted::core
