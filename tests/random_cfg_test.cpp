// Cross-pass property tests over random structured-control-flow programs:
// for any generated program and any machine configuration, every pass
// combination must keep the observable behaviour identical to the NOED
// reference and keep the IR verifier-clean.  This is the suite most likely
// to catch interaction bugs between duplication, renaming, checks, early
// and late optimisations, spilling, assignment and scheduling.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "test_util.h"

namespace casted {
namespace {

using passes::Scheme;

struct CfgParam {
  int seed;
  std::uint32_t issueWidth;
  std::uint32_t delay;
};

class RandomCfgTest : public ::testing::TestWithParam<CfgParam> {};

TEST_P(RandomCfgTest, GeneratedProgramIsCleanAndHalts) {
  const CfgParam param = GetParam();
  const ir::Program prog = testutil::makeRandomCfgProgram(
      static_cast<std::uint64_t>(param.seed));
  EXPECT_TRUE(ir::verify(prog).empty());
  const core::CompiledProgram bin = core::compile(
      prog, testutil::machine(param.issueWidth, param.delay), Scheme::kNoed);
  const sim::RunResult result = core::run(bin);
  EXPECT_EQ(result.exit, sim::ExitKind::kHalted);
  EXPECT_EQ(result.exitCode, 0);
}

TEST_P(RandomCfgTest, AllSchemesPreserveOutput) {
  const CfgParam param = GetParam();
  const ir::Program prog = testutil::makeRandomCfgProgram(
      static_cast<std::uint64_t>(param.seed));
  const arch::MachineConfig machine =
      testutil::machine(param.issueWidth, param.delay);
  const sim::RunResult golden =
      core::run(core::compile(prog, machine, Scheme::kNoed));
  for (Scheme scheme : {Scheme::kSced, Scheme::kDced, Scheme::kCasted}) {
    const core::CompiledProgram bin = core::compile(prog, machine, scheme);
    EXPECT_TRUE(ir::verify(bin.program).empty());
    const sim::RunResult result = core::run(bin);
    EXPECT_EQ(result.output, golden.output)
        << schemeName(scheme) << " seed=" << param.seed;
    EXPECT_GE(result.stats.cycles, golden.stats.cycles);
  }
}

TEST_P(RandomCfgTest, FullPipelineWithEveryFeaturePreservesOutput) {
  const CfgParam param = GetParam();
  const ir::Program prog = testutil::makeRandomCfgProgram(
      static_cast<std::uint64_t>(param.seed), /*segments=*/5);
  const arch::MachineConfig machine =
      testutil::machine(param.issueWidth, param.delay);
  const sim::RunResult golden =
      core::run(core::compile(prog, machine, Scheme::kNoed));

  core::PipelineOptions options;
  options.errorDetection.splitChecks = true;
  options.modelRegisterPressure = true;
  options.runLateOptimisations = true;
  const core::CompiledProgram bin =
      core::compile(prog, machine, Scheme::kCasted, options);
  const sim::RunResult result = core::run(bin);
  EXPECT_EQ(result.exit, sim::ExitKind::kHalted);
  EXPECT_EQ(result.output, golden.output) << "seed=" << param.seed;
}

TEST_P(RandomCfgTest, TextualRoundTripPreservesBehaviour) {
  const CfgParam param = GetParam();
  ir::Program prog = testutil::makeRandomCfgProgram(
      static_cast<std::uint64_t>(param.seed));
  passes::applyErrorDetection(prog);
  const ir::Program reparsed = ir::parseProgram(ir::printProgram(prog));
  const arch::MachineConfig machine =
      testutil::machine(param.issueWidth, param.delay);
  const sim::RunResult a = core::run(
      core::compile(prog, machine, Scheme::kNoed));
  const sim::RunResult b = core::run(
      core::compile(reparsed, machine, Scheme::kNoed));
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.dynamicInsns, b.stats.dynamicInsns);
}

std::vector<CfgParam> cfgParams() {
  std::vector<CfgParam> params;
  for (int seed = 0; seed < 8; ++seed) {
    params.push_back({seed, 1 + static_cast<std::uint32_t>(seed % 4),
                      1 + static_cast<std::uint32_t>(seed % 3)});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCfgTest,
                         ::testing::ValuesIn(cfgParams()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace casted
