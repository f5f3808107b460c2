// Semantics-preservation properties of the compilation pipeline:
//
//   * printer/parser round trip — parseProgram(printProgram(p)) prints back
//     to the identical text, both for source programs and for fully
//     transformed binaries (error detection, spilling, cluster assignment);
//   * scheme equivalence — in the absence of faults, every error-detection
//     scheme (SCED, DCED, CASTED/BUG) computes exactly the architectural
//     result of the unprotected NOED binary: same output bytes, same exit
//     code.  Protection may only change *how much* work is done, never what
//     is computed.
#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted {
namespace {

using passes::Scheme;

// print -> parse -> print must reach a fixed point immediately.
void expectRoundTrips(const ir::Program& program, const std::string& label) {
  const std::string once = ir::printProgram(program);
  const ir::Program reparsed = ir::parseProgram(once);
  ir::verifyOrThrow(reparsed);
  const std::string twice = ir::printProgram(reparsed);
  EXPECT_EQ(once, twice) << label;
}

TEST(PipelineSemanticsTest, SourceProgramsRoundTrip) {
  const std::size_t seeds = testutil::testTrials(25);
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    expectRoundTrips(testutil::makeRandomCfgProgram(seed),
                     "cfg seed " + std::to_string(seed));
  }
  expectRoundTrips(testutil::makeTinyProgram(), "tiny");
  expectRoundTrips(testutil::makeLoopProgram(10), "loop");
}

TEST(PipelineSemanticsTest, TransformedProgramsRoundTrip) {
  // The pipeline output carries everything the pass stack adds — CHECKs,
  // duplicated instructions, cluster assignments — and must survive the
  // textual form unchanged too.
  const std::size_t seeds = testutil::testTrials(8);
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    const ir::Program source = testutil::makeRandomCfgProgram(seed);
    for (const Scheme scheme : passes::kAllSchemes) {
      const core::CompiledProgram bin =
          core::compile(source, testutil::machine(2, 1), scheme);
      expectRoundTrips(bin.program, std::string("compiled seed ") +
                                        std::to_string(seed) + " " +
                                        passes::schemeName(scheme));
    }
  }
}

TEST(PipelineSemanticsTest, SchemesPreserveFaultFreeResults) {
  // With and without calls: the calling programs pass values of all three
  // register classes to their callees and recurse, so error detection and
  // the late opts work across call boundaries.
  const std::size_t seeds = testutil::testTrials(15);
  for (const bool calls : {false, true}) {
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      const ir::Program source =
          testutil::makeRandomCfgProgram(seed, 5, 9, calls);
      const arch::MachineConfig config = testutil::machine(2, 2);
      const core::CompiledProgram noed =
          core::compile(source, config, Scheme::kNoed);
      const sim::RunResult baseline = core::run(noed);
      const std::string program = std::string(calls ? "calling " : "") +
                                  "seed " + std::to_string(seed);
      ASSERT_EQ(baseline.exit, sim::ExitKind::kHalted) << program;
      for (const Scheme scheme :
           {Scheme::kSced, Scheme::kDced, Scheme::kCasted}) {
        const core::CompiledProgram bin =
            core::compile(source, config, scheme);
        const sim::RunResult result = core::run(bin);
        const std::string label = program + " " + passes::schemeName(scheme);
        EXPECT_EQ(result.exit, sim::ExitKind::kHalted) << label;
        EXPECT_EQ(result.exitCode, baseline.exitCode) << label;
        EXPECT_EQ(result.output, baseline.output) << label;
      }
    }
  }
}

TEST(PipelineSemanticsTest, SchemesPreserveWorkloadResults) {
  const workloads::Workload wl = workloads::makeMpeg2dec(1);
  const arch::MachineConfig config = testutil::machine(2, 1);
  const core::CompiledProgram noed =
      core::compile(wl.program, config, Scheme::kNoed);
  const sim::RunResult baseline = core::run(noed);
  ASSERT_EQ(baseline.exit, sim::ExitKind::kHalted);
  for (const Scheme scheme :
       {Scheme::kSced, Scheme::kDced, Scheme::kCasted}) {
    const core::CompiledProgram bin = core::compile(wl.program, config, scheme);
    const sim::RunResult result = core::run(bin);
    EXPECT_EQ(result.exit, sim::ExitKind::kHalted)
        << passes::schemeName(scheme);
    EXPECT_EQ(result.exitCode, baseline.exitCode) << passes::schemeName(scheme);
    EXPECT_EQ(result.output, baseline.output) << passes::schemeName(scheme);
  }
}

}  // namespace
}  // namespace casted
