// Tests of the benchmark's own helpers: percentiles, the traced replays
// (which must reproduce the drivers' reports exactly) and the digests.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "digest.h"
#include "harness.h"
#include "ir/builder.h"
#include "layers.h"

namespace perfbench {
namespace {

using namespace casted;

// output = sum of i*i for i in [0, n): 64-bit defs plus one predicate def
// (the loop compare) per iteration.
ir::Program makeSquareSumProgram(std::int64_t n) {
  ir::Program prog;
  const std::uint64_t outAddr = prog.allocateGlobal("output", 8);
  ir::Function& main = prog.addFunction("main");
  ir::IrBuilder b(main);
  ir::BasicBlock& entry = b.createBlock("entry");
  ir::BasicBlock& loop = b.createBlock("loop");
  ir::BasicBlock& done = b.createBlock("done");
  b.setBlock(entry);
  const ir::Reg outBase = b.movImm(static_cast<std::int64_t>(outAddr));
  const ir::Reg i = b.movImm(0);
  const ir::Reg sum = b.movImm(0);
  b.br(loop);
  b.setBlock(loop);
  b.binaryTo(ir::Opcode::kAdd, sum, sum, b.mul(i, i));
  b.addImmTo(i, i, 1);
  b.brCond(b.cmpLtImm(i, n), loop, done);
  b.setBlock(done);
  b.store(outBase, 0, sum);
  b.halt(b.movImm(0));
  return prog;
}

core::CompiledProgram compileAt22(passes::Scheme scheme) {
  return core::compile(makeSquareSumProgram(6), arch::makePaperMachine(2, 2),
                       scheme);
}

fault::ExhaustiveOptions oneWorker() {
  fault::ExhaustiveOptions options;
  options.threads = 1;
  return options;
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  // rank = 0.25 * 4 = 1 exactly.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 25.0), 20.0);
  std::vector<double> hundred;
  for (int v = 1; v <= 100; ++v) {
    hundred.push_back(v);
  }
  // rank = 0.99 * 99 = 98.01: 99 + 0.01 * (100 - 99).
  EXPECT_NEAR(percentile(hundred, 99.0), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(ReplayTest, EnumerationEqualsGroundTruthReport) {
  for (passes::Scheme scheme : passes::kAllSchemes) {
    const core::CompiledProgram bin = compileAt22(scheme);
    const fault::GroundTruthReport report = core::groundTruth(bin, oneWorker());
    SweepSplit split;
    const EnumCounts replay = replayEnumeration(bin, oneWorker(), split);
    EXPECT_EQ(replay.sites, report.sites) << passes::schemeName(scheme);
    EXPECT_TRUE(replay == toCounts(report)) << passes::schemeName(scheme);
    EXPECT_EQ(split.runs, report.sites);
    EXPECT_EQ(split.checkpoints, report.defInsns);
  }
}

TEST(ReplayTest, SiteCountWeighsPredicatesAsOneBit) {
  const core::CompiledProgram bin = compileAt22(passes::Scheme::kNoed);
  std::vector<sim::DefSite> defTrace;
  sim::SimOptions options;
  options.defTrace = &defTrace;
  sim::runDecoded(*bin.decoded, options);
  std::uint64_t predicates = 0;
  for (const sim::DefSite& site : defTrace) {
    const ir::Instruction& insn =
        bin.program.function(site.func).block(site.block).insns()[site.node];
    predicates += insn.defs[0].cls == ir::RegClass::kPr ? 1 : 0;
  }
  ASSERT_GT(predicates, 0u);
  EXPECT_EQ(countSites(bin.program, defTrace),
            predicates + 64 * (defTrace.size() - predicates));
}

TEST(ReplayTest, CampaignEqualsDriverReport) {
  const core::CompiledProgram noed = compileAt22(passes::Scheme::kNoed);
  const core::CompiledProgram bin = compileAt22(passes::Scheme::kCasted);
  fault::CampaignOptions options;
  options.trials = 200;
  options.seed = 5;
  options.originalDefInsns = core::run(noed).stats.dynamicDefInsns;
  SweepSplit split;
  EXPECT_TRUE(replayCampaign(bin, options, split) ==
              toCounts(core::campaign(bin, options)));
  EXPECT_EQ(split.runs, 200u);
  EXPECT_GT(split.checkpoints, 0u);
}

TEST(DigestTest, StableAcrossInProcessRuns) {
  const core::CompiledProgram bin = compileAt22(passes::Scheme::kDced);
  fault::CampaignOptions options;
  options.trials = 100;
  const CampaignCounts first = toCounts(core::campaign(bin, options));
  EXPECT_EQ(digest(first), digest(toCounts(core::campaign(bin, options))));

  CampaignCounts changed = first;
  ++changed.dynamicInsns;
  EXPECT_NE(digest(changed), digest(first));
}

}  // namespace
}  // namespace perfbench
