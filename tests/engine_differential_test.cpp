// Differential property test: the decoded engine (sim::Engine::kDecoded)
// must produce field-for-field identical RunResults to the reference
// IR-walking interpreter (sim::Engine::kReference) — same exit kind, trap,
// exit code, output snapshot, and every statistic down to per-cache-level
// hit/miss counts — for every program, schedule, machine and fault plan.
//
// The corpus is random CFG programs compiled under all four schemes (NOED /
// SCED / DCED / CASTED, so CHECK instructions, duplicated code and cluster
// assignment are all exercised), plus straight-line programs and the
// call-heavy paper workloads.  Each compiled binary runs fault-free and
// under several random fault plans (covering detected / trapped / corrupt /
// timeout paths).  CASTED_TEST_TRIALS caps the corpus size in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "fault/campaign.h"
#include "sim/simulator.h"
#include "support/check.h"
#include "support/rng.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::sim {
namespace {

using passes::Scheme;

using testutil::expectIdentical;

// Runs one compiled binary through both engines, fault-free and under
// `faultTrials` random fault plans, demanding identical results each time.
void runDifferential(const core::CompiledProgram& bin,
                     const std::string& label, std::uint64_t faultSeed,
                     std::size_t faultTrials) {
  SimOptions refOptions;
  refOptions.engine = Engine::kReference;
  SimOptions decOptions;
  decOptions.engine = Engine::kDecoded;

  const RunResult refGolden =
      simulate(bin.program, bin.schedule, bin.machine, refOptions);
  const RunResult decGolden =
      simulate(bin.program, bin.schedule, bin.machine, decOptions);
  expectIdentical(refGolden, decGolden, label + " fault-free");
  if (refGolden.exit != ExitKind::kHalted ||
      refGolden.stats.dynamicDefInsns == 0) {
    return;  // no fault-target population to draw from
  }

  for (std::size_t trial = 0; trial < faultTrials; ++trial) {
    Rng rng(deriveStreamSeed(faultSeed, trial));
    const FaultPlan plan =
        fault::makeTrialPlan(rng, refGolden.stats.dynamicDefInsns, 0);
    refOptions.faultPlan = &plan;
    decOptions.faultPlan = &plan;
    // Tight watchdog so fault-induced runaways exercise the timeout path.
    refOptions.maxCycles = refGolden.stats.cycles * 20;
    decOptions.maxCycles = refGolden.stats.cycles * 20;
    std::ostringstream context;
    context << label << " fault trial " << trial << " (ordinal "
            << plan.points.front().ordinal << ", whichDef "
            << plan.points.front().whichDef << ", bit "
            << plan.points.front().bit << ")";
    expectIdentical(
        simulate(bin.program, bin.schedule, bin.machine, refOptions),
        simulate(bin.program, bin.schedule, bin.machine, decOptions),
        context.str());
  }
}

TEST(EngineDifferentialTest, RandomCfgProgramsAllSchemes) {
  // 50 seeds x 4 schemes = 200 compiled programs by default, and as many
  // that call; each also runs 3 fault trials, so the contract is checked
  // on ~1600 executions.
  const std::size_t seeds = testutil::testTrials(50);
  for (const bool calls : {false, true}) {
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      const ir::Program source =
          testutil::makeRandomCfgProgram(seed, 4, 8, calls);
      const arch::MachineConfig config =
          testutil::machine(2, seed % 2 == 0 ? 1 : 2);
      for (const Scheme scheme : passes::kAllSchemes) {
        const core::CompiledProgram bin =
            core::compile(source, config, scheme);
        std::ostringstream label;
        label << (calls ? "calling " : "") << "cfg seed " << seed << " "
              << passes::schemeName(scheme);
        runDifferential(bin, label.str(), /*faultSeed=*/seed * 977 + 13,
                        /*faultTrials=*/3);
      }
    }
  }
}

TEST(EngineDifferentialTest, StraightLineAndLoopPrograms) {
  const std::size_t seeds = testutil::testTrials(20);
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    const ir::Program source =
        testutil::makeRandomStraightLine(seed, 12 + seed % 20);
    const core::CompiledProgram bin =
        core::compile(source, testutil::machine(4, 1), Scheme::kCasted);
    runDifferential(bin, "straight seed " + std::to_string(seed),
                    /*faultSeed=*/seed, /*faultTrials=*/2);
  }
  const core::CompiledProgram loop =
      core::compile(testutil::makeLoopProgram(64), testutil::machine(2, 1),
                    Scheme::kDced);
  runDifferential(loop, "loop64", /*faultSeed=*/0xF00D, /*faultTrials=*/8);
}

// Property test for the stepwise checkpoint API (DESIGN.md §10): over random
// programs, with and without calls, under every scheme, a stepwise run that
// pauses at the injection ordinal, snapshots, injects and finishes must
// equal the full-run oracle — and after the faulty suffix has trampled
// registers, memory, caches and statistics, restoring the snapshot and
// re-running must reproduce the very same result bit for bit (and, with no
// injection, the golden result).  The oracle is the reference engine's
// whole run, so a defect the decoded engine's whole and stepwise runs share
// does not pass.
TEST(EngineDifferentialTest, CheckpointRoundTripMatchesFullRuns) {
  const std::size_t seeds = testutil::testTrials(100);
  for (const bool calls : {false, true}) {
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      const ir::Program source =
          testutil::makeRandomCfgProgram(seed, 4, 8, calls);
      const arch::MachineConfig config =
          testutil::machine(2, seed % 2 == 0 ? 2 : 1);
      const Scheme scheme =
          passes::kAllSchemes[seed % std::size(passes::kAllSchemes)];
      const core::CompiledProgram bin = core::compile(source, config, scheme);
      const std::string label = std::string(calls ? "calling " : "") +
                                "checkpoint seed " + std::to_string(seed) +
                                " " + passes::schemeName(scheme);

      SimOptions options;
      SimOptions reference;
      reference.engine = Engine::kReference;
      const RunResult golden =
          simulate(bin.program, bin.schedule, bin.machine, reference);
      if (golden.exit != ExitKind::kHalted ||
          golden.stats.dynamicDefInsns == 0) {
        continue;
      }
      options.maxCycles = golden.stats.cycles * 20;
      reference.maxCycles = options.maxCycles;

      Rng rng(deriveStreamSeed(0xC4EC9017u, seed));
      FaultPlan plan;
      FaultPoint first;
      first.ordinal = rng.nextBelow(golden.stats.dynamicDefInsns);
      first.whichDef = static_cast<std::uint32_t>(rng.nextBelow(4));
      first.bit = static_cast<std::uint32_t>(rng.nextBelow(64));
      plan.points.push_back(first);
      if (seed % 2 == 1 &&
          first.ordinal + 1 < golden.stats.dynamicDefInsns) {
        // A second flip downstream, so a restore that disarms the plan and
        // a re-injection that re-arms it must also fire the later point.
        FaultPoint second;
        second.ordinal =
            first.ordinal + 1 +
            rng.nextBelow(golden.stats.dynamicDefInsns - first.ordinal - 1);
        second.whichDef = static_cast<std::uint32_t>(rng.nextBelow(4));
        second.bit = static_cast<std::uint32_t>(rng.nextBelow(64));
        plan.points.push_back(second);
      }

      reference.faultPlan = &plan;
      const RunResult oracle =
          simulate(bin.program, bin.schedule, bin.machine, reference);

      DecodedRunner runner(*bin.decoded);
      runner.begin(options);
      ASSERT_TRUE(runner.runToDef(first.ordinal)) << label;
      EXPECT_EQ(runner.pausedOrdinal(), first.ordinal) << label;
      ArchCheckpoint checkpoint;
      runner.saveCheckpoint(checkpoint);

      runner.injectAtPause(plan);
      expectIdentical(oracle, runner.finish(), label + " first injection");

      runner.restoreCheckpoint(checkpoint);
      runner.injectAtPause(plan);
      expectIdentical(oracle, runner.finish(), label + " after restore");

      runner.restoreCheckpoint(checkpoint);
      expectIdentical(golden, runner.finish(), label + " restored golden");
    }
  }
}

// The calling random programs recurse (testutil::addRecursiveCallee), 1-4
// frames deep in their golden runs.  Under NOED, whose calls carry no
// checks, a flip of bit 20 of the depth a frame passes down drives the
// recursion past kMaxCallDepth: both engines must trap kStackOverflow at
// the same instruction, and so must a stepwise run injected at the flip,
// before and after a restore.  Every def of the recursive callee is
// flipped at that bit, not only the depth.
TEST(EngineDifferentialTest, RecursionPastTheDepthLimitTrapsInBothEngines) {
  const std::size_t seeds = testutil::testTrials(20);
  std::size_t overflows = 0;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    const core::CompiledProgram bin =
        core::compile(testutil::makeRandomCfgProgram(seed, 4, 8, true),
                      testutil::machine(2, 1 + seed % 2), Scheme::kNoed);
    std::uint32_t rec = 0;
    while (bin.program.function(rec).name() != "rec") {
      ++rec;
    }
    std::vector<DefSite> trace;
    SimOptions options;
    options.defTrace = &trace;
    const RunResult golden =
        simulate(bin.program, bin.schedule, bin.machine, options);
    ASSERT_EQ(golden.exit, ExitKind::kHalted) << "seed " << seed;
    options.defTrace = nullptr;
    options.maxCycles = golden.stats.cycles * 20;
    SimOptions reference = options;
    reference.engine = Engine::kReference;
    DecodedRunner runner(*bin.decoded);
    for (std::uint64_t ordinal = 0; ordinal < trace.size(); ++ordinal) {
      if (trace[ordinal].func != rec) {
        continue;
      }
      const FaultPlan plan{{{ordinal, 0, 20}}};
      const std::string context = "recursive seed " + std::to_string(seed) +
                                  " ordinal " + std::to_string(ordinal);
      reference.faultPlan = &plan;
      options.faultPlan = &plan;
      const RunResult oracle =
          simulate(bin.program, bin.schedule, bin.machine, reference);
      expectIdentical(
          oracle, simulate(bin.program, bin.schedule, bin.machine, options),
          context);
      overflows += oracle.trap == TrapKind::kStackOverflow ? 1 : 0;

      options.faultPlan = nullptr;
      runner.begin(options);
      ASSERT_TRUE(runner.runToDef(ordinal)) << context;
      ArchCheckpoint checkpoint;
      runner.saveCheckpoint(checkpoint);
      runner.injectAtPause(plan);
      expectIdentical(oracle, runner.finish(), context + " stepwise");
      runner.restoreCheckpoint(checkpoint);
      runner.injectAtPause(plan);
      expectIdentical(oracle, runner.finish(), context + " after restore");
    }
  }
  EXPECT_GT(overflows, 0u) << "no flip drove a recursion past the limit";
}

TEST(EngineDifferentialTest, CheckpointsAreTakenBeforeInjection) {
  // A checkpoint holds a golden state: a save while a plan is armed is
  // refused, and leaves both the faulty run and the last checkpoint intact.
  const core::CompiledProgram bin = core::compile(
      testutil::makeRandomCfgProgram(0), testutil::machine(2, 1),
      Scheme::kCasted);
  SimOptions options;
  const RunResult golden = runDecoded(*bin.decoded, options);
  ASSERT_GT(golden.stats.dynamicDefInsns, 1u);
  options.maxCycles = golden.stats.cycles * 20;
  const FaultPlan plan{{{golden.stats.dynamicDefInsns / 2, 0, 3}}};
  SimOptions faulty = options;
  faulty.faultPlan = &plan;
  const RunResult oracle = runDecoded(*bin.decoded, faulty);

  DecodedRunner runner(*bin.decoded);
  runner.begin(options);
  ASSERT_TRUE(runner.runToDef(plan.points[0].ordinal));
  ArchCheckpoint checkpoint;
  runner.saveCheckpoint(checkpoint);
  runner.injectAtPause(plan);
  ArchCheckpoint armed;
  EXPECT_THROW(runner.saveCheckpoint(armed), FatalError);
  expectIdentical(oracle, runner.finish(), "after the refused save");
  runner.restoreCheckpoint(checkpoint);
  expectIdentical(golden, runner.finish(), "restored golden");
}

// Stepwise injection: begin, pause at the plan's first ordinal, inject,
// finish.
RunResult runStepwise(const core::CompiledProgram& bin,
                      const SimOptions& options, const FaultPlan& plan) {
  DecodedRunner runner(*bin.decoded);
  runner.begin(options);
  EXPECT_TRUE(runner.runToDef(plan.points.front().ordinal));
  runner.injectAtPause(plan);
  return runner.finish();
}

// Edge cases of the stepwise def path (a pause or fault ordinal is the one
// def per event that leaves the one-compare fast path), each checked
// against the reference engine's full run with the same plan.
TEST(EngineDifferentialTest, StepwiseEdgeCasesMatchReferenceRuns) {
  // vpr calls a function with a returned value, so its defs include the
  // pop-time def of a call op; the random program has none.
  const std::vector<std::pair<std::string, ir::Program>> sources = {
      {"vpr", workloads::makeWorkload("vpr", 1).program},
      {"cfg seed 3", testutil::makeRandomCfgProgram(3)},
  };
  for (const auto& [name, source] : sources) {
    for (const Scheme scheme : {Scheme::kNoed, Scheme::kCasted}) {
      const core::CompiledProgram bin =
          core::compile(source, testutil::machine(2, 2), scheme);
      const std::string label = name + " " + passes::schemeName(scheme);
      SimOptions refOptions;
      refOptions.engine = Engine::kReference;
      std::vector<DefSite> refTrace;
      refOptions.defTrace = &refTrace;
      const RunResult golden =
          simulate(bin.program, bin.schedule, bin.machine, refOptions);
      refOptions.defTrace = nullptr;
      ASSERT_EQ(golden.exit, ExitKind::kHalted) << label;
      const std::uint64_t defs = golden.stats.dynamicDefInsns;
      ASSERT_GE(defs, 3u) << label;

      // A decoded golden run records the same def trace.
      SimOptions decOptions;
      std::vector<DefSite> decTrace;
      decOptions.defTrace = &decTrace;
      expectIdentical(golden, runDecoded(*bin.decoded, decOptions),
                      label + " traced golden");
      ASSERT_EQ(refTrace.size(), decTrace.size()) << label;
      for (std::size_t i = 0; i < refTrace.size(); ++i) {
        ASSERT_TRUE(refTrace[i].func == decTrace[i].func &&
                    refTrace[i].block == decTrace[i].block &&
                    refTrace[i].node == decTrace[i].node)
            << label << " def trace differs at ordinal " << i;
      }

      // The first call-return def, if the program has one.
      std::optional<std::uint64_t> callDef;
      for (std::size_t i = 0; i < refTrace.size() && !callDef; ++i) {
        const DefSite& site = refTrace[i];
        if (bin.program.function(site.func)
                .block(site.block)
                .insns()[site.node]
                .op == ir::Opcode::kCall) {
          callDef = i;
        }
      }
      if (name == "vpr") {
        ASSERT_TRUE(callDef.has_value()) << label;
      }

      refOptions.maxCycles = golden.stats.cycles * 20;
      SimOptions stepOptions;
      stepOptions.maxCycles = refOptions.maxCycles;
      std::vector<std::pair<std::string, FaultPlan>> plans;
      plans.emplace_back("first def", FaultPlan{{{0, 0, 5}}});
      plans.emplace_back("last def", FaultPlan{{{defs - 1, 1, 63}}});
      const std::uint64_t mid = defs / 2;
      plans.emplace_back("consecutive ordinals",
                         FaultPlan{{{mid - 1, 0, 1}, {mid, 2, 0}, {mid + 1, 3, 9}}});
      if (callDef.has_value()) {
        plans.emplace_back("paused on a call's return def",
                           FaultPlan{{{*callDef, 0, 0}}});
        if (*callDef > 0) {
          // The call's def fires during finish(), not at the pause.
          plans.emplace_back(
              "call's return def downstream",
              FaultPlan{{{*callDef - 1, 0, 3}, {*callDef, 0, 0}}});
        }
      }
      for (const auto& [what, plan] : plans) {
        refOptions.faultPlan = &plan;
        expectIdentical(
            simulate(bin.program, bin.schedule, bin.machine, refOptions),
            runStepwise(bin, stepOptions, plan), label + " " + what);
      }
      refOptions.faultPlan = nullptr;

      // Pausing on the last def and finishing without an injection is the
      // golden run; a pause past the last def finishes the run instead.
      DecodedRunner runner(*bin.decoded);
      runner.begin(stepOptions);
      ASSERT_TRUE(runner.runToDef(defs - 1)) << label;
      EXPECT_EQ(runner.pausedOrdinal(), defs - 1) << label;
      expectIdentical(golden, runner.finish(), label + " paused at last def");
      runner.begin(stepOptions);
      EXPECT_FALSE(runner.runToDef(defs)) << label;
      expectIdentical(golden, runner.finish(), label + " pause past the end");
    }
  }
}

TEST(EngineDifferentialTest, PaperWorkloadsWithCallsAndFloat) {
  // The workloads exercise what the random generators do not: function
  // calls (frame push/pop, return-value plumbing), floating point, and
  // non-trivial memory traffic through the cache hierarchy.
  const std::size_t count = testutil::testTrials(7);
  const std::vector<workloads::Workload> all = workloads::makeAllWorkloads(1);
  for (std::size_t i = 0; i < count && i < all.size(); ++i) {
    for (const Scheme scheme : {Scheme::kNoed, Scheme::kCasted}) {
      const core::CompiledProgram bin =
          core::compile(all[i].program, testutil::machine(2, 2), scheme);
      runDifferential(bin, all[i].name + " " + passes::schemeName(scheme),
                      /*faultSeed=*/0xCA57ED00 + i, /*faultTrials=*/4);
    }
  }
}

}  // namespace
}  // namespace casted::sim
