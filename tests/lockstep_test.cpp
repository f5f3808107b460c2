// Edge cases of the lockstep lanes (DecodedRunner::runLockstep, DESIGN.md
// §10 "Lockstep lanes").  Each crafted program aims a plan at one way a
// lane ends — every exact decision and every fallback — and checks two
// things: the lane ends that way, and a decided lane agrees with a whole
// faulty run of its plan (exit kind, instruction count, output and exit
// code).  The campaign over each program must also report exactly what
// the kFull oracle reports.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fault/campaign.h"
#include "ir/builder.h"
#include "sched/list_scheduler.h"
#include "sim/decoded.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "test_util.h"

namespace casted::sim {
namespace {

using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;
using ir::RegClass;

// The next instruction a builder will emit, as a def site.
DefSite nextSite(IrBuilder& b) {
  return {b.function().id(), b.currentBlock().id(),
          static_cast<std::uint32_t>(b.currentBlock().insns().size())};
}

// A hand-built program (no compiler passes, so every marked instruction
// survives), scheduled and decoded, with its golden run and def trace.
struct Crafted {
  ir::Program program;
  arch::MachineConfig config = testutil::machine(2, 1);
  sched::ProgramSchedule schedule;
  std::optional<DecodedProgram> decoded;
  RunResult golden;
  std::vector<DefSite> trace;

  void finish() {
    schedule = sched::scheduleProgram(program, config);
    decoded.emplace(DecodedProgram::build(program, schedule, config));
    SimOptions options;
    options.defTrace = &trace;
    golden = runDecoded(*decoded, options);
    ASSERT_EQ(golden.exit, ExitKind::kHalted);
  }

  // The def ordinal of the `occurrence`-th execution of `site`.
  std::uint64_t ordinal(const DefSite& site, std::size_t occurrence = 0) const {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i] == site && occurrence-- == 0) {
        return i;
      }
    }
    ADD_FAILURE() << "site never executed";
    return 0;
  }
};

ExitKind exitOf(LaneEnd end) {
  switch (end) {
    case LaneEnd::kDetected:
      return ExitKind::kDetected;
    case LaneEnd::kException:
      return ExitKind::kException;
    case LaneEnd::kTimeout:
      return ExitKind::kTimeout;
    default:
      return ExitKind::kHalted;
  }
}

// Runs `plans` as the lanes of one golden stream on `runner` and checks
// every decided lane against a whole run of its plan under the same
// watchdog.
std::vector<LaneVerdict> lanesAgainstRuns(DecodedRunner& runner,
                                          const DecodedProgram& decoded,
                                          const RunResult& golden,
                                          const std::vector<FaultPlan>& plans,
                                          std::uint64_t timeoutFactor,
                                          const std::string& context) {
  SimOptions options;
  options.maxCycles = golden.stats.cycles * timeoutFactor;
  std::vector<const FaultPlan*> lanes;
  for (const FaultPlan& plan : plans) {
    lanes.push_back(&plan);
  }
  std::vector<LaneVerdict> verdicts;
  runner.runLockstep(options, lanes, verdicts);
  EXPECT_EQ(verdicts.size(), plans.size()) << context;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const LaneVerdict& lane = verdicts[i];
    if (isFallback(lane.end)) {
      continue;
    }
    SimOptions whole = options;
    whole.faultPlan = &plans[i];
    const RunResult run = runDecoded(decoded, whole);
    const std::string what = context + " lane " + std::to_string(i) + " (" +
                             laneEndName(lane.end) + ")";
    EXPECT_EQ(exitOf(lane.end), run.exit) << what;
    EXPECT_EQ(lane.dynamicInsns, run.stats.dynamicInsns) << what;
    if (run.exit == ExitKind::kHalted) {
      EXPECT_EQ(lane.corrupt, run.output != golden.output ||
                                  run.exitCode != golden.exitCode)
          << what;
    }
  }
  return verdicts;
}

// The same on a fresh runner.
std::vector<LaneVerdict> lanesAgainstRuns(const DecodedProgram& decoded,
                                          const RunResult& golden,
                                          const std::vector<FaultPlan>& plans,
                                          std::uint64_t timeoutFactor,
                                          const std::string& context) {
  DecodedRunner runner(decoded);
  return lanesAgainstRuns(runner, decoded, golden, plans, timeoutFactor,
                          context);
}

// One plan as one lane: it must end as `expected` (and agree with its
// whole run when decided).
void expectLane(const Crafted& c, const FaultPlan& plan, LaneEnd expected,
                std::uint64_t timeoutFactor = 20) {
  const std::vector<LaneVerdict> verdicts = lanesAgainstRuns(
      *c.decoded, c.golden, {plan}, timeoutFactor, laneEndName(expected));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].end, expected)
      << "ended as " << laneEndName(verdicts[0].end);
}

// The campaign over `c` in checkpointed (lockstep) mode reports exactly
// what the kFull oracle reports, at one and at three workers.  A small
// originalDefInsns gives multi-flip plans.
void expectCampaignMatchesFull(const Crafted& c, std::uint64_t timeoutFactor,
                               std::uint64_t originalDefInsns = 0) {
  fault::CampaignOptions options;
  options.trials = 150;
  options.timeoutFactor = timeoutFactor;
  options.originalDefInsns = originalDefInsns;
  options.mode = fault::InjectionMode::kFull;
  const fault::CoverageReport full =
      fault::runCampaign(c.program, c.schedule, c.config, options);
  options.mode = fault::InjectionMode::kCheckpointed;
  for (const std::uint32_t threads : {1u, 3u}) {
    options.threads = threads;
    const fault::CoverageReport lockstep =
        fault::runCampaign(c.program, c.schedule, c.config, options);
    EXPECT_EQ(lockstep.counts, full.counts) << threads << " threads";
    EXPECT_EQ(lockstep.dynamicInsns, full.dynamicInsns) << threads
                                                        << " threads";
  }
}

// Straight-line code with one marked def per decision.
struct StraightLine : Crafted {
  DefSite check, divisor, f2iInput, badBase, misalignedBase, storeBase,
      outValue, deadValue, exitCode;

  StraightLine() {
    const std::uint64_t out = program.allocateGlobal("output", 24);
    const std::uint64_t scratch = program.allocateGlobal("scratch", 64);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    b.setBlock(b.createBlock("entry"));
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    const Reg scratchBase = b.movImm(static_cast<std::int64_t>(scratch));

    check = nextSite(b);  // a check with a shadow computed on its own
    const Reg a = b.movImm(41);
    const Reg shadow = b.movImm(41);
    b.emit(Opcode::kCheckG, {}, {a, shadow}).origin = ir::InsnOrigin::kCheck;

    divisor = nextSite(b);  // bit 0 flips 1 to 0
    const Reg d = b.movImm(1);
    b.store(scratchBase, 0, b.div(b.movImm(100), d));

    f2iInput = nextSite(b);  // bit 62 turns 1.0 into +infinity
    const Reg f = b.fMovImm(1.0);
    b.store(scratchBase, 8, b.f2i(f));

    badBase = nextSite(b);  // bit 40 leaves the arena
    const Reg p = b.movImm(static_cast<std::int64_t>(scratch));
    b.store(scratchBase, 16, b.load(p, 0));

    misalignedBase = nextSite(b);  // bit 0 misaligns a word load
    const Reg q = b.movImm(static_cast<std::int64_t>(scratch));
    b.store(scratchBase, 24, b.load(q, 8));

    storeBase = nextSite(b);  // bit 3 moves the store one word on
    const Reg s = b.movImm(static_cast<std::int64_t>(scratch));
    b.store(s, 32, b.movImm(7));
    b.store(outBase, 0, b.load(scratchBase, 32));

    outValue = nextSite(b);  // any bit corrupts the output
    b.store(outBase, 8, b.movImm(1234));

    deadValue = nextSite(b);  // masked, then overwritten: reconverges
    const Reg t = b.movImm(3);
    b.store(outBase, 16, b.andImm(t, 0));
    b.movImmTo(t, 5);

    exitCode = nextSite(b);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, EveryExactDecisionMatchesItsWholeRun) {
  const StraightLine c;
  const auto at = [&](const DefSite& site) { return c.ordinal(site); };
  expectLane(c, {{{at(c.check), 0, 3}}}, LaneEnd::kDetected);
  expectLane(c, {{{at(c.divisor), 0, 0}}}, LaneEnd::kException);
  expectLane(c, {{{at(c.f2iInput), 0, 62}}}, LaneEnd::kException);
  expectLane(c, {{{at(c.badBase), 0, 40}}}, LaneEnd::kException);
  expectLane(c, {{{at(c.misalignedBase), 0, 0}}}, LaneEnd::kException);
  expectLane(c, {{{at(c.exitCode), 0, 5}}}, LaneEnd::kHalted);
  expectLane(c, {{{at(c.outValue), 0, 9}}}, LaneEnd::kHalted);
  expectLane(c, {{{at(c.deadValue), 0, 1}}}, LaneEnd::kReconverged);
  // A differing in-range store address: decided under the usual watchdog.
  expectLane(c, {{{at(c.storeBase), 0, 3}}}, LaneEnd::kHalted);
  // A second flip landing on a lane that is still live, and one that
  // undoes the first.
  expectLane(c, {{{at(c.outValue), 0, 2}, {at(c.exitCode), 0, 0}}},
             LaneEnd::kHalted);
  expectLane(c, {{{at(c.deadValue), 0, 4}, {at(c.exitCode), 0, 7}}},
             LaneEnd::kHalted);
  expectCampaignMatchesFull(c, 20);
}

TEST(LockstepTest, DecisionsAreExactWhenTheirLanesShareAStream) {
  // Every plan above as a lane of one window: a lane's verdict must not
  // depend on the other lanes.
  const StraightLine c;
  std::vector<FaultPlan> plans;
  for (const DefSite& site :
       {c.check, c.divisor, c.f2iInput, c.badBase, c.misalignedBase,
        c.storeBase, c.outValue, c.deadValue, c.exitCode}) {
    for (const std::uint32_t bit : {0u, 3u, 40u, 62u}) {
      plans.push_back({{{c.ordinal(site), 0, bit}}});
    }
  }
  const std::vector<LaneVerdict> together =
      lanesAgainstRuns(*c.decoded, c.golden, plans, 20, "shared stream");
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const std::vector<LaneVerdict> alone = lanesAgainstRuns(
        *c.decoded, c.golden, {plans[i]}, 20, "alone");
    EXPECT_EQ(together[i].end, alone[0].end) << i;
    EXPECT_EQ(together[i].dynamicInsns, alone[0].dynamicInsns) << i;
    EXPECT_EQ(together[i].corrupt, alone[0].corrupt) << i;
  }
}

// A callee that doubles its argument and one that masks it away.
struct Calls : Crafted {
  DefSite arg, maskedArg, callDef;

  Calls() {
    const std::uint64_t out = program.allocateGlobal("output", 16);
    ir::Function& twice = program.addFunction("twice");
    {
      const Reg x = twice.newReg(RegClass::kGp);
      twice.params() = {x};
      twice.returnClasses() = {RegClass::kGp};
      IrBuilder b(twice);
      b.setBlock(b.createBlock("body"));
      b.ret({b.add(x, x)});
    }
    ir::Function& mask = program.addFunction("mask");
    {
      const Reg x = mask.newReg(RegClass::kGp);
      mask.params() = {x};
      mask.returnClasses() = {RegClass::kGp};
      IrBuilder b(mask);
      b.setBlock(b.createBlock("body"));
      b.ret({b.andImm(x, 0)});
    }
    ir::Function& main = program.addFunction("main");
    program.setEntryFunction(main.id());
    IrBuilder b(main);
    b.setBlock(b.createBlock("entry"));
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    arg = nextSite(b);
    const Reg x = b.movImm(21);
    callDef = nextSite(b);
    b.store(outBase, 0, b.call(twice, {x})[0]);
    maskedArg = nextSite(b);
    const Reg y = b.movImm(5);
    b.store(outBase, 8, b.call(mask, {y})[0]);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, DiffsCrossCallArgumentsAndReturns) {
  const Calls c;
  // Through the argument, the callee and the returned value to the output.
  expectLane(c, {{{c.ordinal(c.arg), 0, 4}}}, LaneEnd::kHalted);
  // A flip of the returned value itself (the call's pop-time def).
  expectLane(c, {{{c.ordinal(c.callDef), 0, 1}}}, LaneEnd::kHalted);
  // The callee masks the argument; the caller's register keeps its diff.
  expectLane(c, {{{c.ordinal(c.maskedArg), 0, 2}}}, LaneEnd::kHalted);
  expectCampaignMatchesFull(c, 20);
}

// A counted loop whose accumulator chain does most of the body's work.
struct Loop : Crafted {
  DefSite acc, counter;

  Loop() {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    const Reg i = b.movImm(0);
    acc = nextSite(b);
    const Reg a = b.movImm(1);
    b.br(loop);
    b.setBlock(loop);
    b.emit(Opcode::kMulImm, {a}, {a}).imm = 3;
    b.addImmTo(a, a, 1);
    b.binaryTo(Opcode::kXor, a, a, i);
    b.binaryTo(Opcode::kAdd, a, a, i);
    counter = nextSite(b);
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, 300), loop, done);
    b.setBlock(done);
    b.store(outBase, 0, a);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, EveryFallbackAndTheGoldenTimeout) {
  const Loop loop;
  // The flipped counter takes the other edge of the loop branch.
  expectLane(loop, {{{loop.ordinal(loop.counter, 10), 0, 40}}},
             LaneEnd::kFallbackControl);
  // The accumulator differs in 4 of every 7 ops: over the budget.
  expectLane(loop, {{{loop.ordinal(loop.acc), 0, 7}}},
             LaneEnd::kFallbackBudget);
  // With the watchdog at 0 the golden stream itself times out at its first
  // block boundary, before the lane's flip: the lane times out with it.
  expectLane(loop, {{{loop.ordinal(loop.counter, 200), 0, 1}}},
             LaneEnd::kTimeout, 0);
  expectCampaignMatchesFull(loop, 20);
  expectCampaignMatchesFull(loop, 0);

  // At timeoutFactor 1 the watchdog is the golden run's own cycle count,
  // and a lane whose store went to another word has a cycle bound above
  // it.
  const StraightLine line;
  expectLane(line, {{{line.ordinal(line.storeBase), 0, 3}}},
             LaneEnd::kFallbackTiming, 1);
  expectCampaignMatchesFull(line, 1);
}

// An entry function that returns instead of halting.  A flipped predicate
// takes it to `halt r` instead, with r = 7; r is also kept in `scratch`,
// so a lane that differs in r still differs when the entry frame pops.
struct EntryReturns : Crafted {
  DefSite outValue, exitValue, predicate;

  EntryReturns() {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    const std::uint64_t scratch = program.allocateGlobal("scratch", 8);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& halt = b.createBlock("halt");
    ir::BasicBlock& ret = b.createBlock("ret");
    b.setBlock(entry);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    const Reg scratchBase = b.movImm(static_cast<std::int64_t>(scratch));
    outValue = nextSite(b);
    b.store(outBase, 0, b.movImm(1234));
    exitValue = nextSite(b);  // bit 1 turns 7 into 5: same predicate
    const Reg r = b.movImm(7);
    b.store(scratchBase, 0, r);
    predicate = nextSite(b);
    b.brCond(b.cmpLtImm(r, 0), halt, ret);
    b.setBlock(halt);
    b.halt(r);
    b.setBlock(ret);
    b.ret();
    finish();
  }
};

TEST(LockstepTest, AnEntryReturnDecidesLanesWithoutAnExitCode) {
  const EntryReturns c;
  ASSERT_EQ(c.golden.exitCode, 0);
  // The runner's last run ends at `halt r`, so an exit slot that outlived
  // it would make the lanes below compare r's golden 7 with exit code 0.
  DecodedRunner runner(*c.decoded);
  const FaultPlan toHalt{{{c.ordinal(c.predicate), 0, 0}}};
  SimOptions faulty;
  faulty.maxCycles = c.golden.stats.cycles * 20;
  faulty.faultPlan = &toHalt;
  const RunResult halted = runner.run(faulty);
  ASSERT_EQ(halted.exit, ExitKind::kHalted);
  ASSERT_EQ(halted.exitCode, 7);

  const std::vector<FaultPlan> plans = {
      {{{c.ordinal(c.outValue), 0, 9}}},   // the output differs
      {{{c.ordinal(c.exitValue), 0, 1}}},  // only r (and scratch) differ
  };
  const std::vector<LaneVerdict> verdicts = lanesAgainstRuns(
      runner, *c.decoded, c.golden, plans, 20, "entry return");
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].end, LaneEnd::kHalted);
  EXPECT_TRUE(verdicts[0].corrupt);
  EXPECT_EQ(verdicts[1].end, LaneEnd::kHalted);
  EXPECT_FALSE(verdicts[1].corrupt);
  expectCampaignMatchesFull(c, 20);
}

TEST(LockstepTest, RandomProgramsWithMultiFlipPlansMatchWholeRuns) {
  // The engine differential test's random CFG programs under every scheme,
  // with about three flips per plan.
  const std::size_t seeds = testutil::testTrials(30);
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    const ir::Program source = testutil::makeRandomCfgProgram(seed);
    for (const passes::Scheme scheme : passes::kAllSchemes) {
      const core::CompiledProgram bin =
          core::compile(source, testutil::machine(2, 1 + seed % 2), scheme);
      const RunResult golden = runDecoded(*bin.decoded, {});
      const std::uint64_t defs = golden.stats.dynamicDefInsns;
      std::vector<FaultPlan> plans;
      for (std::uint32_t trial = 0; trial < 40; ++trial) {
        Rng rng(deriveStreamSeed(0x10C5u + seed, trial));
        plans.push_back(fault::makeTrialPlan(rng, defs, defs / 3 + 1));
      }
      std::stable_sort(plans.begin(), plans.end(),
                       [](const FaultPlan& x, const FaultPlan& y) {
                         return x.points[0].ordinal < y.points[0].ordinal;
                       });
      const std::string context = "cfg seed " + std::to_string(seed) + " " +
                                  passes::schemeName(scheme);
      lanesAgainstRuns(*bin.decoded, golden, plans, 20, context);

      fault::CampaignOptions options;
      options.trials = 60;
      options.threads = 2;
      options.originalDefInsns = defs / 3 + 1;
      options.mode = fault::InjectionMode::kFull;
      const fault::CoverageReport full = core::campaign(bin, options);
      options.mode = fault::InjectionMode::kCheckpointed;
      const fault::CoverageReport lockstep = core::campaign(bin, options);
      EXPECT_EQ(lockstep.counts, full.counts) << context;
      EXPECT_EQ(lockstep.dynamicInsns, full.dynamicInsns) << context;
    }
  }
}

}  // namespace
}  // namespace casted::sim
