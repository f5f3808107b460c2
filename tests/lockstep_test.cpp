// Edge cases of the lockstep lanes (DecodedRunner::runLockstep, DESIGN.md
// §10 "Lockstep lanes").  Each crafted program aims a plan at one way a
// lane ends — every exact decision and every fallback — and checks two
// things: the lane ends that way, and it agrees with a whole faulty run of
// its plan — a decided lane in exit kind, instruction count, output and
// exit code, a fallback's re-run field for field.  The campaign over each
// program must also report exactly what the kFull oracle reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fault/campaign.h"
#include "fault/driver_util.h"
#include "fault/exhaustive.h"
#include "ir/builder.h"
#include "sched/list_scheduler.h"
#include "sim/decoded.h"
#include "sim/simulator.h"
#include "support/check.h"
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
// survives), scheduled and decoded for `config` (the paper machine unless
// given), with its golden run and def trace.
struct Crafted {
  Crafted() = default;
  explicit Crafted(const arch::MachineConfig& machine) : config(machine) {}

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
    default:
      return ExitKind::kHalted;
  }
}

// One lane against `run`, the whole run of its plan: a decided lane in exit
// kind, instruction count and output/exit-code agreement, a fallback's
// re-run field for field.
void expectLaneMatchesRun(const LaneVerdict& lane, const RunResult& run,
                          const RunResult& golden, const std::string& what) {
  if (isFallback(lane.end)) {
    testutil::expectIdentical(run, lane.rerun, what);
    return;
  }
  EXPECT_EQ(exitOf(lane.end), run.exit) << what;
  EXPECT_EQ(lane.dynamicInsns, run.stats.dynamicInsns) << what;
  if (run.exit == ExitKind::kHalted) {
    EXPECT_EQ(lane.corrupt, run.output != golden.output ||
                                run.exitCode != golden.exitCode)
        << what;
  }
}

// Runs `plans` on `runner` as lockstep lanes under the watchdog at
// `timeoutFactor` times golden's cycles, into `verdicts`; returns the
// streams.  The lane ops of the verdicts must sum to the streams' (a slot
// that kept its last lane's count would add it to the next lane's).
LockstepStream runWindow(DecodedRunner& runner, const RunResult& golden,
                         const std::vector<FaultPlan>& plans,
                         std::uint64_t timeoutFactor,
                         std::vector<LaneVerdict>& verdicts,
                         const std::string& context) {
  SimOptions options;
  options.maxCycles = golden.stats.cycles * timeoutFactor;
  std::vector<const FaultPlan*> lanes;
  for (const FaultPlan& plan : plans) {
    lanes.push_back(&plan);
  }
  const LockstepStream stream = runner.runLockstep(
      options, lanes, verdicts, golden.stats.dynamicInsns);
  EXPECT_EQ(verdicts.size(), plans.size()) << context;
  std::uint64_t laneOps = 0;
  for (const LaneVerdict& lane : verdicts) {
    laneOps += lane.laneOps;
  }
  std::uint64_t streamOps = 0;
  for (const std::uint64_t ops : stream.laneOps) {
    streamOps += ops;
  }
  EXPECT_EQ(laneOps, streamOps) << context;
  EXPECT_GE(stream.streams, plans.empty() ? 0u : 1u) << context;
  EXPECT_LE(stream.streams, 1 + stream.deferred) << context;
  return stream;
}

// Runs `plans` as lockstep lanes on `runner` and checks every lane against
// a whole run of its plan under the same watchdog (on the same runner,
// which starts every run afresh).  `stream`, when given, receives the
// streams.
std::vector<LaneVerdict> lanesAgainstRuns(DecodedRunner& runner,
                                          const RunResult& golden,
                                          const std::vector<FaultPlan>& plans,
                                          std::uint64_t timeoutFactor,
                                          const std::string& context,
                                          LockstepStream* stream = nullptr) {
  std::vector<LaneVerdict> verdicts;
  const LockstepStream ran =
      runWindow(runner, golden, plans, timeoutFactor, verdicts, context);
  if (stream != nullptr) {
    *stream = ran;
  }
  SimOptions options;
  options.maxCycles = golden.stats.cycles * timeoutFactor;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const LaneVerdict& lane = verdicts[i];
    SimOptions whole = options;
    whole.faultPlan = &plans[i];
    const RunResult run = runner.run(whole);
    expectLaneMatchesRun(lane, run, golden,
                         context + " lane " + std::to_string(i) + " (" +
                             laneEndName(lane.end) + ")");
  }
  return verdicts;
}

// The same on a fresh runner.
std::vector<LaneVerdict> lanesAgainstRuns(const DecodedProgram& decoded,
                                          const RunResult& golden,
                                          const std::vector<FaultPlan>& plans,
                                          std::uint64_t timeoutFactor,
                                          const std::string& context,
                                          LockstepStream* stream = nullptr) {
  DecodedRunner runner(decoded);
  return lanesAgainstRuns(runner, golden, plans, timeoutFactor, context,
                          stream);
}

// Runs `plans` as lockstep lanes of `c` at `timeoutFactor` and checks
// every lane against the whole run of its plan on the reference engine
// (expectLaneMatchesRun), and the fault driver's verdict for it (the same
// window through SiteExecutor::runWindow, which classifies a decided lane
// or a fallback's re-run) against that run's classification.  `stream`,
// when given, receives the streams.
std::vector<LaneVerdict> lanesAgainstReference(
    const Crafted& c, const std::vector<FaultPlan>& plans,
    const std::string& context, LockstepStream* stream = nullptr,
    std::uint64_t timeoutFactor = 20) {
  DecodedRunner runner(*c.decoded);
  std::vector<LaneVerdict> verdicts;
  const LockstepStream ran =
      runWindow(runner, c.golden, plans, timeoutFactor, verdicts, context);
  if (stream != nullptr) {
    *stream = ran;
  }
  SimOptions reference;
  reference.maxCycles = c.golden.stats.cycles * timeoutFactor;
  reference.engine = Engine::kReference;
  const RunResult golden = simulate(c.program, c.schedule, c.config, reference);
  testutil::expectIdentical(golden, c.golden, context + " golden");
  const fault::GoldenProfile profile = fault::detail::toProfile(golden);
  SimOptions armed;
  armed.maxCycles = reference.maxCycles;
  fault::detail::SiteExecutor executor(
      c.program, c.schedule, c.config, &*c.decoded,
      fault::InjectionMode::kCheckpointed, armed, "lockstep_test.");
  std::vector<fault::detail::TrialVerdict> trials;
  executor.runWindow(plans, profile, trials);
  for (std::size_t k = 0; k < verdicts.size(); ++k) {
    const LaneVerdict& lane = verdicts[k];
    reference.faultPlan = &plans[k];
    const RunResult run = simulate(c.program, c.schedule, c.config, reference);
    const std::string what = context + " lane " + std::to_string(k) + " (" +
                             laneEndName(lane.end) + ")";
    expectLaneMatchesRun(lane, run, golden, what);
    EXPECT_EQ(trials[k].outcome, fault::classify(run, profile)) << what;
    EXPECT_EQ(trials[k].dynamicInsns, run.stats.dynamicInsns) << what;
  }
  return verdicts;
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

  explicit StraightLine(
      const arch::MachineConfig& machine = testutil::machine(2, 1))
      : Crafted(machine) {
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

    storeBase = nextSite(b);  // bit 3: one word on, bit 6: one line on
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
  DefSite outBase, acc, counter;

  Loop() {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    outBase = nextSite(b);  // read only by the final store
    const Reg base = b.movImm(static_cast<std::int64_t>(out));
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
    b.store(base, 0, a);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, EveryFallbackAndTheGoldenTimeout) {
  const Loop loop;
  // The flipped counter takes the other edge of the loop branch.
  expectLane(loop, {{{loop.ordinal(loop.counter, 10), 0, 40}}},
             LaneEnd::kFallbackControl);
  // The accumulator differs in 4 of every 7 ops for 300 iterations: a lane
  // is decided exactly however many lane ops it costs.
  expectLane(loop, {{{loop.ordinal(loop.acc), 0, 7}}}, LaneEnd::kHalted);
  expectCampaignMatchesFull(loop, 20);

  // A watchdog below golden's own cycle count is no watchdog: a golden
  // stream that runs into it throws, and both drivers refuse a factor of 0
  // (or an overflowing one) in every mode and engine.
  {
    DecodedRunner runner(*loop.decoded);
    SimOptions options;
    options.maxCycles = loop.golden.stats.cycles / 2;
    // The lane's flip lies past the watchdog, so the stream runs into it.
    const FaultPlan plan{{{loop.ordinal(loop.counter, 290), 0, 1}}};
    std::vector<LaneVerdict> verdicts;
    EXPECT_THROW(runner.runLockstep(options, {&plan}, verdicts,
                                    loop.golden.stats.dynamicInsns),
                 FatalError);
  }
  const core::CompiledProgram bin =
      core::compile(loop.program, loop.config, passes::Scheme::kNoed);
  for (const fault::InjectionMode mode :
       {fault::InjectionMode::kFull, fault::InjectionMode::kCheckpointed}) {
    for (const Engine engine : {Engine::kDecoded, Engine::kReference}) {
      fault::CampaignOptions campaign;
      campaign.trials = 10;
      campaign.timeoutFactor = 0;
      campaign.mode = mode;
      campaign.simOptions.engine = engine;
      EXPECT_THROW(core::campaign(bin, campaign), FatalError);
      fault::ExhaustiveOptions exhaustive;
      exhaustive.timeoutFactor = 0;
      exhaustive.mode = mode;
      exhaustive.simOptions.engine = engine;
      EXPECT_THROW(core::groundTruth(bin, exhaustive), FatalError);
      // golden.cycles times this factor overflows 64 bits.
      campaign.timeoutFactor = ~0ULL / 2;
      EXPECT_THROW(core::campaign(bin, campaign), FatalError);
    }
  }

  // At timeoutFactor 1 the watchdog is the golden run's own cycle count,
  // and, on a machine whose L3 can evict, a lane whose store went to
  // another 64-byte line (still in the arena) has a cycle bound above it.
  // A store to another word of golden's line leaves every cache level as
  // golden's, so that lane is decided exactly.
  const StraightLine line(testutil::evictingMachine(2, 1));
  expectLane(line, {{{line.ordinal(line.storeBase), 0, 6}}},
             LaneEnd::kFallbackTiming, 1);
  expectLane(line, {{{line.ordinal(line.storeBase), 0, 3}}},
             LaneEnd::kHalted, 1);
  expectCampaignMatchesFull(line, 1);
}

TEST(LockstepTest, FallbacksAtLaterOrdinalsRollTheCheckpointForward) {
  // A campaign-shaped window: lanes at four distinct first ordinals.  The
  // lane at the smallest one is decided, so the stream's checkpoint sits
  // below every fallback, and the fallbacks (two at one ordinal, and a
  // multi-flip plan) each re-run from it rolled forward.  Handed over in
  // reverse, the same window must give the same verdicts.
  const Loop loop;
  const std::uint64_t early = loop.ordinal(loop.counter, 10);
  const std::uint64_t late = loop.ordinal(loop.counter, 200);
  const std::vector<FaultPlan> plans = {
      {{{loop.ordinal(loop.outBase), 0, 40}}},  // the final store traps
      {{{loop.ordinal(loop.acc), 0, 7}}},
      {{{early, 0, 40}}},
      {{{late, 0, 40}}},
      {{{early, 0, 41}, {late + 1, 0, 3}}},
  };
  const std::vector<LaneEnd> expected = {
      LaneEnd::kException, LaneEnd::kHalted,
      LaneEnd::kFallbackControl, LaneEnd::kFallbackControl,
      LaneEnd::kFallbackControl};
  DecodedRunner runner(*loop.decoded);
  const std::vector<LaneVerdict> forward =
      lanesAgainstRuns(runner, loop.golden, plans, 20, "forward");
  const std::vector<FaultPlan> reversed(plans.rbegin(), plans.rend());
  const std::vector<LaneVerdict> backward =
      lanesAgainstRuns(runner, loop.golden, reversed, 20, "reversed");
  ASSERT_EQ(forward.size(), plans.size());
  ASSERT_EQ(backward.size(), plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const LaneVerdict& f = forward[i];
    const LaneVerdict& b = backward[plans.size() - 1 - i];
    const std::string what = "lane " + std::to_string(i);
    EXPECT_EQ(f.end, expected[i]) << what << " ended as "
                                  << laneEndName(f.end);
    EXPECT_EQ(f.end, b.end) << what;
    EXPECT_EQ(f.corrupt, b.corrupt) << what;
    EXPECT_EQ(f.dynamicInsns, b.dynamicInsns) << what;
    EXPECT_EQ(f.laneOps, b.laneOps) << what;
    EXPECT_EQ(f.injectedAt, b.injectedAt) << what;
    testutil::expectIdentical(f.rerun, b.rerun, what);
  }
}

// A loop of 200 iterations, each a store to a fixed scratch word and a
// load from a fixed table word: after the first iteration both hit L1, so
// golden's cycles stay far below what the loop costs with every bundle at
// the memory latency.  A flip of bit 6 of a store base (`storeBase` in the
// entry block, `loopBase` in every iteration) sends the lane's store to
// another 64-byte line of the arena and starts its cycle bound.
struct HotLoop : Crafted {
  DefSite first, storeBase, loopBase, counter;

  explicit HotLoop(const arch::MachineConfig& machine = testutil::machine(2, 1))
      : Crafted(machine) {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    const std::uint64_t table = program.allocateGlobal("table", 64);
    const std::uint64_t scratch = program.allocateGlobal("scratch", 256);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    first = nextSite(b);  // the accumulator's start: reaches the output
    const Reg acc = b.movImm(0);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    const Reg tableBase = b.movImm(static_cast<std::int64_t>(table));
    storeBase = nextSite(b);
    const Reg s = b.movImm(static_cast<std::int64_t>(scratch));
    b.store(s, 0, b.movImm(7));
    const Reg i = b.movImm(0);
    b.br(loop);
    b.setBlock(loop);
    loopBase = nextSite(b);
    b.store(b.movImm(static_cast<std::int64_t>(scratch + 128)), 0, i);
    b.binaryTo(Opcode::kAdd, acc, acc, b.load(tableBase, 0));
    counter = nextSite(b);
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, 200), loop, done);
    b.setBlock(done);
    b.store(outBase, 0, b.addImm(acc, 1));
    b.halt(b.movImm(0));
    finish();
  }
};

// Loads `table + step * i` for 100 iterations.  Golden's step is 0, so
// every load after the first hits one L1 line; bit 6 of the step sends
// each of the lane's loads to a line it never touched, a miss at every
// level, and at timeout factor 1 the lane really times out.
struct StrideLoop : Crafted {
  DefSite step;

  explicit StrideLoop(
      const arch::MachineConfig& machine = testutil::machine(2, 1))
      : Crafted(machine) {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    const std::uint64_t table = program.allocateGlobal("table", 8192);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    const Reg p = b.movImm(static_cast<std::int64_t>(table));
    step = nextSite(b);
    const Reg stride = b.movImm(0);
    const Reg acc = b.movImm(0);
    const Reg i = b.movImm(0);
    b.br(loop);
    b.setBlock(loop);
    b.binaryTo(Opcode::kAdd, acc, acc, b.load(p, 0));
    b.binaryTo(Opcode::kAdd, p, p, stride);
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, 100), loop, done);
    b.setBlock(done);
    b.store(outBase, 0, acc);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, ATimingFallbackThatTimesOutReportsTheTimeout) {
  // The lane halts with golden's output in lockstep, but its cycles pass
  // the watchdog inside the loop: its re-run times out exactly where the
  // whole run does.  Its loads miss at every level, so it falls back
  // whether or not the L3 can evict.
  for (const bool evicting : {false, true}) {
    const StrideLoop c(evicting ? testutil::evictingMachine(2, 1)
                                : testutil::machine(2, 1));
    const FaultPlan plan{{{c.ordinal(c.step), 0, 6}}};
    const std::vector<LaneVerdict> verdicts =
        lanesAgainstRuns(*c.decoded, c.golden, {plan}, 1, "stride loop");
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].end, LaneEnd::kFallbackTiming) << evicting;
    EXPECT_EQ(verdicts[0].rerun.exit, ExitKind::kTimeout) << evicting;
    expectCampaignMatchesFull(c, 1);
  }
}

// A flipped address register leaves golden's line in the entry block,
// which warms the table's line; the next block calls a callee that chases
// three dependent loads through that line (three bundles that hit, each
// with a worst case of a memory access) and then checks the register
// against its shadow.
struct CallThenCheck : Crafted {
  DefSite address;

  explicit CallThenCheck(
      const arch::MachineConfig& machine = testutil::machine(2, 1))
      : Crafted(machine) {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    const std::uint64_t table = program.allocateGlobal("table", 64);
    const std::uint64_t scratch = program.allocateGlobal("scratch", 128);
    ir::Function& chase = program.addFunction("chase");
    {
      const Reg p = chase.newReg(RegClass::kGp);
      chase.params() = {p};
      chase.returnClasses() = {RegClass::kGp};
      IrBuilder b(chase);
      b.setBlock(b.createBlock("body"));
      const Reg a = b.load(p, 0);
      const Reg q = b.add(p, a);
      const Reg d = b.load(q, 0);
      b.ret({b.load(b.add(q, d), 0)});
    }
    ir::Function& main = program.addFunction("main");
    program.setEntryFunction(main.id());
    IrBuilder b(main);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& call = b.createBlock("call");
    b.setBlock(entry);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    const Reg tableBase = b.movImm(static_cast<std::int64_t>(table));
    const Reg warm = b.load(tableBase, 0);
    address = nextSite(b);
    const Reg x = b.movImm(static_cast<std::int64_t>(scratch));
    const Reg shadow = b.movImm(static_cast<std::int64_t>(scratch));
    const Reg y = b.load(x, 0);
    b.br(call);
    b.setBlock(call);
    const Reg r = b.call(chase, {tableBase})[0];
    b.emit(Opcode::kCheckG, {}, {x, shadow}).origin = ir::InsnOrigin::kCheck;
    b.store(outBase, 0, b.add(b.add(r, y), warm));
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, ATimingFallbackReRunsAcrossACallToItsDetection) {
  // At timeout factor 1 the lane's bound, the entry block and the callee
  // with every bundle at the memory latency, passes the watchdog (the
  // machine's L3 can evict).  Its re-run goes through the call into the
  // lane's detection in the next block and reports it as a whole run.
  const CallThenCheck c(testutil::evictingMachine(2, 1));
  const FaultPlan plan{{{c.ordinal(c.address), 0, 6}}};
  const std::vector<LaneVerdict> verdicts =
      lanesAgainstRuns(*c.decoded, c.golden, {plan}, 1, "call then check");
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].end, LaneEnd::kFallbackTiming);
  EXPECT_EQ(verdicts[0].rerun.exit, ExitKind::kDetected);
  expectCampaignMatchesFull(c, 1);
}

TEST(LockstepTest, TimingFallbacksRollTheCheckpointForward) {
  // One window at timeout factor 2: a lane decided at the window's first
  // ordinal, two timing lanes at later ordinals, and a control fallback
  // after them.  The first re-run rolls the checkpoint forward to its
  // ordinal; the second restores that checkpoint and rolls it on, and so
  // does the control fallback's; the whole runs that follow run on the
  // same runner.  The machine's L3 can evict, so each lane's bound charges
  // every bundle the memory latency.
  const HotLoop c(testutil::evictingMachine(2, 1));
  const std::vector<FaultPlan> plans = {
      {{{c.ordinal(c.first), 0, 2}}},
      {{{c.ordinal(c.loopBase, 3), 0, 6}}},
      {{{c.ordinal(c.loopBase, 60), 0, 6}}},
      {{{c.ordinal(c.counter, 100), 0, 40}}},
  };
  const std::vector<LaneEnd> expected = {
      LaneEnd::kHalted, LaneEnd::kFallbackTiming, LaneEnd::kFallbackTiming,
      LaneEnd::kFallbackControl};
  DecodedRunner runner(*c.decoded);
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<LaneVerdict> verdicts = lanesAgainstRuns(
        runner, c.golden, plans, 2, "pass " + std::to_string(pass));
    ASSERT_EQ(verdicts.size(), plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(verdicts[i].end, expected[i])
          << "lane " << i << " ended as " << laneEndName(verdicts[i].end);
    }
  }
  expectCampaignMatchesFull(c, 2);
}

// What `runs[b]` executions of each block b of `fn` cost at most when each
// of their bundles pays `extra` cycles over the base latency.
std::uint64_t chargedAt(const DecodedFunction& fn,
                        const std::vector<std::uint64_t>& runs,
                        std::uint32_t extra) {
  std::uint64_t cycles = 0;
  for (std::size_t b = 0; b < runs.size(); ++b) {
    const DecodedBlock& blk = fn.blocks[b];
    cycles += runs[b] * (blk.schedLength + blk.plan.bundleSizes.size() * extra);
  }
  return cycles;
}

// The extra latency of a hit in cache level `level` of `c`'s machine.
std::uint32_t hitExtra(const Crafted& c, std::size_t level) {
  return c.config.cache.levels[level].latency - c.config.latencies.mem;
}

TEST(LockstepTest, AResidentArenaDecidesADivergedLaneExactly) {
  // The paper machine's L3 keeps every line of the arena, so the hot-loop
  // lane whose store left golden's line costs at most each block's
  // warmCycles plus a memory access per line it misses in L3.  Its
  // worst-case bound, every bundle from the entry on at the memory
  // latency, passes the watchdog at timeout factor 20; the warm one does
  // not, and the lane is decided exactly.
  const HotLoop c;
  ASSERT_TRUE(c.decoded->lastLevelKeepsArena());
  const std::vector<std::uint64_t> runs = {1, 200, 1};  // entry, loop, done
  EXPECT_GT(chargedAt(c.decoded->functions()[0], runs,
                      c.config.cache.memoryLatency - c.config.latencies.mem),
            20 * c.golden.stats.cycles);
  const std::vector<LaneVerdict> verdicts = lanesAgainstReference(
      c, {{{{c.ordinal(c.storeBase), 0, 6}}}}, "resident hot loop");
  EXPECT_EQ(verdicts[0].end, LaneEnd::kHalted);
  EXPECT_TRUE(verdicts[0].diverged);
  expectCampaignMatchesFull(c, 20);
}

// Streams a table, one new 128-byte line per iteration: kFill iterations
// that fill the L2 (256 KiB), then kLagged more that also load, after each
// new line, the word `behind` bytes back.  Golden's `behind` is 0, an L1
// hit on the line it just loaded; bit 18 makes it 256 KiB, the line kFill
// iterations back, which golden's L3 holds but its L2 has just evicted.
struct LaggedStream : Crafted {
  static constexpr std::int64_t kFill = 2048;
  static constexpr std::int64_t kLagged = 64;
  DefSite behind;

  LaggedStream() {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    const std::uint64_t table =
        program.allocateGlobal("table", (kFill + kLagged) * 128);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& fill = b.createBlock("fill");
    ir::BasicBlock& lagged = b.createBlock("lagged");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    const Reg p = b.movImm(static_cast<std::int64_t>(table));
    const Reg acc = b.movImm(0);
    const Reg i = b.movImm(0);
    behind = nextSite(b);
    const Reg lag = b.movImm(0);
    b.br(fill);
    b.setBlock(fill);
    b.binaryTo(Opcode::kAdd, acc, acc, b.load(p, 0));
    b.addImmTo(p, p, 128);
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, kFill), fill, lagged);
    b.setBlock(lagged);
    const Reg v = b.load(p, 0);
    // The lagged load waits for the new line's: they never share a bundle.
    const Reg q = b.add(b.sub(p, lag), b.andImm(v, 0));
    b.binaryTo(Opcode::kAdd, acc, acc, b.add(v, b.load(q, 0)));
    b.addImmTo(p, p, 128);
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, kFill + kLagged), lagged, done);
    b.setBlock(done);
    b.store(outBase, 0, acc);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, ALaneSlowedByWarmLinesStillFallsBack) {
  // Each lagged load of the lane is an L3 hit where golden's is an L1 hit,
  // and golden pays a memory access for each new line: at timeout factor
  // 1 the lane truly times out.  Its bound passes the watchdog only with
  // both of its parts.  Even charged over the whole run, a bound without
  // golden's L3 misses fits under it, and so does one that charges warm
  // bundles at L2 latency; either would decide the lane exactly.
  const LaggedStream c;
  ASSERT_TRUE(c.decoded->lastLevelKeepsArena());
  const DecodedFunction& fn = c.decoded->functions()[0];
  const std::vector<std::uint64_t> runs = {1, LaggedStream::kFill,
                                           LaggedStream::kLagged, 1};
  const std::uint64_t goldenMisses = c.golden.stats.cacheLevel[2].misses;
  EXPECT_LE(chargedAt(fn, runs, hitExtra(c, 2)), c.golden.stats.cycles);
  EXPECT_LE(chargedAt(fn, runs, hitExtra(c, 1)) +
                c.decoded->coldPenalty() * goldenMisses,
            c.golden.stats.cycles);
  const std::vector<LaneVerdict> verdicts = lanesAgainstReference(
      c, {{{{c.ordinal(c.behind), 0, 18}}}}, "lagged stream", nullptr, 1);
  EXPECT_EQ(verdicts[0].end, LaneEnd::kFallbackTiming);
  EXPECT_EQ(verdicts[0].rerun.exit, ExitKind::kTimeout);
  expectCampaignMatchesFull(c, 1);
}

// Loads the word at `hot` kIterations times, stepping by `stride`:
// golden's stride is 0, so every load after the first hits L1.  `hot` is
// the last global, so bit 7 of the stride walks the lane's loads through
// the heap, a line golden never touches per iteration.
struct HeapWalk : Crafted {
  static constexpr std::int64_t kIterations = 200;
  DefSite stride;

  HeapWalk() {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    const std::uint64_t hot = program.allocateGlobal("hot", 8);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    const Reg p = b.movImm(static_cast<std::int64_t>(hot));
    stride = nextSite(b);
    const Reg step = b.movImm(0);
    const Reg acc = b.movImm(0);
    const Reg i = b.movImm(0);
    b.br(loop);
    b.setBlock(loop);
    b.binaryTo(Opcode::kAdd, acc, acc, b.load(p, 0));
    b.binaryTo(Opcode::kAdd, p, p, step);
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, kIterations), loop, done);
    b.setBlock(done);
    b.store(outBase, 0, acc);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, ALaneWalkingUntouchedHeapLinesStillFallsBack) {
  // Each of the lane's loads misses at every level: at timeout factor 4
  // it truly times out.  Golden's L3 misses few lines, so the bound passes
  // the watchdog only by the lane's own accesses to lines golden's L3
  // lacks; charged over the whole run, a bound without them fits under it.
  const HeapWalk c;
  ASSERT_TRUE(c.decoded->lastLevelKeepsArena());
  const std::vector<std::uint64_t> runs = {1, HeapWalk::kIterations, 1};
  EXPECT_LE(chargedAt(c.decoded->functions()[0], runs, hitExtra(c, 2)) +
                c.decoded->coldPenalty() * c.golden.stats.cacheLevel[2].misses,
            4 * c.golden.stats.cycles);
  const std::vector<LaneVerdict> verdicts = lanesAgainstReference(
      c, {{{{c.ordinal(c.stride), 0, 7}}}}, "heap walk", nullptr, 4);
  EXPECT_EQ(verdicts[0].end, LaneEnd::kFallbackTiming);
  EXPECT_EQ(verdicts[0].rerun.exit, ExitKind::kTimeout);
  expectCampaignMatchesFull(c, 4);
}

// Loads two words of `hot` kIterations times, both loads in one bundle of
// the loop: golden's loads hit L1 after the first.  Bit 13 of the base
// sends both of the lane's loads of every iteration to one heap line that
// golden never touches, so the lane counts two accesses to lines golden's
// L3 lacks per bundle, while its own cache misses that line once.
struct ColdPair : Crafted {
  static constexpr std::int64_t kIterations = 200;
  DefSite base, load;

  ColdPair() {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    const std::uint64_t hot = program.allocateGlobal("hot", 16);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    base = nextSite(b);
    const Reg p = b.movImm(static_cast<std::int64_t>(hot));
    const Reg acc = b.movImm(0);
    const Reg i = b.movImm(0);
    b.br(loop);
    b.setBlock(loop);
    load = nextSite(b);
    b.binaryTo(Opcode::kAdd, acc, acc, b.add(b.load(p, 0), b.load(p, 8)));
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, kIterations), loop, done);
    b.setBlock(done);
    b.store(outBase, 0, acc);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, ABundleOfAccessesToOneColdLinePaysThePenaltyOnce) {
  // A bundle's accesses overlap their misses, so the lane's bound charges
  // the cold penalty at most once per bundle.  Capped, its bound (at most
  // every bundle at the memory latency, over the whole run) fits under
  // the watchdog at timeout factor 40; a penalty per cold access would
  // pass it on the lane's own accesses alone.  The lane is decided
  // exactly.
  const ColdPair c;
  ASSERT_TRUE(c.decoded->lastLevelKeepsArena());
  const DecodedFunction& fn = c.decoded->functions()[0];
  ASSERT_EQ(fn.blocks[c.load.block].plan.bundleSizes,
            std::vector<std::uint32_t>{2});
  constexpr std::uint64_t kFactor = 40;
  const std::vector<std::uint64_t> runs = {1, ColdPair::kIterations, 1};
  EXPECT_LE(chargedAt(fn, runs,
                      c.config.cache.memoryLatency - c.config.latencies.mem),
            kFactor * c.golden.stats.cycles);
  EXPECT_GT(c.decoded->coldPenalty() * 2 * ColdPair::kIterations,
            kFactor * c.golden.stats.cycles);
  const std::vector<LaneVerdict> verdicts = lanesAgainstReference(
      c, {{{{c.ordinal(c.base), 0, 13}}}}, "cold pair", nullptr, kFactor);
  EXPECT_EQ(verdicts[0].end, LaneEnd::kHalted)
      << "ended as " << laneEndName(verdicts[0].end);
  EXPECT_TRUE(verdicts[0].diverged);
  expectCampaignMatchesFull(c, kFactor);
}

// The heap fills the arena's last kHeapBytes, so bit 20 (kHeapBytes) of an
// address inside the last global moves it to the same offset in the
// arena's last 8 bytes.  Through `edgeBase` the lane stores to the arena's
// last word and loads it back, and reads its own (unstored) `edge` through
// a second base: 77 + 0 reaches the output where golden's is 77 + 77.
// Through `pastBase`, golden loads the heap's first word and the lane the
// word one past the arena's end.
struct ArenaEdge : Crafted {
  std::uint64_t edge = 0;
  DefSite edgeBase, pastBase;

  ArenaEdge() {
    const std::uint64_t out = program.allocateGlobal("output", 16);
    edge = program.allocateGlobal("edge", 8);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    b.setBlock(b.createBlock("entry"));
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    edgeBase = nextSite(b);
    const Reg p = b.movImm(static_cast<std::int64_t>(edge));
    b.store(p, 0, b.movImm(77));
    const Reg q = b.movImm(static_cast<std::int64_t>(edge));
    b.store(outBase, 0, b.add(b.load(p, 0), b.load(q, 0)));
    pastBase = nextSite(b);
    const Reg r = b.movImm(static_cast<std::int64_t>(edge));
    b.store(outBase, 8, b.load(r, 8));
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, LanesAtTheArenasLastWordAndPastItsEnd) {
  const ArenaEdge c;
  constexpr std::uint32_t kBit = 20;
  ASSERT_EQ(1ULL << kBit, kHeapBytes);
  const std::uint64_t arenaEnd = c.program.globalEnd() + kHeapBytes;
  ASSERT_EQ((c.edge ^ (1ULL << kBit)) + 8, arenaEnd);
  const std::vector<LaneVerdict> verdicts = lanesAgainstReference(
      c,
      {{{{c.ordinal(c.edgeBase), 0, kBit}}},
       {{{c.ordinal(c.pastBase), 0, kBit}}}},
      "arena edge");
  EXPECT_EQ(verdicts[0].end, LaneEnd::kHalted)
      << "ended as " << laneEndName(verdicts[0].end);
  EXPECT_TRUE(verdicts[0].corrupt);
  EXPECT_TRUE(verdicts[0].diverged);
  EXPECT_EQ(verdicts[1].end, LaneEnd::kException)
      << "ended as " << laneEndName(verdicts[1].end);
  expectCampaignMatchesFull(c, 20);
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
  const std::vector<LaneVerdict> verdicts =
      lanesAgainstRuns(runner, c.golden, plans, 20, "entry return");
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].end, LaneEnd::kHalted);
  EXPECT_TRUE(verdicts[0].corrupt);
  EXPECT_EQ(verdicts[1].end, LaneEnd::kHalted);
  EXPECT_FALSE(verdicts[1].corrupt);
  expectCampaignMatchesFull(c, 20);
}

// Every site of one def ordinal, as exhaustive enumeration windows them:
// a gp def whose low 16 bits reach the output, whose sign bit is a
// select's predicate and whose other bits are masked away; a predicate
// def; and a call that returns two values, the first stored, the second
// masked.
struct OneOrdinal : Crafted {
  DefSite word, predicate, pairCall;

  OneOrdinal() {
    const std::uint64_t out = program.allocateGlobal("output", 32);
    ir::Function& pair = program.addFunction("pair");
    {
      const Reg x = pair.newReg(RegClass::kGp);
      pair.params() = {x};
      pair.returnClasses() = {RegClass::kGp, RegClass::kGp};
      IrBuilder b(pair);
      b.setBlock(b.createBlock("body"));
      const Reg kept = b.andImm(x, 0xFF00);
      b.ret({kept, b.addImm(x, 1)});
    }
    ir::Function& main = program.addFunction("main");
    program.setEntryFunction(main.id());
    IrBuilder b(main);
    b.setBlock(b.createBlock("entry"));
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    word = nextSite(b);
    const Reg v = b.movImm(0x0123456789ABCDEF);
    b.store(outBase, 0, b.andImm(v, 0xFFFF));
    predicate = nextSite(b);
    const Reg negative = b.cmpLtImm(v, 0);
    const Reg one = b.movImm(1);
    const Reg two = b.movImm(2);
    b.store(outBase, 8, b.select(negative, one, two));
    pairCall = nextSite(b);
    const std::vector<Reg> pairOut = b.call(pair, {v});
    b.store(outBase, 16, pairOut[0]);
    b.store(outBase, 24, b.andImm(pairOut[1], 0));
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, EverySiteOfOneOrdinalSharesAWindow) {
  const OneOrdinal c;
  // One window per ordinal, with the output each lane must corrupt.
  struct Window {
    std::vector<FaultPlan> plans;
    std::vector<bool> corrupt;
  };
  std::vector<Window> windows(3);
  for (std::uint32_t bit = 0; bit < 64; ++bit) {
    windows[0].plans.push_back({{{c.ordinal(c.word), 0, bit}}});
    windows[0].corrupt.push_back(bit < 16 || bit == 63);
  }
  windows[1].plans.push_back({{{c.ordinal(c.predicate), 0, 0}}});
  windows[1].corrupt.push_back(true);
  // The sampler draws whichDef in [0, 4); a two-value call takes it
  // modulo 2.
  for (std::uint32_t whichDef = 0; whichDef < 4; ++whichDef) {
    for (const std::uint32_t bit : {8u, 63u}) {
      windows[2].plans.push_back({{{c.ordinal(c.pairCall), whichDef, bit}}});
      windows[2].corrupt.push_back(whichDef % 2 == 0);
    }
  }
  DecodedRunner runner(*c.decoded);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::vector<LaneVerdict> verdicts =
        lanesAgainstRuns(runner, c.golden, windows[w].plans, 20,
                         "window " + std::to_string(w));
    ASSERT_EQ(verdicts.size(), windows[w].plans.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      // No branch follows a flip, so every lane is decided.
      EXPECT_FALSE(isFallback(verdicts[i].end)) << w << " lane " << i;
      EXPECT_EQ(verdicts[i].corrupt, windows[w].corrupt[i])
          << w << " lane " << i;
    }
  }

  fault::ExhaustiveOptions options;
  options.mode = fault::InjectionMode::kFull;
  const fault::GroundTruthReport full =
      fault::enumerateFaultSpace(c.program, c.schedule, c.config, options);
  options.mode = fault::InjectionMode::kCheckpointed;
  EXPECT_TRUE(full == fault::enumerateFaultSpace(c.program, c.schedule,
                                                 c.config, options));
  // 64 sites per gp def, one for the predicate and 2 x 64 for the call.
  EXPECT_EQ(full.sites, (c.golden.stats.dynamicDefInsns - 2) * 64 + 1 + 128);
}

// Every site of one def ordinal as one window, as enumeration runs them:
// 64 lanes per gp or fp def and one per predicate, so 64 to 192 lanes for
// a call that returns one to three values.
std::vector<FaultPlan> ordinalWindow(const ir::Program& program,
                                     const DefSite& site,
                                     std::uint64_t ordinal) {
  const ir::Instruction& insn =
      program.function(site.func).block(site.block).insns()[site.node];
  std::vector<FaultPlan> plans;
  for (std::uint32_t d = 0; d < insn.defs.size(); ++d) {
    const std::uint32_t bits = insn.defs[d].cls == RegClass::kPr ? 1 : 64;
    for (std::uint32_t bit = 0; bit < bits; ++bit) {
      plans.push_back({{{ordinal, d, bit}}});
    }
  }
  return plans;
}

// A def that its own next op masks in place: the lanes that flipped one of
// its low 8 bits still differ there and reach the output, and every other
// lane now equals golden, so it leaves the slot and reconverges.
struct MaskedInPlace : Crafted {
  DefSite value;

  MaskedInPlace() {
    const std::uint64_t out = program.allocateGlobal("output", 8);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    b.setBlock(b.createBlock("entry"));
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    value = nextSite(b);
    const Reg v = b.movImm(0x0123456789ABCDEF);
    b.emit(Opcode::kAndImm, {v}, {v}).imm = 0xFF;
    b.store(outBase, 0, v);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, EnumerationWindowsBatchEveryOpOfRandomPrograms) {
  // Wide batches: one op evaluated for every lane of a window that differs
  // in one slot, each lane's value at its own rank of the slot's packed
  // values.  First a window whose def write-back must drop the lanes that
  // came out equal to golden's value.
  const MaskedInPlace masked;
  const std::vector<LaneVerdict> maskedVerdicts = lanesAgainstRuns(
      *masked.decoded, masked.golden,
      ordinalWindow(masked.program, masked.value,
                    masked.ordinal(masked.value)),
      20, "masked in place");
  ASSERT_EQ(maskedVerdicts.size(), 64u);
  for (std::uint32_t bit = 0; bit < 64; ++bit) {
    EXPECT_EQ(maskedVerdicts[bit].end,
              bit < 8 ? LaneEnd::kHalted : LaneEnd::kReconverged)
        << "bit " << bit;
    EXPECT_EQ(maskedVerdicts[bit].corrupt, bit < 8) << "bit " << bit;
  }

  // Then the random CFG programs, with and without calls, under every
  // scheme: the window of the first execution of every static def site,
  // so the lanes reach every op the generator and the schemes emit (ALU
  // ops of all three classes, loads, stores, checks, selects, calls and
  // returns, branches).  Each lane is checked against its whole run.  The
  // calling programs recurse: in NOED, the lanes that flip a high bit of
  // the depth a frame passes down fall back at the recursion's last
  // branch, and their re-runs go past kMaxCallDepth.
  const std::size_t seeds = testutil::testTrials(8);
  std::size_t widest = 0;
  std::size_t overflows = 0;
  for (const bool calls : {false, true}) {
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      const passes::Scheme scheme =
          passes::kAllSchemes[seed % std::size(passes::kAllSchemes)];
      const core::CompiledProgram bin =
          core::compile(testutil::makeRandomCfgProgram(seed, 4, 8, calls),
                        testutil::machine(2, 1 + seed % 2), scheme);
      const std::string context = std::string(calls ? "calling " : "") +
                                  "cfg seed " + std::to_string(seed) + " " +
                                  passes::schemeName(scheme);
      std::vector<DefSite> trace;
      SimOptions traced;
      traced.defTrace = &trace;
      const RunResult golden = runDecoded(*bin.decoded, traced);
      ASSERT_EQ(golden.exit, ExitKind::kHalted) << context;
      DecodedRunner runner(*bin.decoded);
      std::vector<DefSite> windowed;
      for (std::uint64_t ordinal = 0; ordinal < trace.size(); ++ordinal) {
        if (std::find(windowed.begin(), windowed.end(), trace[ordinal]) !=
            windowed.end()) {
          continue;
        }
        windowed.push_back(trace[ordinal]);
        const std::vector<FaultPlan> plans =
            ordinalWindow(bin.program, trace[ordinal], ordinal);
        widest = std::max(widest, plans.size());
        const std::vector<LaneVerdict> verdicts =
            lanesAgainstRuns(runner, golden, plans, 20,
                             context + " ordinal " + std::to_string(ordinal));
        overflows += static_cast<std::size_t>(std::count_if(
            verdicts.begin(), verdicts.end(), [](const LaneVerdict& lane) {
              return isFallback(lane.end) &&
                     lane.rerun.trap == TrapKind::kStackOverflow;
            }));
      }
    }
  }
  EXPECT_GE(widest, 128u) << "no call returned two gp or fp values";
  EXPECT_GT(overflows, 0u) << "no re-run went past the call-depth limit";
}

// One op under test, `op`, on operands defined just before it (one def
// site per operand), its result stored to the output, then a load whose
// base a later flip can send out of the arena and a check whose operand a
// later flip can change.  The operand values make the op mask some flips
// and pass others: a divisor of 1 (bit 0 makes it 0), 1.5 as f2i's input
// (an exponent bit makes it out of range), a shift of 3 (a flip of bit 6
// or above is masked), and a memory op's base 8 bytes into a scratch
// region (bits 0-2 misalign it, bit 40 leaves the arena).  A check reads
// equal operands, and trapif a false predicate, so the golden run halts.
// A store's effect reaches the output through a copy of the scratch words
// it can reach.
struct MixedBatch : Crafted {
  Opcode op;
  std::uint32_t uses = 0;
  DefSite operand[3];
  DefSite trapBase, checked;

  explicit MixedBatch(Opcode opcode) : op(opcode) {
    const ir::OpcodeInfo& info = ir::opcodeInfo(op);
    uses = info.useCount;
    const std::uint64_t out = program.allocateGlobal("output", 128);
    // Scratch words: 0x99 at every fourth word from word 2, else 0x55, so
    // a load whose base moved reads a word equal to golden's or not.
    std::vector<std::uint8_t> image(4096);
    for (std::size_t word = 0; word < image.size() / 8; ++word) {
      image[word * 8] = word % 4 == 2 ? 0x99 : 0x55;
    }
    const std::uint64_t scratch = program.allocateGlobal("scratch", image);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    b.setBlock(b.createBlock("entry"));
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    std::vector<Reg> operands;
    for (std::uint32_t i = 0; i < uses; ++i) {
      operand[i] = nextSite(b);
      operands.push_back(operandValue(b, info, i, scratch));
    }
    std::vector<Reg> defs;
    if (info.defCount == 1) {
      defs.push_back(fn.newReg(info.defClass));
    }
    // A shift or an immediate operand of 3; a memory op's offset of 8.
    b.emit(op, defs, operands).imm = info.isLoad || info.isStore ? 8 : 3;
    if (info.defCount == 1) {
      storeResult(b, outBase, defs[0]);
    }
    if (info.isStore) {
      const Reg from = b.movImm(static_cast<std::int64_t>(scratch));
      for (std::int64_t word = 0; word < 12; ++word) {
        b.store(outBase, 16 + 8 * word, b.load(from, 8 * word));
      }
    }
    trapBase = nextSite(b);
    b.store(outBase, 8,
            b.load(b.movImm(static_cast<std::int64_t>(scratch)), 0));
    checked = nextSite(b);
    const Reg shadow = b.movImm(77);
    b.emit(Opcode::kCheckG, {}, {b.movImm(77), shadow}).origin =
        ir::InsnOrigin::kCheck;
    b.halt(b.movImm(0));
    finish();
  }

  static Reg operandValue(IrBuilder& b, const ir::OpcodeInfo& info,
                          std::uint32_t i, std::uint64_t scratch) {
    if (info.isLoad || (info.isStore && i == 0)) {
      return b.movImm(static_cast<std::int64_t>(scratch + 8));
    }
    switch (info.useClass[i]) {
      case RegClass::kGp:
        return b.movImm(i == 0 || info.isCheck ? 0x1234 : i == 1 ? 1 : 7);
      case RegClass::kFp:
        return b.fMovImm(i == 0 || info.isCheck ? 1.5 : 0.25);
      default:
        return b.pSetImm(!info.isCheck && i == 0);
    }
  }

  static void storeResult(IrBuilder& b, Reg outBase, Reg result) {
    switch (result.cls) {
      case RegClass::kGp:
        b.store(outBase, 0, result);
        break;
      case RegClass::kFp:
        b.fStore(outBase, 0, result);
        break;
      default:
        b.store(outBase, 0, b.select(result, b.movImm(1), b.movImm(2)));
        break;
    }
  }

  // The plan of lane `k` of a window: kinds cycle so that every LaneSet
  // word holds each one, and the flipped bit walks all 64 (13 is odd).
  // Every kind flips an operand, so every lane is in the op's batch:
  //   0, 1: one operand;
  //   2:    two operands at the same bit (a check then reads equal
  //         values again), or one at another bit;
  //   3:    as 2, then the later load's base: an exception unless the
  //         op trapped or fired first;
  //   4:    an operand, then the later check's operand: detected.
  FaultPlan plan(std::size_t k) const {
    const auto bit = static_cast<std::uint32_t>((k * 13) % 64);
    const std::uint32_t i = static_cast<std::uint32_t>(k % uses);
    const std::uint64_t first = ordinal(operand[i]);
    FaultPlan plan{{{first, 0, bit}}};
    switch (k % 5) {
      case 2:
      case 3:
        if (uses > 1) {
          const std::uint64_t second = ordinal(operand[(i + 1) % uses]);
          plan.points = {{std::min(first, second), 0, bit},
                         {std::max(first, second), 0, bit}};
        } else {
          plan.points[0].bit = (bit + 32) % 64;
        }
        if (k % 5 == 3) {
          plan.points.push_back({ordinal(trapBase), 0, 40});
        }
        break;
      case 4:
        plan.points.push_back({ordinal(checked), 0, bit});
        break;
      default:
        break;
    }
    return plan;
  }
};

// Runs lanes 0..n-1 of `c` as one window against the reference engine.
std::vector<LaneVerdict> lanesAgainstReference(const MixedBatch& c,
                                               std::size_t n,
                                               const std::string& context) {
  std::vector<FaultPlan> plans;
  for (std::size_t k = 0; k < n; ++k) {
    plans.push_back(c.plan(k));
  }
  return lanesAgainstReference(c, plans, context);
}

TEST(LockstepTest, MixedBatchesOfEveryKernelMatchTheReferenceEngine) {
  // Each kernel class runs in windows of 1, 63, 64, 65 and 256 lanes (the
  // LaneSet word boundaries), so one batch of the op under test holds
  // lanes whose result differs from golden's, lanes whose result equals
  // it, and lanes that go on to trap or to fire a check, in every word of
  // the set; at the trapping ops and the checks, some lanes of the batch
  // trap or fire there.  Every lane must agree with its reference run.
  struct KernelClass {
    const char* name;
    std::vector<Opcode> ops;
  };
  const std::vector<KernelClass> classes = {
      {"integer ALU",
       {Opcode::kMov, Opcode::kAdd, Opcode::kSub, Opcode::kMul, Opcode::kAnd,
        Opcode::kOr, Opcode::kXor, Opcode::kShl, Opcode::kShr, Opcode::kSra,
        Opcode::kMin, Opcode::kMax, Opcode::kNeg, Opcode::kAbs, Opcode::kNot,
        Opcode::kSelect}},
      {"integer ALU with an immediate",
       {Opcode::kAddImm, Opcode::kMulImm, Opcode::kAndImm, Opcode::kShlImm,
        Opcode::kShrImm, Opcode::kSraImm}},
      {"compares",
       {Opcode::kCmpEq, Opcode::kCmpNe, Opcode::kCmpLt, Opcode::kCmpLe,
        Opcode::kCmpGt, Opcode::kCmpGe, Opcode::kCmpEqImm, Opcode::kCmpNeImm,
        Opcode::kCmpLtImm, Opcode::kCmpLeImm, Opcode::kCmpGtImm,
        Opcode::kCmpGeImm, Opcode::kFCmpEq, Opcode::kFCmpLt, Opcode::kFCmpLe,
        Opcode::kFCmpNeBits}},
      {"predicate ops",
       {Opcode::kPMov, Opcode::kPNot, Opcode::kPAnd, Opcode::kPOr,
        Opcode::kPXor}},
      {"FP ops",
       {Opcode::kFMov, Opcode::kFAdd, Opcode::kFSub, Opcode::kFMul,
        Opcode::kFDiv, Opcode::kFMin, Opcode::kFMax, Opcode::kFNeg,
        Opcode::kFAbs, Opcode::kFSqrt, Opcode::kI2F}},
      {"div and rem", {Opcode::kDiv, Opcode::kRem}},
      {"f2i", {Opcode::kF2I}},
      {"loads", {Opcode::kLoad, Opcode::kLoadB, Opcode::kFLoad}},
      {"stores", {Opcode::kStore, Opcode::kStoreB, Opcode::kFStore}},
      {"checks",
       {Opcode::kCheckG, Opcode::kCheckF, Opcode::kCheckP, Opcode::kTrapIf}},
  };
  // Every opcode with a kernel and an operand is in some class.
  std::vector<Opcode> covered;
  for (const KernelClass& kernelClass : classes) {
    covered.insert(covered.end(), kernelClass.ops.begin(),
                   kernelClass.ops.end());
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(Opcode::kOpcodeCount);
       ++i) {
    const auto op = static_cast<Opcode>(i);
    const ir::OpcodeInfo& info = ir::opcodeInfo(op);
    if (info.useCount > 0 && !info.variableArity && !info.isTerminator) {
      EXPECT_NE(std::find(covered.begin(), covered.end(), op), covered.end())
          << info.name;
    }
  }

  for (const KernelClass& kernelClass : classes) {
    // Over the class's 256-lane windows: lanes that trap, that fire a
    // check, that end with an output other than golden's and with
    // golden's.
    std::size_t trapped = 0, detected = 0, corrupt = 0, clean = 0;
    for (const Opcode op : kernelClass.ops) {
      const MixedBatch c(op);
      for (const std::size_t n : {1u, 63u, 64u, 65u, 256u}) {
        const std::vector<LaneVerdict> verdicts = lanesAgainstReference(
            c, n,
            std::string(ir::opcodeInfo(op).name) + " x" + std::to_string(n));
        if (n != 256) {
          continue;
        }
        for (const LaneVerdict& lane : verdicts) {
          trapped += lane.end == LaneEnd::kException ? 1 : 0;
          detected += lane.end == LaneEnd::kDetected ? 1 : 0;
          const bool decidedRun = lane.end == LaneEnd::kHalted ||
                                  lane.end == LaneEnd::kReconverged;
          corrupt += decidedRun && lane.corrupt ? 1 : 0;
          clean += decidedRun && !lane.corrupt ? 1 : 0;
        }
      }
    }
    EXPECT_GT(trapped, 0u) << kernelClass.name;
    EXPECT_GT(detected, 0u) << kernelClass.name;
    EXPECT_GT(clean, 0u) << kernelClass.name;
    if (std::string(kernelClass.name) != "checks") {
      EXPECT_GT(corrupt, 0u) << kernelClass.name;
    }
  }
}

TEST(LockstepTest, RandomProgramsWithMultiFlipPlansMatchWholeRuns) {
  // The engine differential test's random CFG programs, with and without
  // calls, under every scheme, with about three flips per plan.  The
  // reference engine is the oracle of the golden run and of every
  // fallback (expectLaneMatchesRun), so the stream's and the re-runs'
  // timing are checked against the other engine too.
  const std::size_t seeds = testutil::testTrials(30);
  for (const bool calls : {false, true}) {
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      const ir::Program source =
          testutil::makeRandomCfgProgram(seed, 4, 8, calls);
      for (const passes::Scheme scheme : passes::kAllSchemes) {
        const core::CompiledProgram bin =
            core::compile(source, testutil::machine(2, 1 + seed % 2), scheme);
        const std::string context = std::string(calls ? "calling " : "") +
                                    "cfg seed " + std::to_string(seed) + " " +
                                    passes::schemeName(scheme);
        SimOptions reference;
        reference.engine = Engine::kReference;
        const RunResult golden = runDecoded(*bin.decoded, {});
        testutil::expectIdentical(
            simulate(bin.program, bin.schedule, bin.machine, reference),
            golden, context + " golden");
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
        const std::vector<LaneVerdict> verdicts =
            lanesAgainstRuns(*bin.decoded, golden, plans, 20, context);
        reference.maxCycles = golden.stats.cycles * 20;
        for (std::size_t i = 0; i < plans.size(); ++i) {
          if (isFallback(verdicts[i].end)) {
            reference.faultPlan = &plans[i];
            expectLaneMatchesRun(
                verdicts[i],
                simulate(bin.program, bin.schedule, bin.machine, reference),
                golden, context + " reference lane " + std::to_string(i));
          }
        }

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
}

// A loop that stores one value per iteration to its own output word: a
// flip of any bit of `value` corrupts that word, so the lane lives to the
// end (no check reads it).  Windows of these lanes fill every slot.
struct OutputLoop : Crafted {
  static constexpr std::int64_t kIterations = 128;
  DefSite value;

  OutputLoop() {
    const std::uint64_t out = program.allocateGlobal("output", 8 * kIterations);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    const Reg base = b.movImm(static_cast<std::int64_t>(out));
    const Reg i = b.movImm(0);
    b.br(loop);
    b.setBlock(loop);
    value = nextSite(b);
    const Reg v = b.addImm(i, 1000);
    b.store(b.add(base, b.shlImm(i, 3)), 0, v);
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, kIterations), loop, done);
    b.setBlock(done);
    b.halt(b.movImm(0));
    finish();
  }

  // Plan k flips bit k % 61 of the value of iteration k / 8: eight plans
  // per ordinal, all of them live to the end.
  std::vector<FaultPlan> plans(std::size_t n) const {
    std::vector<FaultPlan> out;
    for (std::size_t k = 0; k < n; ++k) {
      out.push_back({{{ordinal(value, k / 8), 0,
                       static_cast<std::uint32_t>(k % 61)}}});
    }
    return out;
  }
};

TEST(LockstepTest, PlansBeyondTheSlotsDeferToFurtherStreams) {
  // Every lane holds its slot to the end, so a window of more than
  // kMaxLanes plans fills the slots and defers the rest, in first-ordinal
  // order, to a stream of its own from reset; each lane must still agree
  // with its whole run on the reference engine, and its verdict must land
  // at its plan's index, which is no longer its slot's.
  const OutputLoop c;
  for (const std::size_t n : {257u, 1000u}) {
    const std::string context = "window of " + std::to_string(n);
    // Handed over in reverse: a plan's index and its first-ordinal order
    // disagree too.
    std::vector<FaultPlan> plans = c.plans(n);
    std::reverse(plans.begin(), plans.end());
    LockstepStream stream;
    const std::vector<LaneVerdict> verdicts =
        lanesAgainstReference(c, plans, context, &stream);
    const std::uint64_t streams =
        (n + DecodedRunner::kMaxLanes - 1) / DecodedRunner::kMaxLanes;
    EXPECT_EQ(stream.streams, streams) << context;
    // The plans of stream s are deferred s times.
    std::uint64_t deferred = 0;
    for (std::uint64_t s = 1; s < streams; ++s) {
      deferred += n - s * DecodedRunner::kMaxLanes;
    }
    EXPECT_EQ(stream.deferred, deferred) << context;
    EXPECT_EQ(stream.insns, streams * c.golden.stats.dynamicInsns) << context;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i].end, LaneEnd::kHalted) << context << " " << i;
      EXPECT_TRUE(verdicts[i].corrupt) << context << " " << i;
    }
  }
  expectCampaignMatchesFull(c, 20);
}

// A loop whose value is stored to its own output word and then checked
// against a shadow, so a flipped value is detected with its word diff
// still live; a dead value, masked and then redefined, whose lane
// reconverges there.  The output words are summed
// at the end, so a diff that outlived its lane would be read.
struct CheckedLoop : Crafted {
  static constexpr std::int64_t kIterations = 40;
  DefSite value, dead;

  CheckedLoop() {
    const std::uint64_t out =
        program.allocateGlobal("output", 8 * (kIterations + 2));
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& sum = b.createBlock("sum");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    const Reg base = b.movImm(static_cast<std::int64_t>(out));
    const Reg i = b.movImm(0);
    const Reg t = b.movImm(3);
    b.br(loop);
    b.setBlock(loop);
    value = nextSite(b);
    const Reg v = b.addImm(i, 1000);
    const Reg shadow = b.addImm(i, 1000);
    dead = nextSite(b);
    b.movImmTo(t, 3);
    b.store(base, 8 * kIterations, b.andImm(t, 0));
    b.movImmTo(t, 5);
    b.store(b.add(base, b.shlImm(i, 3)), 0, v);
    b.emit(Opcode::kCheckG, {}, {v, shadow}).origin = ir::InsnOrigin::kCheck;
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, kIterations), loop, sum);
    b.setBlock(sum);
    const Reg k = b.movImm(0);
    const Reg total = b.movImm(0);
    b.br(done);
    b.setBlock(done);
    b.binaryTo(Opcode::kAdd, total, total,
               b.load(b.add(base, b.shlImm(k, 3)), 0));
    b.addImmTo(k, k, 1);
    ir::BasicBlock& halt = b.createBlock("halt");
    b.brCond(b.cmpLtImm(k, kIterations), done, halt);
    b.setBlock(halt);
    b.store(base, 8 * (kIterations + 1), total);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, ADecidedLanesSlotServesALaterPlanInTheSameStream) {
  // 320 plans, eight per iteration: six flips of the value, detected in
  // the iteration with a word diff live, and two of the dead value, which
  // reconverge at its redefinition.  Few lanes are live at once, so one
  // stream takes every plan, the later ones in slots the earlier ones
  // freed: nothing of a slot's last lane (its diffs, its lane ops) may
  // reach the next.
  const CheckedLoop c;
  std::vector<FaultPlan> plans;
  for (std::size_t iteration = 0; iteration < CheckedLoop::kIterations;
       ++iteration) {
    for (const std::uint32_t bit : {0u, 3u, 9u, 17u, 40u, 63u}) {
      plans.push_back({{{c.ordinal(c.value, iteration), 0, bit}}});
    }
    for (const std::uint32_t bit : {1u, 33u}) {
      plans.push_back({{{c.ordinal(c.dead, iteration), 0, bit}}});
    }
  }
  ASSERT_GT(plans.size(), DecodedRunner::kMaxLanes);
  LockstepStream stream;
  const std::vector<LaneVerdict> verdicts =
      lanesAgainstReference(c, plans, "checked loop", &stream);
  EXPECT_EQ(stream.streams, 1u);
  EXPECT_EQ(stream.deferred, 0u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(verdicts[i].end,
              i % 8 < 6 ? LaneEnd::kDetected : LaneEnd::kReconverged)
        << i;
  }
  // Each lane's lane ops are those it has alone.
  DecodedRunner runner(*c.decoded);
  for (const std::size_t i : {0u, 7u, 255u, 300u, 319u}) {
    std::vector<LaneVerdict> alone;
    runWindow(runner, c.golden, {plans[i]}, 20, alone, "alone");
    EXPECT_EQ(verdicts[i].laneOps, alone[0].laneOps) << i;
  }
  expectCampaignMatchesFull(c, 20);
}

// Two flips that reconverge early in a run with a long tail: a dead value
// that is masked and redefined, and a load base whose bit 6 sends the
// lane's load to another line of a zeroed table (the loaded value is
// golden's) before it is redefined.
struct ReconvergesEarly : Crafted {
  DefSite dead, loadBase;

  ReconvergesEarly() {
    const std::uint64_t out = program.allocateGlobal("output", 16);
    const std::uint64_t table = program.allocateGlobal("table", 256);
    ir::Function& fn = program.addFunction("main");
    IrBuilder b(fn);
    ir::BasicBlock& entry = b.createBlock("entry");
    ir::BasicBlock& loop = b.createBlock("loop");
    ir::BasicBlock& done = b.createBlock("done");
    b.setBlock(entry);
    const Reg outBase = b.movImm(static_cast<std::int64_t>(out));
    dead = nextSite(b);
    const Reg t = b.movImm(3);
    b.store(outBase, 0, b.andImm(t, 0));
    b.movImmTo(t, 5);
    loadBase = nextSite(b);
    const Reg p = b.movImm(static_cast<std::int64_t>(table));
    b.store(outBase, 8, b.load(p, 0));
    b.movImmTo(p, 0);
    const Reg i = b.movImm(0);
    b.br(loop);
    b.setBlock(loop);
    b.addImmTo(i, i, 1);
    b.brCond(b.cmpLtImm(i, 200), loop, done);
    b.setBlock(done);
    b.halt(b.movImm(0));
    finish();
  }
};

TEST(LockstepTest, AnUndivergedLaneIsDecidedWhereItReconverges) {
  // The dead value's lane never left golden's lines: it is decided benign,
  // with golden's instruction count, where it reconverges, and the stream
  // stops there.  The load-base lane reconverges as early, but its address
  // left golden's line, so its cycle bound waits for golden's end.
  const ReconvergesEarly c;
  const std::uint64_t goldenInsns = c.golden.stats.dynamicInsns;
  LockstepStream stream;
  const std::vector<LaneVerdict> early = lanesAgainstReference(
      c, {{{{c.ordinal(c.dead), 0, 4}}}}, "dead value", &stream);
  EXPECT_EQ(early[0].end, LaneEnd::kReconverged);
  EXPECT_EQ(early[0].dynamicInsns, goldenInsns);
  EXPECT_LT(stream.insns + 400, goldenInsns);

  const std::vector<LaneVerdict> late = lanesAgainstReference(
      c, {{{{c.ordinal(c.loadBase), 0, 6}}}}, "load base", &stream);
  EXPECT_EQ(late[0].end, LaneEnd::kReconverged);
  EXPECT_EQ(late[0].dynamicInsns, goldenInsns);
  EXPECT_EQ(stream.insns, goldenInsns);
  expectCampaignMatchesFull(c, 20);

  // A golden instruction count other than the stream's is refused.
  DecodedRunner runner(*c.decoded);
  const FaultPlan plan{{{c.ordinal(c.loadBase), 0, 6}}};
  std::vector<LaneVerdict> verdicts;
  SimOptions options;
  options.maxCycles = c.golden.stats.cycles * 20;
  EXPECT_THROW(runner.runLockstep(options, {&plan}, verdicts, goldenInsns + 1),
               FatalError);
}

}  // namespace
}  // namespace casted::sim
