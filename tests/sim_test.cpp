#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "ir/builder.h"
#include "sched/list_scheduler.h"
#include "sim/memory.h"
#include "sim/simulator.h"
#include "support/check.h"
#include "test_util.h"

namespace casted::sim {
namespace {

using ir::IrBuilder;
using ir::Opcode;
using ir::Program;
using ir::Reg;
using ir::RegClass;

// Runs `prog` on the default machine and returns the result.
RunResult runProgram(const Program& prog, SimOptions options = {}) {
  const arch::MachineConfig config = testutil::machine(2, 1);
  const sched::ProgramSchedule schedule =
      sched::scheduleProgram(prog, config);
  return simulate(prog, schedule, config, std::move(options));
}

std::int64_t outputWord(const RunResult& result, std::size_t index = 0) {
  std::int64_t value = 0;
  std::memcpy(&value, result.output.data() + index * 8, 8);
  return value;
}

// Builds `out[0] = <body>(...)` and runs it.
template <typename Body>
RunResult runExpr(Body&& body) {
  Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 16);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base = b.movImm(static_cast<std::int64_t>(out));
  const Reg result = body(b);
  b.store(base, 0, result);
  b.halt(b.movImm(0));
  return runProgram(prog);
}

// --- integer semantics (parameterised over operations) ---------------------

struct IntCase {
  const char* name;
  Opcode op;
  std::int64_t a;
  std::int64_t b;
  std::int64_t expected;
};

class IntSemanticsTest : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntSemanticsTest, BinaryOp) {
  const IntCase c = GetParam();
  const RunResult result = runExpr([&](IrBuilder& b) {
    const Reg lhs = b.movImm(c.a);
    const Reg rhs = b.movImm(c.b);
    ir::Instruction& insn =
        b.emit(c.op, {b.function().newReg(RegClass::kGp)}, {lhs, rhs});
    return insn.defs[0];
  });
  ASSERT_EQ(result.exit, ExitKind::kHalted);
  EXPECT_EQ(outputWord(result), c.expected) << c.name;
}

constexpr std::int64_t kMin64 = std::numeric_limits<std::int64_t>::min();

INSTANTIATE_TEST_SUITE_P(
    Ops, IntSemanticsTest,
    ::testing::Values(
        IntCase{"add", Opcode::kAdd, 5, 7, 12},
        IntCase{"add-wrap", Opcode::kAdd, 0x7fffffffffffffff, 1, kMin64},
        IntCase{"sub", Opcode::kSub, 5, 7, -2},
        IntCase{"mul", Opcode::kMul, -3, 7, -21},
        IntCase{"div", Opcode::kDiv, 22, 7, 3},
        IntCase{"div-neg", Opcode::kDiv, -22, 7, -3},
        IntCase{"div-minwrap", Opcode::kDiv, kMin64, -1, kMin64},
        IntCase{"rem", Opcode::kRem, 22, 7, 1},
        IntCase{"rem-minwrap", Opcode::kRem, kMin64, -1, 0},
        IntCase{"and", Opcode::kAnd, 0b1100, 0b1010, 0b1000},
        IntCase{"or", Opcode::kOr, 0b1100, 0b1010, 0b1110},
        IntCase{"xor", Opcode::kXor, 0b1100, 0b1010, 0b0110},
        IntCase{"shl", Opcode::kShl, 3, 4, 48},
        IntCase{"shl-mask", Opcode::kShl, 1, 65, 2},
        IntCase{"shr-logical", Opcode::kShr, -8, 1,
                static_cast<std::int64_t>(0x7ffffffffffffffcULL)},
        IntCase{"sra-arith", Opcode::kSra, -8, 1, -4},
        IntCase{"min", Opcode::kMin, -5, 3, -5},
        IntCase{"max", Opcode::kMax, -5, 3, 3}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(SimulatorTest, UnaryIntOps) {
  const RunResult result = runExpr([](IrBuilder& b) {
    const Reg a = b.neg(b.movImm(5));         // -5
    const Reg c = b.abs(a);                   // 5
    const Reg d = b.not_(b.movImm(0));        // -1
    const Reg e = b.addImm(c, 10);            // 15
    return b.add(e, d);                       // 14
  });
  EXPECT_EQ(outputWord(result), 14);
}

TEST(SimulatorTest, SelectFollowsPredicate) {
  const RunResult result = runExpr([](IrBuilder& b) {
    const Reg p = b.cmpLt(b.movImm(1), b.movImm(2));
    return b.select(p, b.movImm(111), b.movImm(222));
  });
  EXPECT_EQ(outputWord(result), 111);
}

TEST(SimulatorTest, PredicateLogic) {
  const RunResult result = runExpr([](IrBuilder& b) {
    const Reg t = b.pSetImm(true);
    const Reg f = b.pSetImm(false);
    const Reg andP = b.pAnd(t, f);          // 0
    const Reg orP = b.pOr(andP, t);         // 1
    const Reg xorP = b.pXor(orP, b.pNot(f));  // 1 xor 1 = 0
    return b.select(xorP, b.movImm(1), b.movImm(42));
  });
  EXPECT_EQ(outputWord(result), 42);
}

TEST(SimulatorTest, FloatArithmeticAndConversion) {
  const RunResult result = runExpr([](IrBuilder& b) {
    const Reg x = b.fMovImm(1.5);
    const Reg y = b.fMovImm(2.25);
    const Reg sum = b.fAdd(x, y);              // 3.75
    const Reg prod = b.fMul(sum, b.fMovImm(4.0)); // 15.0
    const Reg diff = b.fSub(prod, b.fMovImm(0.5)); // 14.5
    const Reg q = b.fDiv(diff, b.fMovImm(2.0));    // 7.25
    return b.f2i(b.fMul(q, b.fMovImm(100.0)));     // 725
  });
  EXPECT_EQ(outputWord(result), 725);
}

TEST(SimulatorTest, FloatMinMaxNegAbsSqrt) {
  const RunResult result = runExpr([](IrBuilder& b) {
    const Reg x = b.fMovImm(-9.0);
    const Reg absX = b.fAbs(x);                  // 9
    const Reg root = b.fSqrt(absX);              // 3
    const Reg negated = b.fNeg(root);            // -3
    const Reg lo = b.fMin(negated, root);        // -3
    const Reg hi = b.fMax(negated, root);        // 3
    return b.f2i(b.fSub(hi, lo));                // 6
  });
  EXPECT_EQ(outputWord(result), 6);
}

TEST(SimulatorTest, FloatCompares) {
  const RunResult result = runExpr([](IrBuilder& b) {
    const Reg lt = b.fCmpLt(b.fMovImm(1.0), b.fMovImm(2.0));  // 1
    const Reg eq = b.fCmpEq(b.fMovImm(1.0), b.fMovImm(2.0));  // 0
    const Reg le = b.fCmpLe(b.fMovImm(2.0), b.fMovImm(2.0));  // 1
    const Reg a = b.select(lt, b.movImm(100), b.movImm(0));
    const Reg c = b.select(eq, b.movImm(10), b.movImm(0));
    const Reg d = b.select(le, b.movImm(1), b.movImm(0));
    return b.add(a, b.add(c, d));
  });
  EXPECT_EQ(outputWord(result), 101);
}

TEST(SimulatorTest, IntToFloatRoundTrip) {
  const RunResult result = runExpr([](IrBuilder& b) {
    return b.f2i(b.i2f(b.movImm(-12345)));
  });
  EXPECT_EQ(outputWord(result), -12345);
}

TEST(SimulatorTest, ByteLoadsZeroExtend) {
  Program prog;
  prog.allocateGlobal("data", std::vector<std::uint8_t>{0xff, 0x01});
  const std::uint64_t out = prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base =
      b.movImm(static_cast<std::int64_t>(prog.symbol("data").address));
  const Reg v = b.loadB(base, 0);  // 255, not -1
  b.store(b.movImm(static_cast<std::int64_t>(out)), 0, v);
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(outputWord(result), 255);
}

TEST(SimulatorTest, StoreByteWritesLowByteOnly) {
  Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base = b.movImm(static_cast<std::int64_t>(out));
  b.store(base, 0, b.movImm(-1));            // all ones
  b.storeB(base, 0, b.movImm(0x42));         // patch low byte
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(static_cast<std::uint64_t>(outputWord(result)),
            0xffffffffffffff42ULL);
}

TEST(SimulatorTest, FloatLoadStoreRoundTrip) {
  Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 16);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base = b.movImm(static_cast<std::int64_t>(out));
  b.fStore(base, 8, b.fMovImm(3.5));
  const Reg v = b.fLoad(base, 8);
  b.store(base, 0, b.f2i(b.fMul(v, b.fMovImm(2.0))));
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(outputWord(result), 7);
}

// --- control flow / calls ------------------------------------------------------

TEST(SimulatorTest, LoopComputesSum) {
  const RunResult result = runProgram(testutil::makeLoopProgram(10));
  ASSERT_EQ(result.exit, ExitKind::kHalted);
  EXPECT_EQ(outputWord(result), 45);  // 0+..+9
}

TEST(SimulatorTest, HaltReturnsExitCode) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  b.halt(b.movImm(17));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kHalted);
  EXPECT_EQ(result.exitCode, 17);
}

TEST(SimulatorTest, CallPassesArgsAndReturnsValues) {
  Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 8);
  ir::Function& helper = prog.addFunction("sum3");
  {
    const Reg a = helper.newReg(RegClass::kGp);
    const Reg b2 = helper.newReg(RegClass::kGp);
    const Reg c = helper.newReg(RegClass::kGp);
    helper.params() = {a, b2, c};
    helper.returnClasses() = {RegClass::kGp};
    IrBuilder hb(helper);
    hb.setBlock(hb.createBlock("body"));
    hb.ret({hb.add(a, hb.add(b2, c))});
  }
  ir::Function& main = prog.addFunction("main");
  prog.setEntryFunction(main.id());
  IrBuilder b(main);
  b.setBlock(b.createBlock("entry"));
  const Reg v =
      b.call(helper, {b.movImm(1), b.movImm(20), b.movImm(300)})[0];
  b.store(b.movImm(static_cast<std::int64_t>(out)), 0, v);
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(outputWord(result), 321);
}

TEST(SimulatorTest, RecursionComputesFactorial) {
  Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 8);
  ir::Function& fact = prog.addFunction("fact");
  {
    const Reg n = fact.newReg(RegClass::kGp);
    fact.params() = {n};
    fact.returnClasses() = {RegClass::kGp};
    IrBuilder fb(fact);
    ir::BasicBlock& entry = fb.createBlock("entry");
    ir::BasicBlock& recurse = fb.createBlock("recurse");
    ir::BasicBlock& base = fb.createBlock("base");
    fb.setBlock(entry);
    const Reg isBase = fb.cmpLeImm(n, 1);
    fb.brCond(isBase, base, recurse);
    fb.setBlock(recurse);
    const Reg sub = fb.call(fact, {fb.addImm(n, -1)})[0];
    fb.ret({fb.mul(n, sub)});
    fb.setBlock(base);
    fb.ret({fb.movImm(1)});
  }
  ir::Function& main = prog.addFunction("main");
  prog.setEntryFunction(main.id());
  IrBuilder b(main);
  b.setBlock(b.createBlock("entry"));
  const Reg v = b.call(fact, {b.movImm(6)})[0];
  b.store(b.movImm(static_cast<std::int64_t>(out)), 0, v);
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(outputWord(result), 720);
}

TEST(SimulatorTest, InfiniteRecursionTrapsAsStackOverflow) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& loop = prog.addFunction("loopy");
  {
    IrBuilder lb(loop);
    lb.setBlock(lb.createBlock("body"));
    lb.call(loop, {});
    lb.ret({});
  }
  ir::Function& main = prog.addFunction("main");
  prog.setEntryFunction(main.id());
  IrBuilder b(main);
  b.setBlock(b.createBlock("entry"));
  b.call(loop, {});
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kException);
  EXPECT_EQ(result.trap, TrapKind::kStackOverflow);
}

// --- traps ------------------------------------------------------------------------

TEST(SimulatorTest, DivideByZeroTraps) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  b.div(b.movImm(1), b.movImm(0));
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kException);
  EXPECT_EQ(result.trap, TrapKind::kDivByZero);
}

TEST(SimulatorTest, NullAccessTraps) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  b.load(b.movImm(0), 8);  // inside the guard page
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kException);
  EXPECT_EQ(result.trap, TrapKind::kBadAddress);
}

TEST(SimulatorTest, OutOfArenaAccessTraps) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  b.load(b.movImm(1 << 30), 0);
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kException);
  EXPECT_EQ(result.trap, TrapKind::kBadAddress);
}

TEST(SimulatorTest, MisalignedWordAccessTraps) {
  Program prog;
  prog.allocateGlobal("output", 16);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base = b.movImm(
      static_cast<std::int64_t>(prog.symbol("output").address));
  b.load(base, 3);
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kException);
  EXPECT_EQ(result.trap, TrapKind::kMisaligned);
}

// The throwing accessor's trap, or kNone.
TrapKind thrownTrap(const Memory& memory, std::uint64_t address,
                    std::uint32_t width) {
  try {
    if (width == 8) {
      memory.readU64(address);
    } else {
      memory.readU8(address);
    }
  } catch (const TrapError& trap) {
    return trap.kind;
  }
  return TrapKind::kNone;
}

TEST(MemoryTest, OneRuleDecidesEveryTrap) {
  // Memory::accessTrap is the one memory rule: the throwing accessors, the
  // decoded engine and its lockstep lanes all ask it what traps.
  Program prog;
  prog.allocateGlobal("g", 16);
  const Memory memory(prog, 64);
  const std::uint64_t base = Program::kGlobalBase;
  const std::uint64_t end = memory.arenaEnd();
  ASSERT_EQ(end % 8, 0u);
  struct Access {
    std::uint64_t address;
    std::uint32_t width;
    TrapKind trap;
  };
  const Access accesses[] = {
      // The guard region below the globals.
      {0, 1, TrapKind::kBadAddress},
      {base - 1, 1, TrapKind::kBadAddress},
      {base - 8, 8, TrapKind::kBadAddress},
      {base, 8, TrapKind::kNone},
      // The arena end, and an access that wraps past 2^64.
      {end - 1, 1, TrapKind::kNone},
      {end, 1, TrapKind::kBadAddress},
      {end - 8, 8, TrapKind::kNone},
      {end, 8, TrapKind::kBadAddress},
      {~0ULL - 3, 8, TrapKind::kBadAddress},
      // A misaligned 8-byte access; bytes have no alignment.  Out of range
      // wins over misaligned.
      {base + 4, 8, TrapKind::kMisaligned},
      {base + 4, 1, TrapKind::kNone},
      {end - 4, 8, TrapKind::kBadAddress},
  };
  for (const Access& access : accesses) {
    EXPECT_EQ(memory.accessTrap(access.address, access.width), access.trap)
        << std::hex << access.address << " width " << access.width;
    EXPECT_EQ(thrownTrap(memory, access.address, access.width), access.trap)
        << std::hex << access.address << " width " << access.width;
  }
}

TEST(SimulatorTest, BadFloatConversionTraps) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  b.f2i(b.fDiv(b.fMovImm(1.0), b.fMovImm(0.0)));  // inf
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kException);
  EXPECT_EQ(result.trap, TrapKind::kBadConversion);
}

TEST(SimulatorTest, WatchdogTimesOut) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  ir::BasicBlock& entry = b.createBlock("entry");
  ir::BasicBlock& spin = b.createBlock("spin");
  b.setBlock(entry);
  b.br(spin);
  b.setBlock(spin);
  b.br(spin);  // infinite loop
  SimOptions options;
  options.maxCycles = 10000;
  const RunResult result = runProgram(prog, options);
  EXPECT_EQ(result.exit, ExitKind::kTimeout);
}

// --- checks ------------------------------------------------------------------------

TEST(SimulatorTest, MatchingCheckPasses) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg a = b.movImm(9);
  const Reg c = b.movImm(9);
  ir::Instruction& chk = b.emit(Opcode::kCheckG, {}, {a, c});
  chk.origin = ir::InsnOrigin::kCheck;
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kHalted);
}

TEST(SimulatorTest, MismatchedCheckDetects) {
  Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg a = b.movImm(9);
  const Reg c = b.movImm(10);
  ir::Instruction& chk = b.emit(Opcode::kCheckG, {}, {a, c});
  chk.origin = ir::InsnOrigin::kCheck;
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.exit, ExitKind::kDetected);
}

// --- statistics & timing ------------------------------------------------------------

TEST(SimulatorTest, DynamicCountsTracked) {
  const RunResult result = runProgram(testutil::makeLoopProgram(4));
  // entry: 3 + br, loop 4x: 4 insns, done: store + movi + halt.
  EXPECT_EQ(result.stats.dynamicInsns, 4u + 4u * 4u + 3u);
  EXPECT_GT(result.stats.dynamicDefInsns, 0u);
  EXPECT_LT(result.stats.dynamicDefInsns, result.stats.dynamicInsns);
  EXPECT_EQ(result.stats.blockExecutions, 1u + 4u + 1u);
}

TEST(SimulatorTest, CyclesScaleWithWork) {
  // Compare issue cycles (stalls are dominated by one constant cold miss).
  const RunResult small = runProgram(testutil::makeLoopProgram(10));
  const RunResult large = runProgram(testutil::makeLoopProgram(100));
  const std::uint64_t smallIssue =
      small.stats.cycles - small.stats.stallCycles;
  const std::uint64_t largeIssue =
      large.stats.cycles - large.stats.stallCycles;
  EXPECT_GT(largeIssue, smallIssue * 5);
}

TEST(SimulatorTest, WiderIssueNeverSlower) {
  const Program prog = testutil::makeRandomStraightLine(9, 60);
  std::uint64_t previous = ~0ULL;
  for (std::uint32_t iw : {1u, 2u, 4u, 8u}) {
    const arch::MachineConfig config = testutil::machine(iw, 1);
    const sched::ProgramSchedule schedule =
        sched::scheduleProgram(prog, config);
    const RunResult result = simulate(prog, schedule, config);
    EXPECT_LE(result.stats.cycles, previous);
    previous = result.stats.cycles;
  }
}

TEST(SimulatorTest, ColdMissesCharged) {
  // A single load from never-touched memory must cost the full miss chain.
  Program prog;
  prog.allocateGlobal("output", 8);
  prog.allocateGlobal("data", 64);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base =
      b.movImm(static_cast<std::int64_t>(prog.symbol("data").address));
  const Reg v = b.load(base, 0);
  b.halt(v);
  const arch::MachineConfig config = testutil::machine(2, 1);
  const RunResult result = runProgram(prog);
  EXPECT_EQ(result.stats.cacheLevel[0].misses, 1u);
  EXPECT_GE(result.stats.stallCycles,
            config.cache.memoryLatency - config.latencies.mem);
}

TEST(SimulatorTest, RepeatedAccessHitsCache) {
  Program prog = testutil::makeLoopProgram(50);
  const RunResult result = runProgram(prog);
  // The loop touches no memory; only the final store misses.
  EXPECT_LE(result.stats.cacheLevel[0].misses, 1u);
}

TEST(SimulatorTest, OutputSnapshotMatchesSymbol) {
  const RunResult result = runProgram(testutil::makeTinyProgram());
  ASSERT_EQ(result.output.size(), 8u);
  EXPECT_EQ(outputWord(result), 36);  // (5+7)*3
}

TEST(SimulatorTest, MissingOutputSymbolGivesEmptySnapshot) {
  Program prog;
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  b.halt(b.movImm(0));
  const RunResult result = runProgram(prog);
  EXPECT_TRUE(result.output.empty());
}

// --- fault injection hooks ----------------------------------------------------------

TEST(SimulatorTest, FaultPlanFlipsChosenBit) {
  // Flip bit 3 of the first def-producing instruction (movi base) — the
  // store then writes to a shifted address or the value changes; here we
  // target the value producer.
  Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base = b.movImm(static_cast<std::int64_t>(out));
  const Reg v = b.movImm(100);  // def ordinal 1
  b.store(base, 0, v);
  b.halt(b.movImm(0));

  FaultPlan plan;
  plan.points.push_back({1, 0, 3});  // 100 ^ 8 = 108
  SimOptions options;
  options.faultPlan = &plan;
  const RunResult result = runProgram(prog, options);
  ASSERT_EQ(result.exit, ExitKind::kHalted);
  EXPECT_EQ(outputWord(result), 108);
}

TEST(SimulatorTest, FaultInPredicateFlipsBranch) {
  Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  ir::BasicBlock& entry = b.createBlock("entry");
  ir::BasicBlock& yes = b.createBlock("yes");
  ir::BasicBlock& no = b.createBlock("no");
  b.setBlock(entry);
  const Reg base = b.movImm(static_cast<std::int64_t>(out));
  const Reg p = b.cmpLtImm(b.movImm(1), 10);  // true
  b.brCond(p, yes, no);
  b.setBlock(yes);
  b.store(base, 0, b.movImm(1));
  b.halt(b.movImm(0));
  b.setBlock(no);
  b.store(base, 0, b.movImm(2));
  b.halt(b.movImm(0));

  FaultPlan plan;
  plan.points.push_back({2, 0, 0});  // the cmp's predicate def
  SimOptions options;
  options.faultPlan = &plan;
  const RunResult result = runProgram(prog, options);
  ASSERT_EQ(result.exit, ExitKind::kHalted);
  EXPECT_EQ(outputWord(result), 2);  // took the wrong path
}

TEST(SimulatorTest, EmptyPlanMatchesGoldenRun) {
  const Program prog = testutil::makeRandomStraightLine(1, 40);
  const RunResult golden = runProgram(prog);
  FaultPlan plan;  // empty
  SimOptions options;
  options.faultPlan = &plan;
  const RunResult faulty = runProgram(prog, options);
  EXPECT_EQ(faulty.output, golden.output);
  EXPECT_EQ(faulty.stats.cycles, golden.stats.cycles);
}

// Determinism: identical runs produce identical stats and output.
TEST(SimulatorTest, RunsAreDeterministic) {
  const Program prog = testutil::makeRandomStraightLine(77, 50);
  const RunResult a = runProgram(prog);
  const RunResult c = runProgram(prog);
  EXPECT_EQ(a.stats.cycles, c.stats.cycles);
  EXPECT_EQ(a.stats.dynamicInsns, c.stats.dynamicInsns);
  EXPECT_EQ(a.output, c.output);
}

}  // namespace
}  // namespace casted::sim
