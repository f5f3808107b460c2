// Shared helpers for the CASTED test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/machine_config.h"
#include "ir/builder.h"
#include "ir/function.h"
#include "sim/run_result.h"
#include "support/rng.h"

namespace casted::testutil {

// Corpus size for property tests: `full` by default, capped by the
// CASTED_TEST_TRIALS environment variable when set.  CI exports a small cap
// (see .github/workflows/ci.yml) so the slow-labelled suites stay fast
// there while local runs keep full coverage.
inline std::size_t testTrials(std::size_t full) {
  if (const char* env = std::getenv("CASTED_TEST_TRIALS")) {
    const long cap = std::strtol(env, nullptr, 10);
    if (cap > 0) {
      return std::min(full, static_cast<std::size_t>(cap));
    }
  }
  return full;
}

// Compares every observable field of two RunResults.  Any mismatch is an
// equivalence-contract violation; `context` says which program/plan failed.
inline void expectIdentical(const sim::RunResult& ref,
                            const sim::RunResult& dec,
                            const std::string& context) {
  EXPECT_EQ(static_cast<int>(ref.exit), static_cast<int>(dec.exit)) << context;
  EXPECT_EQ(static_cast<int>(ref.trap), static_cast<int>(dec.trap)) << context;
  EXPECT_EQ(ref.exitCode, dec.exitCode) << context;
  EXPECT_EQ(ref.output, dec.output) << context;
  EXPECT_EQ(ref.stats.cycles, dec.stats.cycles) << context;
  EXPECT_EQ(ref.stats.stallCycles, dec.stats.stallCycles) << context;
  EXPECT_EQ(ref.stats.dynamicInsns, dec.stats.dynamicInsns) << context;
  EXPECT_EQ(ref.stats.dynamicDefInsns, dec.stats.dynamicDefInsns) << context;
  EXPECT_EQ(ref.stats.blockExecutions, dec.stats.blockExecutions) << context;
  EXPECT_EQ(ref.stats.memAccesses, dec.stats.memAccesses) << context;
  EXPECT_EQ(ref.stats.memoryAccesses, dec.stats.memoryAccesses) << context;
  for (int level = 0; level < 3; ++level) {
    EXPECT_EQ(ref.stats.cacheLevel[level].hits,
              dec.stats.cacheLevel[level].hits)
        << context << " L" << (level + 1);
    EXPECT_EQ(ref.stats.cacheLevel[level].misses,
              dec.stats.cacheLevel[level].misses)
        << context << " L" << (level + 1);
  }
}

// A minimal program:
//   out[0] = (a + b) * 3   (a, b loaded from "input")
//   halt 0
// with symbols "input" (16 bytes: a=5, b=7) and "output" (8 bytes).
inline ir::Program makeTinyProgram() {
  ir::Program prog;
  std::vector<std::uint8_t> input(16, 0);
  input[0] = 5;
  input[8] = 7;
  const std::uint64_t inAddr = prog.allocateGlobal("input", input);
  const std::uint64_t outAddr = prog.allocateGlobal("output", 8);

  ir::Function& main = prog.addFunction("main");
  ir::IrBuilder b(main);
  ir::BasicBlock& entry = b.createBlock("entry");
  b.setBlock(entry);
  const ir::Reg inBase = b.movImm(static_cast<std::int64_t>(inAddr));
  const ir::Reg outBase = b.movImm(static_cast<std::int64_t>(outAddr));
  const ir::Reg a = b.load(inBase, 0);
  const ir::Reg bb = b.load(inBase, 8);
  const ir::Reg sum = b.add(a, bb);
  const ir::Reg result = b.mulImm(sum, 3);
  b.store(outBase, 0, result);
  b.halt(b.movImm(0));
  return prog;
}

// A program with a counted loop: output = sum of i for i in [0, n).
inline ir::Program makeLoopProgram(std::int64_t n) {
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
  b.binaryTo(ir::Opcode::kAdd, sum, sum, i);
  b.addImmTo(i, i, 1);
  const ir::Reg more = b.cmpLtImm(i, n);
  b.brCond(more, loop, done);
  b.setBlock(done);
  b.store(outBase, 0, sum);
  b.halt(b.movImm(0));
  return prog;
}

// Random straight-line program generator for property tests: a chain of
// integer ALU ops over a few seed values, ending with a store of the result
// and halt.  Always verifier-clean and always halts.
inline ir::Program makeRandomStraightLine(std::uint64_t seed,
                                          std::size_t length) {
  Rng rng(seed);
  ir::Program prog;
  const std::uint64_t outAddr = prog.allocateGlobal("output", 16);
  ir::Function& main = prog.addFunction("main");
  ir::IrBuilder b(main);
  b.setBlock(b.createBlock("entry"));

  std::vector<ir::Reg> values;
  values.push_back(b.movImm(static_cast<std::int64_t>(rng.nextBelow(1000))));
  values.push_back(b.movImm(static_cast<std::int64_t>(rng.nextBelow(1000))));
  values.push_back(b.movImm(17));
  for (std::size_t i = 0; i < length; ++i) {
    const ir::Reg a = values[rng.nextBelow(values.size())];
    const ir::Reg c = values[rng.nextBelow(values.size())];
    switch (rng.nextBelow(8)) {
      case 0:
        values.push_back(b.add(a, c));
        break;
      case 1:
        values.push_back(b.sub(a, c));
        break;
      case 2:
        values.push_back(b.mul(a, c));
        break;
      case 3:
        values.push_back(b.xor_(a, c));
        break;
      case 4:
        values.push_back(b.min(a, c));
        break;
      case 5:
        values.push_back(b.addImm(a, static_cast<std::int64_t>(
                                          rng.nextBelow(100))));
        break;
      case 6:
        values.push_back(b.and_(a, c));
        break;
      default:
        values.push_back(b.sraImm(a, 1 + rng.nextBelow(8)));
        break;
    }
  }
  const ir::Reg outBase =
      b.movImm(static_cast<std::int64_t>(outAddr));
  b.store(outBase, 0, values.back());
  b.store(outBase, 8, values[values.size() / 2]);
  b.halt(b.movImm(0));
  return prog;
}

inline arch::MachineConfig machine(std::uint32_t issueWidth,
                                   std::uint32_t delay) {
  return arch::makePaperMachine(issueWidth, delay);
}

// The paper machine with a 64 KiB L3 (128-byte lines, 8 ways, 64 sets):
// too small to keep the arena's lines, so a diverged lockstep lane's cycle
// bound charges every block at its worstCycles, and the timing check
// decides what that bound cannot.
inline arch::MachineConfig evictingMachine(std::uint32_t issueWidth,
                                           std::uint32_t delay) {
  arch::MachineConfig config = arch::makePaperMachine(issueWidth, delay);
  config.cache.levels[2].sizeBytes = 64 * 1024;
  config.cache.levels[2].associativity = 8;
  config.validate();
  return config;
}

// One to three callees for a calling random program, each taking the base
// of the caller's table array, two gp values, an fp value and a predicate,
// and returning one to three values of random classes.  Callee k loads and
// stores lines 8 + 4k to 11 + 4k of the table at scattered nodes of its
// entry block (the caller stores lines 0-7), may call an earlier callee
// between them, and may branch on its predicate; a callee calls only
// callees built before it, so the call graph is acyclic.
inline std::vector<const ir::Function*> addRandomCallees(ir::Program& prog,
                                                         Rng& rng) {
  using ir::Opcode;
  using ir::RegClass;
  std::vector<const ir::Function*> callees;
  const std::size_t count = 1 + rng.nextBelow(3);
  for (std::size_t k = 0; k < count; ++k) {
    ir::Function& fn = prog.addFunction("callee" + std::to_string(k));
    const ir::Reg base = fn.newReg(RegClass::kGp);
    const ir::Reg x = fn.newReg(RegClass::kGp);
    const ir::Reg y = fn.newReg(RegClass::kGp);
    const ir::Reg f = fn.newReg(RegClass::kFp);
    const ir::Reg p = fn.newReg(RegClass::kPr);
    fn.params() = {base, x, y, f, p};
    const std::size_t returns = 1 + rng.nextBelow(3);
    for (std::size_t i = 0; i < returns; ++i) {
      fn.returnClasses().push_back(static_cast<RegClass>(rng.nextBelow(3)));
    }
    auto at = [&] {
      return static_cast<std::int64_t>(64 * (8 + 4 * k + rng.nextBelow(4)) +
                                       8 * rng.nextBelow(8));
    };

    ir::IrBuilder b(fn);
    b.setBlock(b.createBlock("entry"));
    const ir::Reg g = b.add(x, y);
    const std::size_t ops = 4 + rng.nextBelow(12);
    for (std::size_t i = 0; i < ops; ++i) {
      switch (rng.nextBelow(3)) {
        case 0:
          b.binaryTo(Opcode::kAdd, g, g, b.load(base, at()));
          break;
        case 1:
          b.store(base, at(), g);
          break;
        default:
          b.binaryTo(Opcode::kXor, g, g, y);
          break;
      }
    }
    const ir::Reg ff = b.fAdd(f, b.i2f(y));
    const ir::Reg q = b.pXor(p, b.cmpLt(g, y));
    if (!callees.empty() && rng.nextBelow(2) == 0) {
      const ir::Function& inner = *callees[rng.nextBelow(callees.size())];
      for (const ir::Reg r : b.call(inner, {base, g, y, ff, q})) {
        const Opcode fold[3] = {Opcode::kAdd, Opcode::kFAdd, Opcode::kPXor};
        const ir::Reg into[3] = {g, ff, q};
        const auto cls = static_cast<std::size_t>(r.cls);
        b.binaryTo(fold[cls], into[cls], into[cls], r);
      }
      b.store(base, at(), g);
    }
    if (rng.nextBelow(2) == 0) {
      ir::BasicBlock& left = b.createBlock("left");
      ir::BasicBlock& right = b.createBlock("right");
      ir::BasicBlock& join = b.createBlock("join");
      b.brCond(q, left, right);
      b.setBlock(left);
      b.binaryTo(Opcode::kAdd, g, g, x);
      b.br(join);
      b.setBlock(right);
      b.binaryTo(Opcode::kXor, g, g, b.load(base, at()));
      b.br(join);
      b.setBlock(join);
      b.store(base, at(), g);
    }
    std::vector<ir::Reg> values;
    for (const RegClass cls : fn.returnClasses()) {
      const bool first = std::none_of(
          values.begin(), values.end(),
          [&](const ir::Reg& v) { return v.cls == cls; });
      switch (cls) {
        case RegClass::kGp:
          values.push_back(first ? g : b.xor_(g, y));
          break;
        case RegClass::kFp:
          values.push_back(first ? ff : b.fAdd(ff, ff));
          break;
        case RegClass::kPr:
          values.push_back(first ? q : b.pNot(q));
          break;
      }
    }
    b.ret(values);
    callees.push_back(&fn);
  }
  return callees;
}

// A self-recursive callee with the callees' signature, returning one value
// of each class: `rec(base, n, ...)` calls itself with n - 1 while n >= 1,
// so its depth is its argument n, and it stores and loads lines 20-23 of
// the table at every level.  A caller that bounds n keeps it far from
// kMaxCallDepth; a flip of n's high bits drives it past.
inline const ir::Function& addRecursiveCallee(ir::Program& prog, Rng& rng) {
  using ir::Opcode;
  using ir::RegClass;
  ir::Function& fn = prog.addFunction("rec");
  const ir::Reg base = fn.newReg(RegClass::kGp);
  const ir::Reg n = fn.newReg(RegClass::kGp);
  const ir::Reg y = fn.newReg(RegClass::kGp);
  const ir::Reg f = fn.newReg(RegClass::kFp);
  const ir::Reg p = fn.newReg(RegClass::kPr);
  fn.params() = {base, n, y, f, p};
  fn.returnClasses() = {RegClass::kGp, RegClass::kFp, RegClass::kPr};
  auto at = [&] {
    return static_cast<std::int64_t>(64 * (20 + rng.nextBelow(4)) +
                                     8 * rng.nextBelow(8));
  };

  ir::IrBuilder b(fn);
  ir::BasicBlock& entry = b.createBlock("entry");
  ir::BasicBlock& deeper = b.createBlock("deeper");
  ir::BasicBlock& done = b.createBlock("done");
  b.setBlock(entry);
  const ir::Reg g = b.add(n, y);
  b.store(base, at(), g);
  b.binaryTo(Opcode::kXor, g, g, b.load(base, at()));
  const ir::Reg ff = b.fAdd(f, b.i2f(n));
  const ir::Reg q = b.pXor(p, b.cmpLt(g, y));
  b.brCond(b.cmpLtImm(n, 1), done, deeper);
  b.setBlock(deeper);
  const std::vector<ir::Reg> inner =
      b.call(fn, {base, b.addImm(n, -1), g, ff, q});
  b.binaryTo(Opcode::kAdd, g, g, inner[0]);
  b.binaryTo(Opcode::kFAdd, ff, ff, inner[1]);
  b.binaryTo(Opcode::kPXor, q, q, inner[2]);
  b.br(done);
  b.setBlock(done);
  b.ret({g, ff, q});
  return fn;
}

// Random structured-control-flow program generator: a sequence of segments,
// each either a straight block, an if/else diamond, or a bounded counted
// loop, mutating a small pool of live registers and finally storing a
// digest.  Always verifier-clean, always terminates — the stronger
// workhorse for cross-pass property tests.  With `calls`, main also calls
// the callees of addRandomCallees, each call between a store to a line of
// its own in the table array (one of lines 0-7, by call site) and a load
// of the data array, so inside loops too; it passes values of all three
// register classes and folds every returned value into its state.  Before
// the digest it calls addRecursiveCallee's callee at a depth of 1-4, taken
// from a pool register, and folds its values in too.
inline ir::Program makeRandomCfgProgram(std::uint64_t seed,
                                        std::size_t segments = 4,
                                        std::size_t opsPerBlock = 8,
                                        bool calls = false) {
  Rng rng(seed ^ 0xCF6);
  ir::Program prog;
  const std::uint64_t dataAddr = prog.allocateGlobal("data", 64);
  const std::uint64_t outAddr = prog.allocateGlobal("output", 16);
  std::vector<const ir::Function*> callees;
  const ir::Function* rec = nullptr;
  std::uint64_t tableAddr = 0;
  if (calls) {
    tableAddr = prog.allocateGlobal("table", 64 * 24);
    Rng calleeRng(seed ^ 0xCA11);
    callees = addRandomCallees(prog, calleeRng);
    rec = &addRecursiveCallee(prog, calleeRng);
  }
  ir::Function& fn = prog.addFunction("main");
  prog.setEntryFunction(fn.id());
  ir::IrBuilder b(fn);

  ir::BasicBlock* current = &b.createBlock("entry");
  b.setBlock(*current);

  // The register pool, fully defined up front.
  std::vector<ir::Reg> pool;
  const ir::Reg dataBase = b.movImm(static_cast<std::int64_t>(dataAddr));
  for (int i = 0; i < 6; ++i) {
    pool.push_back(b.movImm(static_cast<std::int64_t>(rng.nextBelow(500))));
  }
  auto anyReg = [&] { return pool[rng.nextBelow(pool.size())]; };
  const ir::Reg tableBase =
      calls ? b.movImm(static_cast<std::int64_t>(tableAddr)) : ir::Reg{};
  std::size_t callSites = 0;

  // Emits a few random pool mutations into the current block.
  auto emitOps = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const ir::Reg dst = anyReg();
      const ir::Reg a = anyReg();
      const ir::Reg c = anyReg();
      switch (rng.nextBelow(calls ? 8 : 7)) {
        case 0:
          b.binaryTo(ir::Opcode::kAdd, dst, a, c);
          break;
        case 1:
          b.binaryTo(ir::Opcode::kSub, dst, a, c);
          break;
        case 2:
          b.binaryTo(ir::Opcode::kXor, dst, a, c);
          break;
        case 3:
          b.binaryTo(ir::Opcode::kMin, dst, a, c);
          break;
        case 4:
          b.emit(ir::Opcode::kMulImm, {dst}, {a}).imm =
              static_cast<std::int64_t>(rng.nextBelow(9)) + 1;
          break;
        case 5: {
          // A store+load pair through the scratch area (always in range).
          const std::int64_t offset =
              static_cast<std::int64_t>(rng.nextBelow(7)) * 8;
          b.store(dataBase, offset, a);
          b.emit(ir::Opcode::kLoad, {dst}, {dataBase}).imm = offset;
          break;
        }
        case 7: {
          // An fp result goes to the data array's last word, which the
          // digest reads.
          const ir::Function& callee =
              *callees[rng.nextBelow(callees.size())];
          b.store(tableBase, static_cast<std::int64_t>(64 * (callSites++ % 8)),
                  a);
          const ir::Reg f = b.i2f(anyReg());
          const ir::Reg p = b.cmpLt(a, c);
          for (const ir::Reg r : b.call(callee, {tableBase, a, c, f, p})) {
            if (r.cls == ir::RegClass::kFp) {
              b.fStore(dataBase, 56, r);
            } else {
              b.binaryTo(ir::Opcode::kAdd, dst, dst,
                         r.cls == ir::RegClass::kGp ? r : b.select(r, a, c));
            }
          }
          b.emit(ir::Opcode::kLoad, {anyReg()}, {dataBase}).imm =
              static_cast<std::int64_t>(rng.nextBelow(8)) * 8;
          break;
        }
        default:
          b.emit(ir::Opcode::kSraImm, {dst}, {a}).imm =
              static_cast<std::int64_t>(rng.nextBelow(5)) + 1;
          break;
      }
    }
  };

  for (std::size_t segment = 0; segment < segments; ++segment) {
    emitOps(opsPerBlock);
    switch (rng.nextBelow(3)) {
      case 0: {  // straight: just start a new block
        ir::BasicBlock& next = b.createBlock("seg");
        b.br(next);
        b.setBlock(next);
        break;
      }
      case 1: {  // diamond
        ir::BasicBlock& left = b.createBlock("left");
        ir::BasicBlock& right = b.createBlock("right");
        ir::BasicBlock& join = b.createBlock("join");
        const ir::Reg p = b.cmpLt(anyReg(), anyReg());
        b.brCond(p, left, right);
        b.setBlock(left);
        emitOps(opsPerBlock / 2 + 1);
        b.br(join);
        b.setBlock(right);
        emitOps(opsPerBlock / 2 + 1);
        b.br(join);
        b.setBlock(join);
        break;
      }
      default: {  // bounded loop with a fresh counter
        ir::BasicBlock& body = b.createBlock("loop");
        ir::BasicBlock& exit = b.createBlock("exit");
        const ir::Reg counter = b.movImm(0);
        const std::int64_t trips =
            static_cast<std::int64_t>(rng.nextBelow(6)) + 2;
        b.br(body);
        b.setBlock(body);
        emitOps(opsPerBlock / 2 + 1);
        b.addImmTo(counter, counter, 1);
        const ir::Reg more = b.cmpLtImm(counter, trips);
        b.brCond(more, body, exit);
        b.setBlock(exit);
        break;
      }
    }
  }

  if (calls) {
    // The recursion's fp value reaches the pool through the data array's
    // second-to-last word.
    const ir::Reg depth = b.addImm(b.andImm(anyReg(), 3), 1);
    const std::vector<ir::Reg> values =
        b.call(*rec, {tableBase, depth, anyReg(), b.i2f(anyReg()),
                      b.cmpLt(anyReg(), anyReg())});
    b.binaryTo(ir::Opcode::kAdd, pool[0], pool[0], values[0]);
    b.fStore(dataBase, 48, values[1]);
    b.binaryTo(ir::Opcode::kAdd, pool[1], pool[1],
               b.select(values[2], pool[2], pool[3]));
    b.binaryTo(ir::Opcode::kAdd, pool[0], pool[0], b.load(dataBase, 48));
  }
  const ir::Reg outBase = b.movImm(static_cast<std::int64_t>(outAddr));
  ir::Reg digest = calls ? b.add(pool[0], b.load(dataBase, 56)) : pool[0];
  for (std::size_t i = 1; i < pool.size(); ++i) {
    digest = b.add(digest, b.mulImm(pool[i], static_cast<std::int64_t>(i)));
  }
  b.store(outBase, 0, digest);
  b.halt(b.movImm(0));
  return prog;
}

}  // namespace casted::testutil
