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

// Random structured-control-flow program generator: a sequence of segments,
// each either a straight block, an if/else diamond, or a bounded counted
// loop, mutating a small pool of live registers and finally storing a
// digest.  Always verifier-clean, always terminates — the stronger
// workhorse for cross-pass property tests.
inline ir::Program makeRandomCfgProgram(std::uint64_t seed,
                                        std::size_t segments = 4,
                                        std::size_t opsPerBlock = 8) {
  Rng rng(seed ^ 0xCF6);
  ir::Program prog;
  const std::uint64_t dataAddr = prog.allocateGlobal("data", 64);
  const std::uint64_t outAddr = prog.allocateGlobal("output", 16);
  ir::Function& fn = prog.addFunction("main");
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

  // Emits a few random pool mutations into the current block.
  auto emitOps = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const ir::Reg dst = anyReg();
      const ir::Reg a = anyReg();
      const ir::Reg c = anyReg();
      switch (rng.nextBelow(7)) {
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

  const ir::Reg outBase = b.movImm(static_cast<std::int64_t>(outAddr));
  ir::Reg digest = pool[0];
  for (std::size_t i = 1; i < pool.size(); ++i) {
    digest = b.add(digest, b.mulImm(pool[i], static_cast<std::int64_t>(i)));
  }
  b.store(outBase, 0, digest);
  b.halt(b.movImm(0));
  return prog;
}

}  // namespace casted::testutil
