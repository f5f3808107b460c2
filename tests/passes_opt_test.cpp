// Tests for liveness analysis and the late CSE/DCE passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/pipeline.h"
#include "dfg/liveness.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "passes/error_detection.h"
#include "passes/late_opts.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::passes {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::InsnOrigin;
using ir::IrBuilder;
using ir::Opcode;
using ir::Program;
using ir::Reg;
using ir::RegClass;

using dfg::computeLiveness;
using dfg::LivenessInfo;
using dfg::maxPressure;

// --- liveness ---------------------------------------------------------------

TEST(LivenessTest, StraightLineLiveSets) {
  Program prog = testutil::makeTinyProgram();
  const LivenessInfo info = computeLiveness(prog.function(0));
  // Single block: nothing live in or out.
  EXPECT_TRUE(info.liveIn[0].empty());
  EXPECT_TRUE(info.liveOut[0].empty());
  EXPECT_GT(info.maxPressure[static_cast<int>(RegClass::kGp)], 0u);
}

TEST(LivenessTest, LoopCarriedValueLiveAroundBackEdge) {
  Program prog = testutil::makeLoopProgram(5);
  const Function& fn = prog.function(0);
  const LivenessInfo info = computeLiveness(fn);
  // The sum register is written in entry (block 0), used in loop (block 1)
  // and stored in done (block 2): live out of blocks 0 and 1.
  const Reg sum = fn.block(2).insns()[0].uses[1];  // store's value operand
  EXPECT_TRUE(info.isLiveOut(0, sum));
  EXPECT_TRUE(info.isLiveOut(1, sum));
  EXPECT_FALSE(info.isLiveOut(2, sum));
}

TEST(LivenessTest, DuplicationRoughlyDoublesPressure) {
  Program prog = testutil::makeRandomStraightLine(3, 60);
  const auto before = maxPressure(prog);
  applyErrorDetection(prog);
  const auto after = maxPressure(prog);
  // The shadow stream keeps a parallel copy of (almost) every live value —
  // the mechanism behind the paper's §IV-B1 spill observation.
  EXPECT_GE(after[0], before[0] + before[0] / 2);
}

TEST(LivenessTest, DeadDefNotLive) {
  Program prog;
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg dead = b.movImm(1);
  (void)dead;
  b.halt(b.movImm(0));
  const LivenessInfo info = computeLiveness(fn);
  EXPECT_TRUE(info.liveIn[0].empty());
}

// The hash-set liveness the bit-vector one replaced: the oracle for
// the slot-set fixpoint and its incremental pressure counts.
struct ReferenceLiveness {
  std::vector<std::unordered_set<Reg>> liveIn;
  std::vector<std::unordered_set<Reg>> liveOut;
  std::array<std::uint32_t, 3> maxPressure = {0, 0, 0};
};

ReferenceLiveness referenceLiveness(const Function& fn) {
  const std::size_t blocks = fn.blockCount();
  ReferenceLiveness info;
  info.liveIn.resize(blocks);
  info.liveOut.resize(blocks);

  std::vector<std::unordered_set<Reg>> uses(blocks);
  std::vector<std::unordered_set<Reg>> defs(blocks);
  for (ir::BlockId b = 0; b < blocks; ++b) {
    for (const Instruction& insn : fn.block(b).insns()) {
      for (const Reg& use : insn.uses) {
        if (!defs[b].contains(use)) {
          uses[b].insert(use);
        }
      }
      for (const Reg& def : insn.defs) {
        defs[b].insert(def);
      }
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (ir::BlockId b = blocks; b-- > 0;) {
      std::unordered_set<Reg> out;
      for (ir::BlockId succ : fn.block(b).successors()) {
        for (const Reg& reg : info.liveIn[succ]) {
          out.insert(reg);
        }
      }
      std::unordered_set<Reg> in = uses[b];
      for (const Reg& reg : out) {
        if (!defs[b].contains(reg)) {
          in.insert(reg);
        }
      }
      if (out != info.liveOut[b] || in != info.liveIn[b]) {
        info.liveOut[b] = std::move(out);
        info.liveIn[b] = std::move(in);
        changed = true;
      }
    }
  }

  for (ir::BlockId b = 0; b < blocks; ++b) {
    std::unordered_set<Reg> live = info.liveOut[b];
    auto recordPressure = [&] {
      std::array<std::uint32_t, 3> counts = {0, 0, 0};
      for (const Reg& reg : live) {
        ++counts[static_cast<int>(reg.cls)];
      }
      for (int c = 0; c < 3; ++c) {
        info.maxPressure[c] = std::max(info.maxPressure[c], counts[c]);
      }
    };
    recordPressure();
    const auto& insns = fn.block(b).insns();
    for (std::size_t i = insns.size(); i-- > 0;) {
      const Instruction& insn = insns[i];
      for (const Reg& def : insn.defs) {
        live.erase(def);
      }
      for (const Reg& use : insn.uses) {
        live.insert(use);
      }
      recordPressure();
    }
  }
  return info;
}

void expectSameSet(const ir::SlotSet& actual,
                   const std::unordered_set<Reg>& expected,
                   const ir::RegSlots& slots, const std::string& what) {
  EXPECT_EQ(actual.size(), expected.size()) << what;
  for (const Reg& reg : expected) {
    EXPECT_TRUE(actual.contains(slots.slot(reg)))
        << what << " " << reg.toString();
  }
}

void expectLivenessMatchesReference(const Program& prog,
                                    const std::string& what) {
  for (ir::FuncId f = 0; f < prog.functionCount(); ++f) {
    const Function& fn = prog.function(f);
    const LivenessInfo info = computeLiveness(fn);
    const ReferenceLiveness expected = referenceLiveness(fn);
    const std::string where = what + " @" + fn.name();
    ASSERT_EQ(info.liveIn.size(), fn.blockCount()) << where;
    for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
      expectSameSet(info.liveIn[b], expected.liveIn[b], info.slots,
                    where + " live-in bb" + std::to_string(b));
      expectSameSet(info.liveOut[b], expected.liveOut[b], info.slots,
                    where + " live-out bb" + std::to_string(b));
    }
    EXPECT_EQ(info.maxPressure, expected.maxPressure) << where;
  }
}

TEST(LivenessTest, MatchesHashSetReferenceOnRandomCfgPrograms) {
  for (std::uint64_t seed = 0; seed < testutil::testTrials(24); ++seed) {
    const Program source = testutil::makeRandomCfgProgram(seed);
    expectLivenessMatchesReference(source, "seed " + std::to_string(seed));
    const core::CompiledProgram bin = core::compile(
        source, testutil::machine(2, 2), Scheme::kCasted);
    expectLivenessMatchesReference(
        bin.program, "CASTED seed " + std::to_string(seed));
  }
}

TEST(LivenessTest, MatchesHashSetReferenceOnCompiledWorkloads) {
  const arch::MachineConfig machine = arch::makePaperMachine(2, 2);
  for (const workloads::Workload& wl : workloads::makeAllWorkloads(1)) {
    for (const Scheme scheme : kAllSchemes) {
      const core::CompiledProgram bin =
          core::compile(wl.program, machine, scheme);
      expectLivenessMatchesReference(
          bin.program, wl.name + " " + schemeName(scheme));
    }
  }
}

// --- local CSE --------------------------------------------------------------

TEST(LocalCseTest, FoldsRepeatedExpression) {
  Program prog;
  prog.allocateGlobal("output", 16);
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base =
      b.movImm(static_cast<std::int64_t>(prog.symbol("output").address));
  const Reg x = b.movImm(21);
  const Reg a = b.add(x, x);
  const Reg c = b.add(x, x);  // same expression
  b.store(base, 0, a);
  b.store(base, 8, c);
  b.halt(b.movImm(0));
  const LateOptStats stats = applyLocalCse(prog);
  EXPECT_EQ(stats.cseReplaced, 1u);
  // The second add became a register copy.
  const auto& insns = prog.function(0).block(0).insns();
  EXPECT_EQ(insns[3].op, Opcode::kMov);
  EXPECT_TRUE(ir::verify(prog).empty());
}

TEST(LocalCseTest, RedefinedOperandBlocksFolding) {
  Program prog;
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg x = b.movImm(1);
  const Reg a = b.add(x, x);
  b.movImmTo(x, 2);           // x changed
  const Reg c = b.add(x, x);  // NOT the same value
  b.halt(b.add(a, c));
  const LateOptStats stats = applyLocalCse(prog);
  EXPECT_EQ(stats.cseReplaced, 0u);
}

// The redefinition cases: an expression is available only while the
// register holding it still holds its value.

TEST(LocalCseTest, RedefinedHolderBlocksFolding) {
  Program prog;
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg x = b.movImm(21);
  const Reg a = b.add(x, x);
  b.movImmTo(a, 5);           // a no longer holds x + x
  const Reg c = b.add(x, x);  // must recompute
  b.halt(b.add(a, c));
  const LateOptStats stats = applyLocalCse(prog);
  EXPECT_EQ(stats.cseReplaced, 0u);
  EXPECT_EQ(prog.function(0).block(0).insns()[3].op, Opcode::kAdd);
}

TEST(LocalCseTest, SelfRecomputationCountsAsRedefinition) {
  Program prog;
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg x = b.movImm(21);
  const Reg a = b.add(x, x);
  b.binaryTo(Opcode::kAdd, a, x, x);  // folds to `mov a, a`
  const Reg c = b.add(x, x);          // stays as it is
  b.halt(b.add(a, c));
  const LateOptStats stats = applyLocalCse(prog);
  EXPECT_EQ(stats.cseReplaced, 1u);
  const auto& insns = prog.function(0).block(0).insns();
  EXPECT_EQ(insns[2].op, Opcode::kMov);
  EXPECT_EQ(insns[2].uses, std::vector<Reg>{a});
  EXPECT_EQ(insns[3].op, Opcode::kAdd);
  EXPECT_TRUE(ir::verify(prog).empty());
}

TEST(LocalCseTest, RecomputationAfterRedefinitionBecomesTheHolder) {
  Program prog;
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg x = b.movImm(21);
  const Reg a = b.add(x, x);
  b.movImmTo(a, 5);
  const Reg c = b.add(x, x);  // recomputed into c ...
  const Reg d = b.add(x, x);  // ... which d now copies
  b.halt(b.add(a, b.add(c, d)));
  const LateOptStats stats = applyLocalCse(prog);
  EXPECT_EQ(stats.cseReplaced, 1u);
  const auto& insns = prog.function(0).block(0).insns();
  EXPECT_EQ(insns[3].op, Opcode::kAdd);
  EXPECT_EQ(insns[4].op, Opcode::kMov);
  EXPECT_EQ(insns[4].uses, std::vector<Reg>{c});
  EXPECT_TRUE(ir::verify(prog).empty());
}

TEST(LocalCseTest, LoadsFoldUntilStoreIntervenes) {
  Program prog;
  prog.allocateGlobal("data", 16);
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg base =
      b.movImm(static_cast<std::int64_t>(prog.symbol("data").address));
  const Reg v1 = b.load(base, 0);
  const Reg v2 = b.load(base, 0);  // foldable
  b.store(base, 8, v1);            // memory epoch bump
  const Reg v3 = b.load(base, 0);  // NOT foldable any more
  b.halt(b.add(v2, v3));
  const LateOptStats stats = applyLocalCse(prog);
  EXPECT_EQ(stats.cseReplaced, 1u);
}

TEST(LocalCseTest, ProtectionKeepsDuplicates) {
  // With protection (the paper's setting), the duplicated immediate moves
  // must NOT be folded into copies of the originals.
  Program prog = testutil::makeTinyProgram();
  applyErrorDetection(prog);
  LateOptOptions options;
  options.protectRedundant = true;
  applyLocalCse(prog, options);
  std::size_t duplicateMovi = 0;
  for (const Instruction& insn : prog.function(0).block(0).insns()) {
    if (insn.origin == InsnOrigin::kDuplicate &&
        insn.op == Opcode::kMovImm) {
      ++duplicateMovi;
    }
  }
  EXPECT_GT(duplicateMovi, 0u);
}

TEST(LocalCseTest, UnprotectedCseFoldsDuplicates) {
  // Without protection, a duplicate is a textbook common subexpression of
  // its original — exactly why the paper disables late CSE (§IV-A).
  Program prog = testutil::makeTinyProgram();
  applyErrorDetection(prog);
  LateOptOptions options;
  options.protectRedundant = false;
  const LateOptStats stats = applyLocalCse(prog, options);
  EXPECT_GT(stats.cseReplaced, 0u);
  // The duplicate is emitted *before* its original, so CSE folds the
  // original into a copy of the duplicate's shadow value — the two streams
  // are no longer independent, which is the coverage hazard.
  bool streamsCoupled = false;
  for (const Instruction& insn : prog.function(0).block(0).insns()) {
    if (insn.op == Opcode::kMov && insn.origin == InsnOrigin::kOriginal) {
      streamsCoupled = true;
    }
  }
  EXPECT_TRUE(streamsCoupled);
}

// --- DCE ------------------------------------------------------------------------

TEST(DceTest, RemovesDeadPureInstruction) {
  Program prog;
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  b.add(b.movImm(1), b.movImm(2));  // dead
  b.halt(b.movImm(0));
  const std::size_t before = fn.insnCount();
  const LateOptStats stats = applyDce(prog);
  EXPECT_GE(stats.dceRemoved, 3u);  // add + both movi feeding it
  EXPECT_LT(fn.insnCount(), before);
  EXPECT_TRUE(ir::verify(prog).empty());
}

TEST(DceTest, KeepsStoresAndTerminators) {
  Program prog = testutil::makeTinyProgram();
  const std::size_t before = prog.insnCount();
  applyDce(prog);
  // Everything in the tiny program feeds the stores/halt: nothing dies.
  EXPECT_EQ(prog.insnCount(), before);
}

TEST(DceTest, KeepsTrappingInstructions) {
  Program prog;
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg zero = b.movImm(0);
  const Reg one = b.movImm(1);
  b.div(one, zero);  // dead but trapping: must survive
  b.halt(zero);
  const std::size_t before = fn.insnCount();
  applyDce(prog);
  EXPECT_EQ(fn.insnCount(), before);
}

TEST(DceTest, ProtectionKeepsDeadDuplicates) {
  Program prog = testutil::makeTinyProgram();
  applyErrorDetection(prog);
  const std::size_t before = prog.insnCount();
  LateOptOptions options;
  options.protectRedundant = true;
  applyDce(prog, options);
  // Shadow values that feed only checks are "live" through the checks
  // (side-effecting) and duplicates are excluded anyway: nothing removed.
  EXPECT_EQ(prog.insnCount(), before);
}

TEST(DceTest, LiveThroughLoopKept) {
  Program prog = testutil::makeLoopProgram(5);
  const std::size_t before = prog.insnCount();
  applyDce(prog);
  EXPECT_EQ(prog.insnCount(), before);
}

TEST(DceTest, CseThenDceRemovesFoldedChain) {
  // After CSE turns a recomputation into a copy, DCE can erase the copy if
  // its result is unused.
  Program prog;
  Function& fn = prog.addFunction("main");
  IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const Reg x = b.movImm(3);
  const Reg a = b.add(x, x);
  b.add(x, x);  // dead recomputation
  b.halt(a);
  applyLocalCse(prog);
  const LateOptStats stats = applyDce(prog);
  EXPECT_GE(stats.dceRemoved, 1u);
  EXPECT_TRUE(ir::verify(prog).empty());
}

}  // namespace
}  // namespace casted::passes
