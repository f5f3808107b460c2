// ProtectionLint tests over hand-built IR with deliberate protection gaps.
//
// Each snippet replicates a tiny program SWIFT-style by hand — duplicates
// and guard-linked checks exactly as the error-detection pass would emit
// them — except for ONE deliberately missing piece of the protection
// structure: an unchecked store address, a compare feeding a branch with no
// check, an unreplicated load whose value merges into both streams.  The
// lint must flag exactly the defs that feed the gap, and exhaustive
// injection must confirm every flagged site really leaks at least one
// silent-data-corruption bit (the gaps are genuine, not lint
// conservatism) while every unflagged site leaks none (the soundness
// contract of protection_lint.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "fault/exhaustive.h"
#include "ir/builder.h"
#include "ir/function.h"
#include "ir/verifier.h"
#include "passes/protection_lint.h"
#include "sched/list_scheduler.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted {
namespace {

using passes::Protection;

// Hand-rolled sphere of replication: `replicateLast` appends the kDuplicate
// shadow copy of the block's last instruction (fresh shadow defs; shadow
// uses fall back to the ORIGINAL register when the value was never
// replicated — which is exactly how an unreplicated def merges the two
// streams).  `check` + `guardLast` emit fused checks guard-linked to a
// consumer, as the error-detection pass does.
struct ShadowEnv {
  ir::Function& fn;
  ir::IrBuilder b;
  std::unordered_map<ir::Reg, ir::Reg> shadow;

  explicit ShadowEnv(ir::Function& f) : fn(f), b(f) {}

  ir::InsnId lastId() { return b.currentBlock().insns().back().id; }

  void replicateLast() {
    const ir::Instruction orig = b.currentBlock().insns().back();  // copy
    std::vector<ir::Reg> defs;
    std::vector<ir::Reg> uses;
    for (const ir::Reg& use : orig.uses) {
      const auto it = shadow.find(use);
      uses.push_back(it == shadow.end() ? use : it->second);
    }
    for (const ir::Reg& def : orig.defs) {
      const ir::Reg copy = fn.newReg(def.cls);
      shadow.emplace(def, copy);
      defs.push_back(copy);
    }
    ir::Instruction& dup = b.emit(orig.op, std::move(defs), std::move(uses));
    dup.imm = orig.imm;
    dup.fimm = orig.fimm;
    dup.origin = ir::InsnOrigin::kDuplicate;
    dup.duplicateOf = orig.id;
  }

  // Emits check(r, shadow(r)); returns its index within the current block so
  // guardLast can link it to the consumer emitted after it.
  std::size_t check(ir::Reg r) {
    const ir::Opcode op = r.cls == ir::RegClass::kGp   ? ir::Opcode::kCheckG
                          : r.cls == ir::RegClass::kFp ? ir::Opcode::kCheckF
                                                       : ir::Opcode::kCheckP;
    ir::Instruction& insn = b.emit(op, {}, {r, shadow.at(r)});
    insn.origin = ir::InsnOrigin::kCheck;
    return b.currentBlock().insns().size() - 1;
  }

  // Points every check in `checks` at the block's last instruction.
  void guardLast(std::initializer_list<std::size_t> checks) {
    std::vector<ir::Instruction>& insns = b.currentBlock().insns();
    for (const std::size_t index : checks) {
      insns[index].guard = insns.back().id;
    }
  }

  // Fully protected epilogue: replicated+checked exit code.
  void haltChecked() {
    const ir::Reg zero = b.movImm(0);
    replicateLast();
    const std::size_t c = check(zero);
    b.halt(zero);
    guardLast({c});
  }
};

struct Snippet {
  ir::Program prog;
  // Static instructions the lint must call unprotected — and no others.
  std::vector<ir::InsnId> gapInsns;
};

// out[8..16) = 42 through a checked VALUE but an unchecked ADDRESS: the
// address def is the one silent-data-corruption channel (a flipped address
// bit redirects the store and the golden bytes are never written).
Snippet uncheckedStoreAddress() {
  Snippet s;
  const std::uint64_t outAddr = s.prog.allocateGlobal("output", 32);
  ShadowEnv env(s.prog.addFunction("main"));
  env.b.setBlock(env.b.createBlock("entry"));

  const ir::Reg addr =
      env.b.movImm(static_cast<std::int64_t>(outAddr + 8));
  s.gapInsns.push_back(env.lastId());
  env.replicateLast();
  const ir::Reg value = env.b.movImm(42);
  env.replicateLast();
  const std::size_t cv = env.check(value);
  env.b.store(addr, 0, value);  // addr has a shadow but no check: the gap
  env.guardLast({cv});
  env.haltChecked();
  return s;
}

// A compare feeding kBrCond with no check on the predicate: flipping the
// predicate (or the value it compares) silently steers execution to the
// wrong arm, which stores a different constant.
Snippet unguardedBranchPredicate() {
  Snippet s;
  const std::uint64_t outAddr = s.prog.allocateGlobal("output", 8);
  ShadowEnv env(s.prog.addFunction("main"));
  ir::BasicBlock& entry = env.b.createBlock("entry");
  ir::BasicBlock& less = env.b.createBlock("less");
  ir::BasicBlock& geq = env.b.createBlock("geq");
  ir::BasicBlock& join = env.b.createBlock("join");

  env.b.setBlock(entry);
  const ir::Reg outBase =
      env.b.movImm(static_cast<std::int64_t>(outAddr));
  env.replicateLast();
  const ir::Reg x = env.b.movImm(3);
  s.gapInsns.push_back(env.lastId());
  env.replicateLast();
  const ir::Reg pred = env.b.cmpLtImm(x, 10);
  s.gapInsns.push_back(env.lastId());
  env.replicateLast();
  env.b.brCond(pred, less, geq);  // predicate never checked: the gap

  const auto storeConst = [&](ir::BasicBlock& block, std::int64_t value) {
    env.b.setBlock(block);
    const ir::Reg c = env.b.movImm(value);
    env.replicateLast();
    const std::size_t cc = env.check(c);
    const std::size_t ca = env.check(outBase);
    env.b.store(outBase, 0, c);
    env.guardLast({cc, ca});
    env.b.br(join);
  };
  storeConst(less, 111);
  storeConst(geq, 222);
  env.b.setBlock(join);
  env.haltChecked();
  return s;
}

// An unreplicated load: its value feeds BOTH instruction streams, so the
// downstream check compares two equally corrupt copies and passes.  Both
// the load and the address def behind it are silent channels.
Snippet unreplicatedLoad() {
  Snippet s;
  std::vector<std::uint8_t> pad(8, 0);
  pad[0] = 77;  // keeps inAddr-8 mapped and distinct from input[0]
  s.prog.allocateGlobal("pad", pad);
  std::vector<std::uint8_t> input(16, 0);
  input[0] = 5;
  input[8] = 9;
  const std::uint64_t inAddr = s.prog.allocateGlobal("input", input);
  const std::uint64_t outAddr = s.prog.allocateGlobal("output", 8);
  ShadowEnv env(s.prog.addFunction("main"));
  env.b.setBlock(env.b.createBlock("entry"));

  const ir::Reg inBase = env.b.movImm(static_cast<std::int64_t>(inAddr));
  s.gapInsns.push_back(env.lastId());
  env.replicateLast();
  const ir::Reg value = env.b.load(inBase, 0);  // no duplicate: the gap
  s.gapInsns.push_back(env.lastId());
  const ir::Reg sum = env.b.addImm(value, 5);
  env.replicateLast();  // shadow addImm reads `value` too — streams merged
  const ir::Reg outBase =
      env.b.movImm(static_cast<std::int64_t>(outAddr));
  env.replicateLast();
  const std::size_t cs = env.check(sum);
  const std::size_t ca = env.check(outBase);
  env.b.store(outBase, 0, sum);
  env.guardLast({cs, ca});
  env.haltChecked();
  return s;
}

std::vector<Snippet (*)()> snippets() {
  return {&uncheckedStoreAddress, &unguardedBranchPredicate,
          &unreplicatedLoad};
}

// The lint's unprotected set, as static instruction ids (every snippet
// instruction defines at most one register, so insn granularity is exact).
std::unordered_set<ir::InsnId> lintGaps(const ir::Program& prog,
                                        passes::Scheme scheme) {
  const passes::ProtectionLintResult lint =
      passes::lintProtection(prog, scheme);
  std::unordered_set<ir::InsnId> gaps;
  for (const passes::LintSite& site : lint.sites) {
    if (site.protection == Protection::kUnprotected) {
      gaps.insert(site.insn);
    }
  }
  return gaps;
}

TEST(ProtectionLintTest, FlagsExactlyTheDeliberateGaps) {
  for (const auto make : snippets()) {
    const Snippet snippet = make();
    ir::verifyOrThrow(snippet.prog);
    for (const passes::Scheme scheme :
         {passes::Scheme::kSced, passes::Scheme::kDced,
          passes::Scheme::kCasted}) {
      const std::unordered_set<ir::InsnId> gaps =
          lintGaps(snippet.prog, scheme);
      const std::unordered_set<ir::InsnId> expected(
          snippet.gapInsns.begin(), snippet.gapInsns.end());
      EXPECT_EQ(gaps, expected)
          << passes::lintProtection(snippet.prog, scheme).toString();
    }
  }
}

TEST(ProtectionLintTest, NoedMarksEveryDefUnprotected) {
  const Snippet snippet = uncheckedStoreAddress();
  const passes::ProtectionLintResult lint =
      passes::lintProtection(snippet.prog, passes::Scheme::kNoed);
  ASSERT_FALSE(lint.sites.empty());
  for (const passes::LintSite& site : lint.sites) {
    EXPECT_EQ(site.protection, Protection::kUnprotected) << site.reason();
  }
  EXPECT_EQ(lint.gaps(), lint.sites.size());
}

TEST(ProtectionLintTest, UnprotectedFunctionMarksEveryDefUnprotected) {
  Snippet snippet = unreplicatedLoad();
  snippet.prog.function(0).setProtected(false);
  const passes::ProtectionLintResult lint =
      passes::lintProtection(snippet.prog, passes::Scheme::kCasted);
  for (const passes::LintSite& site : lint.sites) {
    EXPECT_EQ(site.protection, Protection::kUnprotected) << site.reason();
  }
}

// --- oracle: the forward-closure lint --------------------------------------

namespace reference {

using ir::Function;
using ir::Instruction;
using ir::InsnOrigin;
using ir::Opcode;
using ir::Reg;
using ir::RegClass;
using passes::Protection;

// One read of a register by a non-replicated consumer — the only way a value
// leaves the sphere of replication.  `guarded` records whether a live check
// (fused, or split compare + trap) compares `use` against `shadow`
// immediately before the consumer.
struct Escape {
  Opcode consumer = Opcode::kNop;
  Reg use;
  bool guarded = false;
  Reg shadow;  // the check's second operand; valid only when guarded
};

// The classifier the backward closure replaced: one memoised forward
// closure per def register, then a scan of every escape.
class FunctionLint {
 public:
  explicit FunctionLint(const Function& fn) : fn_(fn) {
    base_[0] = 0;
    base_[1] = fn.regCount(RegClass::kGp);
    base_[2] = base_[1] + fn.regCount(RegClass::kFp);
    totalRegs_ = base_[2] + fn.regCount(RegClass::kPr);
    adj_.resize(totalRegs_);
    collect();
    for (std::vector<std::uint32_t>& edges : adj_) {
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
  }

  // Verdict for one register defined by `insn`.
  std::pair<Protection, std::string> classifyDef(const Instruction& insn,
                                                 Reg def) {
    (void)insn;
    const std::vector<std::uint64_t>& reach = reachOf(slot(def));
    bool directExit = false;
    for (const Escape& escape : escapes_) {
      if (!test(reach, slot(escape.use))) {
        continue;
      }
      const char* consumer = ir::opcodeInfo(escape.consumer).name;
      if (!escape.guarded) {
        return {Protection::kUnprotected,
                std::string("reaches unchecked ") + escape.use.toString() +
                    " read by " + consumer};
      }
      if (test(reach, slot(escape.shadow))) {
        return {Protection::kUnprotected,
                std::string("poisons both operands of the check before ") +
                    consumer + " (" + escape.use.toString() + ", " +
                    escape.shadow.toString() + ")"};
      }
      directExit |= escape.use == def;
    }
    if (directExit) {
      return {Protection::kSphereExit,
              "read directly by a checked non-replicated consumer"};
    }
    return {Protection::kProtected,
            "every reachable sphere exit is check-guarded"};
  }

 private:
  std::uint32_t slot(Reg reg) const {
    return base_[static_cast<int>(reg.cls)] + reg.index;
  }

  static bool test(const std::vector<std::uint64_t>& bits,
                   std::uint32_t index) {
    return (bits[index >> 6] >> (index & 63)) & 1;
  }
  static void set(std::vector<std::uint64_t>& bits, std::uint32_t index) {
    bits[index >> 6] |= 1ULL << (index & 63);
  }

  // One linear walk per block: track which checks are still "live" (emitted,
  // and neither operand redefined) when their guarded instruction executes,
  // record every sphere exit, and build the register-flow edges.
  void collect() {
    struct ActiveCheck {
      ir::InsnId guard;
      Reg use;
      Reg shadow;
    };
    struct PendingCmp {  // split-check compare awaiting its kTrapIf
      Reg pred;
      Reg use;
      Reg shadow;
    };
    for (ir::BlockId b = 0; b < fn_.blockCount(); ++b) {
      std::vector<ActiveCheck> active;
      std::vector<PendingCmp> pending;
      const auto invalidate = [&](const std::vector<Reg>& defs) {
        for (const Reg& def : defs) {
          std::erase_if(active, [&](const ActiveCheck& check) {
            return check.use == def || check.shadow == def;
          });
          std::erase_if(pending, [&](const PendingCmp& cmp) {
            return cmp.pred == def || cmp.use == def || cmp.shadow == def;
          });
        }
      };
      for (const Instruction& insn : fn_.block(b).insns()) {
        if (insn.origin == InsnOrigin::kCheck) {
          invalidate(insn.defs);
          if (insn.isCheck() && insn.op != Opcode::kTrapIf &&
              insn.uses.size() == 2 && insn.guard != ir::kInvalidInsn) {
            active.push_back({insn.guard, insn.uses[0], insn.uses[1]});
          } else if (insn.op == Opcode::kTrapIf && insn.uses.size() == 1 &&
                     insn.guard != ir::kInvalidInsn) {
            for (const PendingCmp& cmp : pending) {
              if (cmp.pred == insn.uses[0]) {
                active.push_back({insn.guard, cmp.use, cmp.shadow});
                break;
              }
            }
          } else if (!insn.defs.empty() && insn.uses.size() == 2) {
            pending.push_back({insn.defs[0], insn.uses[0], insn.uses[1]});
          }
          addEdges(insn, /*skipGuarded=*/nullptr);
          continue;
        }

        // Which of this instruction's reads have a live check.
        std::unordered_map<Reg, Reg> guarded;
        for (const ActiveCheck& check : active) {
          if (check.guard == insn.id) {
            guarded.emplace(check.use, check.shadow);
          }
        }
        if (insn.isNonReplicated()) {
          std::unordered_set<Reg> seen;
          for (const Reg& use : insn.uses) {
            if (!seen.insert(use).second) {
              continue;
            }
            Escape escape;
            escape.consumer = insn.op;
            escape.use = use;
            const auto it = guarded.find(use);
            if (it != guarded.end()) {
              escape.guarded = true;
              escape.shadow = it->second;
            }
            escapes_.push_back(escape);
          }
        }
        addEdges(insn, guarded.empty() ? nullptr : &guarded);
        invalidate(insn.defs);
      }
    }
  }

  // Register-flow edges use -> def.  A guarded read contributes no edge: its
  // check fires before the consumer executes, so corruption on that operand
  // alone cannot flow through (corruption on BOTH operands is caught by the
  // poisons-both-operands rule at the escape instead).
  void addEdges(const Instruction& insn,
                const std::unordered_map<Reg, Reg>* guarded) {
    if (insn.defs.empty()) {
      return;
    }
    for (const Reg& use : insn.uses) {
      if (guarded != nullptr && guarded->contains(use)) {
        continue;
      }
      for (const Reg& def : insn.defs) {
        adj_[slot(use)].push_back(slot(def));
      }
    }
  }

  // Forward closure of {start} over the flow edges, memoised per register.
  const std::vector<std::uint64_t>& reachOf(std::uint32_t start) {
    const auto it = memo_.find(start);
    if (it != memo_.end()) {
      return it->second;
    }
    std::vector<std::uint64_t> bits((totalRegs_ + 63) / 64, 0);
    std::vector<std::uint32_t> stack{start};
    set(bits, start);
    while (!stack.empty()) {
      const std::uint32_t reg = stack.back();
      stack.pop_back();
      for (const std::uint32_t next : adj_[reg]) {
        if (!test(bits, next)) {
          set(bits, next);
          stack.push_back(next);
        }
      }
    }
    return memo_.emplace(start, std::move(bits)).first->second;
  }

  const Function& fn_;
  std::uint32_t base_[3] = {0, 0, 0};
  std::uint32_t totalRegs_ = 0;
  std::vector<std::vector<std::uint32_t>> adj_;
  std::vector<Escape> escapes_;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> memo_;
};

// (protection, reason) per def site, in lintProtection's site order.
std::vector<std::pair<Protection, std::string>> lint(
    const ir::Program& program, passes::Scheme scheme) {
  std::vector<std::pair<Protection, std::string>> sites;
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    const Function& fn = program.function(f);
    const bool noDetection =
        scheme == passes::Scheme::kNoed || !fn.isProtected();
    std::optional<FunctionLint> lint;
    if (!noDetection) {
      lint.emplace(fn);
    }
    for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
      for (const Instruction& insn : fn.block(b).insns()) {
        for (const Reg& def : insn.defs) {
          if (noDetection) {
            sites.emplace_back(Protection::kUnprotected,
                               scheme == passes::Scheme::kNoed
                                   ? "NOED: the scheme emits no detection"
                                   : "unprotected (library) function");
          } else {
            sites.push_back(lint->classifyDef(insn, def));
          }
        }
      }
    }
  }
  return sites;
}

}  // namespace reference

void expectLintMatchesReference(const ir::Program& prog,
                                passes::Scheme scheme,
                                const std::string& what) {
  const passes::ProtectionLintResult lint =
      passes::lintProtection(prog, scheme);
  const auto expected = reference::lint(prog, scheme);
  ASSERT_EQ(lint.sites.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const passes::LintSite& site = lint.sites[i];
    EXPECT_EQ(site.protection, expected[i].first)
        << what << " site " << i << " def " << site.def.toString();
    EXPECT_EQ(site.reason(), expected[i].second)
        << what << " site " << i << " def " << site.def.toString();
  }
}

TEST(ProtectionLintTest, MatchesForwardClosureReferenceOnGapPrograms) {
  for (const auto make : snippets()) {
    const Snippet snippet = make();
    for (const passes::Scheme scheme : passes::kAllSchemes) {
      expectLintMatchesReference(snippet.prog, scheme,
                                 passes::schemeName(scheme));
    }
  }
}

TEST(ProtectionLintTest, MatchesForwardClosureReferenceOnWorkloads) {
  const arch::MachineConfig machine = arch::makePaperMachine(2, 2);
  for (const workloads::Workload& wl : workloads::makeAllWorkloads(1)) {
    for (const passes::Scheme scheme : passes::kAllSchemes) {
      const core::CompiledProgram bin =
          core::compile(wl.program, machine, scheme);
      expectLintMatchesReference(bin.program, scheme,
                                 wl.name + " " + passes::schemeName(scheme));
    }
  }
}

// The cross-validation half of the contract, per snippet:
//   * every flagged def leaks at least one SDC bit under exhaustive
//     injection (the deliberate gaps are real vulnerabilities);
//   * every unflagged def leaks none (lint soundness).
TEST(ProtectionLintTest, ExhaustiveInjectionConfirmsEveryGap) {
  const arch::MachineConfig machine = testutil::machine(2, 1);
  for (const auto make : snippets()) {
    const Snippet snippet = make();
    ir::verifyOrThrow(snippet.prog);
    const sched::ProgramSchedule schedule =
        sched::scheduleProgram(snippet.prog, machine);
    const fault::GroundTruthReport truth =
        fault::enumerateFaultSpace(snippet.prog, schedule, machine);
    const std::unordered_set<ir::InsnId> gaps =
        lintGaps(snippet.prog, passes::Scheme::kCasted);

    for (const ir::InsnId gap : snippet.gapInsns) {
      const fault::SiteOutcome* outcome = truth.find(0, gap);
      ASSERT_NE(outcome, nullptr) << "gap insn #" << gap << " never executed";
      EXPECT_GE(outcome->sdcSites(), 1u)
          << "flagged site leaks no SDC: " << outcome->text << "\n"
          << truth.toString();
    }
    for (const fault::SiteOutcome& outcome : truth.perInsn) {
      if (!gaps.contains(outcome.insn)) {
        EXPECT_EQ(outcome.sdcSites(), 0u)
            << "lint-clean site classified SDC: " << outcome.text;
      }
    }
  }
}

}  // namespace
}  // namespace casted
