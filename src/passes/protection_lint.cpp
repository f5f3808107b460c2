#include "passes/protection_lint.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "support/check.h"

namespace casted::passes {
namespace {

using ir::Function;
using ir::Instruction;
using ir::InsnOrigin;
using ir::Opcode;
using ir::Reg;
using ir::RegClass;

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

// Classifies one protected function.  Register-name-level and
// flow-insensitive: data flow is over-approximated, so every "protected"
// verdict is sound (see the header contract) while "unprotected" may be
// conservative.
//
// A def is unprotected by the first escape, in collection order, whose use
// its value reaches (unguarded) or whose use and shadow it both reaches
// (guarded).  Rather than close forward from every def, the lint closes
// backward from every escape operand once: the defs an escape decides are
// the backward closure of its use (intersected with its shadow's), less the
// defs an earlier escape already decided.
class FunctionLint {
 public:
  explicit FunctionLint(const Function& fn)
      : fn_(fn),
        slots_(fn.regSlots()),
        sources_(slots_.count()),
        closed_(slots_.count()),
        closures_(slots_.count()),
        decidedBy_(slots_.count(), kNone),
        exits_(slots_.count()) {
    collect();
    for (std::vector<std::uint32_t>& edges : sources_) {
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
    classify();
  }

  // Verdict for one defined register, written into `site`.
  void classifyDef(Reg def, LintSite& site) const {
    const std::uint32_t slot = slots_.slot(def);
    if (decidedBy_[slot] != kNone) {
      const Escape& escape = escapes_[decidedBy_[slot]];
      site.protection = Protection::kUnprotected;
      site.why = escape.guarded ? LintReason::kPoisonsCheck
                                : LintReason::kUncheckedEscape;
      site.consumer = escape.consumer;
      site.use = escape.use;
      site.shadow = escape.shadow;
    } else if (exits_.contains(slot)) {
      site.protection = Protection::kSphereExit;
      site.why = LintReason::kDirectExit;
    } else {
      site.protection = Protection::kProtected;
      site.why = LintReason::kAllGuarded;
    }
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  // Walks the escapes in order; each decides the defs that reach it and
  // that no earlier escape decided.  A def no escape decides is a sphere
  // exit when a guarded escape reads it directly.
  void classify() {
    ir::SlotSet decided(slots_.count());
    for (std::uint32_t e = 0; e < escapes_.size(); ++e) {
      const Escape& escape = escapes_[e];
      ir::SlotSet hits = closure(slots_.slot(escape.use));
      if (escape.guarded) {
        hits &= closure(slots_.slot(escape.shadow));
        exits_.insert(slots_.slot(escape.use));
      }
      hits -= decided;
      hits.forEach([&](std::uint32_t slot) { decidedBy_[slot] = e; });
      decided |= hits;
    }
  }

  // Backward closure of {slot} over the flow edges: every register whose
  // corruption can reach `slot`.  Memoised per slot.
  const ir::SlotSet& closure(std::uint32_t slot) {
    ir::SlotSet& bits = closures_[slot];
    if (closed_.insert(slot)) {
      bits = ir::SlotSet(slots_.count());
      std::vector<std::uint32_t> stack{slot};
      bits.insert(slot);
      while (!stack.empty()) {
        const std::uint32_t reg = stack.back();
        stack.pop_back();
        for (const std::uint32_t source : sources_[reg]) {
          if (bits.insert(source)) {
            stack.push_back(source);
          }
        }
      }
    }
    return bits;
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
        sources_[slots_.slot(def)].push_back(slots_.slot(use));
      }
    }
  }

  const Function& fn_;
  const ir::RegSlots slots_;
  std::vector<std::vector<std::uint32_t>> sources_;  // flow edges def <- use
  std::vector<Escape> escapes_;
  ir::SlotSet closed_;                  // slots whose closure is memoised
  std::vector<ir::SlotSet> closures_;   // indexed by slot
  std::vector<std::uint32_t> decidedBy_;  // deciding escape, or kNone
  ir::SlotSet exits_;                   // uses of guarded escapes
};

}  // namespace

const char* protectionName(Protection protection) {
  switch (protection) {
    case Protection::kProtected:
      return "protected";
    case Protection::kSphereExit:
      return "sphere-exit";
    case Protection::kUnprotected:
      return "unprotected";
  }
  CASTED_UNREACHABLE("bad Protection");
}

std::string LintSite::reason() const {
  const char* name = ir::opcodeInfo(consumer).name;
  switch (why) {
    case LintReason::kNoDetection:
      return "NOED: the scheme emits no detection";
    case LintReason::kLibrary:
      return "unprotected (library) function";
    case LintReason::kUncheckedEscape:
      return std::string("reaches unchecked ") + use.toString() +
             " read by " + name;
    case LintReason::kPoisonsCheck:
      return std::string("poisons both operands of the check before ") +
             name + " (" + use.toString() + ", " + shadow.toString() + ")";
    case LintReason::kDirectExit:
      return "read directly by a checked non-replicated consumer";
    case LintReason::kAllGuarded:
      return "every reachable sphere exit is check-guarded";
  }
  CASTED_UNREACHABLE("bad LintReason");
}

std::uint64_t ProtectionLintResult::count(Protection protection) const {
  std::uint64_t total = 0;
  for (const LintSite& site : sites) {
    total += site.protection == protection ? 1 : 0;
  }
  return total;
}

std::string ProtectionLintResult::toString(bool gapsOnly) const {
  std::ostringstream out;
  out << "protection lint: " << count(Protection::kProtected)
      << " protected, " << count(Protection::kSphereExit) << " sphere-exit, "
      << count(Protection::kUnprotected) << " unprotected\n";
  for (const LintSite& site : sites) {
    if (gapsOnly && site.protection != Protection::kUnprotected) {
      continue;
    }
    out << "  [" << protectionName(site.protection) << "] f" << site.func
        << " bb" << site.block << " #" << site.insn << " def "
        << site.def.toString() << ": " << site.reason() << "\n";
  }
  return out.str();
}

ProtectionLintResult lintProtection(const ir::Program& program,
                                    Scheme scheme) {
  ProtectionLintResult result;
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    const Function& fn = program.function(f);
    const bool noDetection = scheme == Scheme::kNoed || !fn.isProtected();
    std::optional<FunctionLint> lint;
    if (!noDetection) {
      lint.emplace(fn);
    }
    for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
      const auto& insns = fn.block(b).insns();
      for (std::uint32_t node = 0; node < insns.size(); ++node) {
        const Instruction& insn = insns[node];
        for (const Reg& def : insn.defs) {
          LintSite site;
          site.func = f;
          site.block = b;
          site.node = node;
          site.insn = insn.id;
          site.def = def;
          if (noDetection) {
            site.protection = Protection::kUnprotected;
            site.why = scheme == Scheme::kNoed ? LintReason::kNoDetection
                                               : LintReason::kLibrary;
          } else {
            lint->classifyDef(def, site);
          }
          result.sites.push_back(std::move(site));
        }
      }
    }
  }
  return result;
}

pm::PassResult ProtectionLintPass::run(ir::Program& program,
                                       pm::AnalysisManager& am) {
  (void)am;
  const ProtectionLintResult result = lintProtection(program, scheme_);
  pm::PassResult passResult;
  passResult.preserved = pm::Preserved::kAll;  // analysis-only, no mutation
  passResult.add("protected", result.count(Protection::kProtected));
  passResult.add("sphere-exit", result.count(Protection::kSphereExit));
  passResult.add("unprotected", result.count(Protection::kUnprotected));
  return passResult;
}

}  // namespace casted::passes
