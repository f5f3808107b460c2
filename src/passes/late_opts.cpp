#include "passes/late_opts.h"

#include <map>
#include <tuple>
#include <unordered_map>

#include "dfg/liveness.h"
#include "support/check.h"

namespace casted::passes {
namespace {

using ir::Instruction;
using ir::InsnOrigin;
using ir::Opcode;
using ir::Reg;

// An instruction is a CSE candidate when it is pure-by-value: exactly one
// def, no side effects, and its value depends only on register operands and
// immediates (loads additionally depend on a memory epoch).
bool isCseCandidate(const Instruction& insn) {
  const ir::OpcodeInfo& info = insn.info();
  if (info.defCount != 1 || info.variableArity) {
    return false;
  }
  if (info.isStore || info.isTerminator || info.isCheck ||
      insn.op == Opcode::kCall || insn.op == Opcode::kNop) {
    return false;
  }
  // Trapping arithmetic is still a fine CSE candidate (same operands, same
  // trap behaviour); loads are handled via the memory epoch.
  return true;
}

bool isPureRemovable(const Instruction& insn) {
  const ir::OpcodeInfo& info = insn.info();
  if (info.defCount == 0 || info.variableArity) {
    return false;
  }
  if (info.isStore || info.isTerminator || info.isCheck ||
      insn.op == Opcode::kCall) {
    return false;
  }
  // Keep anything that can trap: removing it would change the program's
  // exception behaviour, which the fault classifier observes.
  return !info.canTrap;
}

// Value-number key of an expression.
struct ExprKey {
  Opcode op;
  std::vector<std::uint64_t> operandVns;
  std::int64_t imm;
  double fimm;
  std::uint64_t memEpoch;

  friend bool operator<(const ExprKey& a, const ExprKey& b) {
    return std::tie(a.op, a.operandVns, a.imm, a.fimm, a.memEpoch) <
           std::tie(b.op, b.operandVns, b.imm, b.fimm, b.memEpoch);
  }
};

}  // namespace

LateOptStats applyLocalCse(ir::Program& program,
                           const LateOptOptions& options) {
  LateOptStats stats;
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    ir::Function& fn = program.function(f);
    for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
      std::unordered_map<Reg, std::uint64_t> vnOf;  // current value number
      std::uint64_t nextVn = 1;
      std::uint64_t memEpoch = 0;
      auto vn = [&](Reg reg) {
        const auto it = vnOf.find(reg);
        if (it != vnOf.end()) {
          return it->second;
        }
        const std::uint64_t fresh = nextVn++;
        vnOf.emplace(reg, fresh);
        return fresh;
      };
      // Available expressions: key -> (value number, register holding it).
      // An entry is live only while its register still holds the entry's
      // value number, which the lookup checks.
      std::map<ExprKey, std::pair<std::uint64_t, Reg>> available;

      for (Instruction& insn : fn.block(b).insns()) {
        const bool excluded =
            options.protectRedundant && insn.origin != InsnOrigin::kOriginal;

        if (insn.isStore() || insn.isCall()) {
          ++memEpoch;
        }

        if (!excluded && isCseCandidate(insn)) {
          ExprKey key;
          key.op = insn.op;
          for (const Reg& use : insn.uses) {
            key.operandVns.push_back(vn(use));
          }
          key.imm = insn.info().hasImm || insn.isMemory() ? insn.imm : 0;
          key.fimm = insn.info().hasFpImm ? insn.fimm : 0.0;
          key.memEpoch = insn.isLoad() ? memEpoch : 0;

          const Reg def = insn.defs[0];
          const auto hit = available.find(key);
          if (hit != available.end() &&
              vnOf[hit->second.second] == hit->second.first) {
            // Rewrite into a copy from the register holding the value; the
            // def keeps the *same* value number as the original result.
            const Reg source = hit->second.second;
            insn.op = ir::copyOpcodeFor(def.cls);
            insn.uses = {source};
            insn.imm = 0;
            insn.fimm = 0.0;
            vnOf[def] = hit->second.first;
            if (source == def) {
              // `r = op ...` recomputed r's own value: the entry counts as
              // redefined, so a later recomputation stays as it is.
              available.erase(hit);
            }
            ++stats.cseReplaced;
            continue;
          }
          const std::uint64_t resultVn = nextVn++;
          vnOf[def] = resultVn;
          available.insert_or_assign(std::move(key),
                                     std::make_pair(resultVn, def));
          continue;
        }

        // Not a candidate (or excluded): just update value numbers.
        for (const Reg& def : insn.defs) {
          vnOf[def] = nextVn++;
        }
      }
    }
  }
  return stats;
}

LateOptStats applyDce(ir::Program& program, const LateOptOptions& options,
                      pm::AnalysisManager* am) {
  LateOptStats stats;
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    ir::Function& fn = program.function(f);
    bool changed = true;
    while (changed) {
      changed = false;
      // With a manager, the first iteration's liveness can come from the
      // cache; after any deletion the function is invalidated below, so a
      // subsequent request recomputes.
      dfg::LivenessInfo computed;
      const dfg::LivenessInfo& liveness =
          am != nullptr ? am->liveness(fn)
                        : (computed = dfg::computeLiveness(fn), computed);
      for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
        auto& insns = fn.block(b).insns();
        // Backward walk with a running live set so within-block deadness is
        // caught in one sweep.
        const ir::RegSlots& slots = liveness.slots;
        ir::SlotSet live = liveness.liveOut[b];
        std::vector<bool> keep(insns.size(), true);
        bool removed = false;
        for (std::size_t i = insns.size(); i-- > 0;) {
          Instruction& insn = insns[i];
          const bool excluded = options.protectRedundant &&
                                insn.origin != InsnOrigin::kOriginal;
          bool anyLive = insn.defs.empty();
          for (const Reg& def : insn.defs) {
            if (live.contains(slots.slot(def))) {
              anyLive = true;
            }
          }
          if (!anyLive && !excluded && isPureRemovable(insn)) {
            keep[i] = false;
            ++stats.dceRemoved;
            removed = true;
            continue;  // its uses do not become live
          }
          for (const Reg& def : insn.defs) {
            live.erase(slots.slot(def));
          }
          for (const Reg& use : insn.uses) {
            live.insert(slots.slot(use));
          }
        }
        if (removed) {
          changed = true;
          std::vector<Instruction> rebuilt;
          rebuilt.reserve(insns.size());
          for (std::size_t i = 0; i < insns.size(); ++i) {
            if (keep[i]) {
              rebuilt.push_back(std::move(insns[i]));
            }
          }
          insns = std::move(rebuilt);
        }
      }
      if (changed && am != nullptr) {
        am->invalidateFunction(fn);
      }
    }
  }
  return stats;
}

pm::PassResult LocalCsePass::run(ir::Program& program,
                                 pm::AnalysisManager& am) {
  (void)am;
  const LateOptStats stats = applyLocalCse(program, options_);
  pm::PassResult result;
  result.preserved = stats.cseReplaced == 0 ? pm::Preserved::kAll
                                            : pm::Preserved::kNone;
  result.add("cse-replaced", stats.cseReplaced);
  return result;
}

pm::PassResult DcePass::run(ir::Program& program, pm::AnalysisManager& am) {
  const LateOptStats stats = applyDce(program, options_, &am);
  pm::PassResult result;
  // applyDce already invalidated the functions it rewrote, so the caches
  // that remain are exactly the still-valid ones.
  result.preserved = pm::Preserved::kAll;
  result.add("dce-removed", stats.dceRemoved);
  return result;
}

}  // namespace casted::passes
