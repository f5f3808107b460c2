#include "passes/late_opts.h"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

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

// Value-number key of an expression.  A candidate has a fixed arity of at
// most three operands; an FP immediate is keyed on its bit pattern, so
// -0.0 and 0.0 (and NaNs of different payloads) stay different values.
struct ExprKey {
  Opcode op = Opcode::kNop;
  std::uint32_t arity = 0;
  std::array<std::uint32_t, 3> operandVns = {0, 0, 0};
  std::int64_t imm = 0;
  std::uint64_t fimmBits = 0;
  std::uint32_t memEpoch = 0;

  friend bool operator==(const ExprKey&, const ExprKey&) = default;

  std::uint64_t hash() const {
    constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
    std::uint64_t h = static_cast<std::uint64_t>(op) |
                      (static_cast<std::uint64_t>(memEpoch) << 32);
    for (const std::uint32_t vn : operandVns) {
      h = (h ^ vn) * kMul;
    }
    h = (h ^ static_cast<std::uint64_t>(imm)) * kMul;
    h = (h ^ fimmBits) * kMul;
    return h ^ (h >> 32);
  }
};

// The available expressions of one block: key -> (value number, register
// holding it), open-addressed over an index sized to the block.  An entry
// is live only while its register still holds the entry's value number,
// which the caller checks; value number 0 marks an entry that is not.
class AvailableExprs {
 public:
  struct Entry {
    ExprKey key;
    std::uint32_t vn = 0;
    Reg reg;
  };

  // Empties the map, sized for up to `count` keys.
  void reset(std::size_t count) {
    index_.assign(std::max<std::size_t>(8, std::bit_ceil(2 * count)), 0);
    mask_ = index_.size() - 1;
    entries_.clear();
  }

  // The entry of `key`, added with value number 0 when absent.
  Entry& at(const ExprKey& key) {
    for (std::size_t i = key.hash() & mask_;; i = (i + 1) & mask_) {
      if (index_[i] == 0) {
        CASTED_CHECK(2 * entries_.size() < index_.size())
            << "more CSE keys than the block was sized for";
        entries_.push_back({key, 0, Reg()});
        index_[i] = static_cast<std::uint32_t>(entries_.size());
        return entries_.back();
      }
      Entry& entry = entries_[index_[i] - 1];
      if (entry.key == key) {
        return entry;
      }
    }
  }

 private:
  std::vector<std::uint32_t> index_;  // 0, or 1 + the index in entries_
  std::size_t mask_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace

LateOptStats applyLocalCse(ir::Program& program,
                           const LateOptOptions& options) {
  LateOptStats stats;
  AvailableExprs available;
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    ir::Function& fn = program.function(f);
    const ir::RegSlots slots = fn.regSlots();
    // Current value number by register slot.  Numbers grow over the whole
    // function, and one below the block's first counts as not numbered yet
    // (0 is below every block's), so no block clears the array.
    std::vector<std::uint32_t> vnOf(slots.count(), 0);
    std::uint32_t nextVn = 1;
    for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
      const std::uint32_t blockFirstVn = nextVn;
      std::uint32_t memEpoch = 0;
      auto vn = [&](Reg reg) {
        std::uint32_t& number = vnOf[slots.slot(reg)];
        if (number < blockFirstVn) {
          number = nextVn++;
        }
        return number;
      };
      std::vector<Instruction>& insns = fn.block(b).insns();
      available.reset(insns.size());

      for (Instruction& insn : insns) {
        const bool excluded =
            options.protectRedundant && insn.origin != InsnOrigin::kOriginal;

        if (insn.isStore() || insn.isCall()) {
          ++memEpoch;
        }

        if (!excluded && isCseCandidate(insn)) {
          CASTED_CHECK(insn.uses.size() <= 3)
              << "CSE candidate with " << insn.uses.size() << " operands";
          ExprKey key;
          key.op = insn.op;
          key.arity = static_cast<std::uint32_t>(insn.uses.size());
          for (std::size_t i = 0; i < insn.uses.size(); ++i) {
            key.operandVns[i] = vn(insn.uses[i]);
          }
          key.imm = insn.info().hasImm || insn.isMemory() ? insn.imm : 0;
          key.fimmBits = insn.info().hasFpImm
                             ? std::bit_cast<std::uint64_t>(insn.fimm)
                             : 0;
          key.memEpoch = insn.isLoad() ? memEpoch : 0;

          const Reg def = insn.defs[0];
          AvailableExprs::Entry& hit = available.at(key);
          if (hit.vn != 0 && vnOf[slots.slot(hit.reg)] == hit.vn) {
            // Rewrite into a copy from the register holding the value; the
            // def keeps the *same* value number as the original result.
            const Reg source = hit.reg;
            insn.op = ir::copyOpcodeFor(def.cls);
            insn.uses = {source};
            insn.imm = 0;
            insn.fimm = 0.0;
            vnOf[slots.slot(def)] = hit.vn;
            if (source == def) {
              // `r = op ...` recomputed r's own value: the entry counts as
              // redefined, so a later recomputation stays as it is.
              hit.vn = 0;
            }
            ++stats.cseReplaced;
            continue;
          }
          const std::uint32_t resultVn = nextVn++;
          vnOf[slots.slot(def)] = resultVn;
          hit.vn = resultVn;
          hit.reg = def;
          continue;
        }

        // Not a candidate (or excluded): just update value numbers.
        for (const Reg& def : insn.defs) {
          vnOf[slots.slot(def)] = nextVn++;
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
