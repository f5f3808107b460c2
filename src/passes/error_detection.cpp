#include "passes/error_detection.h"

#include <unordered_map>
#include <unordered_set>

#include "support/check.h"

namespace casted::passes {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::InsnOrigin;
using ir::Opcode;
using ir::Reg;
using ir::RegClass;

Opcode checkOpcodeFor(RegClass cls) {
  switch (cls) {
    case RegClass::kGp:
      return Opcode::kCheckG;
    case RegClass::kFp:
      return Opcode::kCheckF;
    case RegClass::kPr:
      return Opcode::kCheckP;
  }
  CASTED_UNREACHABLE("bad RegClass");
}

class FunctionTransform {
 public:
  FunctionTransform(Function& fn, const ErrorDetectionOptions& options,
                    ErrorDetectionStats& stats)
      : fn_(fn), options_(options), stats_(stats) {}

  void run() {
    replicateInsns();
    registerRename();
    emitCheckInsns();
  }

 private:
  Reg shadowOf(Reg reg) {
    const auto it = shadow_.find(reg);
    CASTED_CHECK(it != shadow_.end())
        << "no shadow register for " << reg.toString() << " in @"
        << fn_.name();
    return it->second;
  }

  Reg ensureShadow(Reg reg) {
    const auto it = shadow_.find(reg);
    if (it != shadow_.end()) {
      return it->second;
    }
    const Reg fresh = fn_.newReg(reg.cls);
    shadow_.emplace(reg, fresh);
    return fresh;
  }

  // Phase 1 (Alg. 1, replicate_insns): duplicate every replicable
  // instruction, placing the duplicate just before the original.
  void replicateInsns() {
    for (ir::BlockId b = 0; b < fn_.blockCount(); ++b) {
      BasicBlock& block = fn_.block(b);
      std::vector<Instruction> rebuilt;
      rebuilt.reserve(block.insns().size() * 2);
      for (Instruction& insn : block.insns()) {
        if (insn.isReplicable()) {
          Instruction dup = insn;  // exact duplicate
          dup.id = fn_.newInsnId();
          dup.origin = InsnOrigin::kDuplicate;
          dup.duplicateOf = insn.id;
          newDuplicates_.insert(dup.id);
          rebuilt.push_back(std::move(dup));
          ++stats_.replicated;
        }
        rebuilt.push_back(std::move(insn));
      }
      block.insns() = std::move(rebuilt);
    }
  }

  // Phase 2 (Alg. 1, register_rename): establish the shadow register map
  // (Fig. 4b), rewrite the duplicates through it, and emit COPY instructions
  // after non-duplicated value producers (calls) and for incoming
  // parameters so their values enter the shadow stream.
  void registerRename() {
    // 2a. Shadows for everything the duplicate stream writes.  Only the
    // duplicates created by this run participate: re-running the pass on
    // already-protected code must not try to re-rename old duplicates.
    for (ir::BlockId b = 0; b < fn_.blockCount(); ++b) {
      for (const Instruction& insn : fn_.block(b).insns()) {
        if (newDuplicates_.contains(insn.id)) {
          for (const Reg& def : insn.defs) {
            ensureShadow(def);
          }
        }
      }
    }

    // 2b. Copies after non-duplicated value producers — Alg. 1 lines 34-37
    // ("if INSN_ORIG has no duplicates: create COPY_INSN").  These are
    // calls and compiler-generated spill reloads; each write also refreshes
    // the shadow so the two streams stay in sync across them.
    for (ir::BlockId b = 0; b < fn_.blockCount(); ++b) {
      BasicBlock& block = fn_.block(b);
      std::vector<Instruction> rebuilt;
      rebuilt.reserve(block.insns().size());
      for (Instruction& insn : block.insns()) {
        const bool needsCopies = producesUnduplicatedValue(insn);
        std::vector<Reg> defs;
        if (needsCopies) {
          defs = insn.defs;
        }
        rebuilt.push_back(std::move(insn));
        for (const Reg& def : defs) {
          rebuilt.push_back(makeCopy(def));
        }
      }
      block.insns() = std::move(rebuilt);
    }

    // 2c. Copies for parameters, at the top of the entry block.
    if (!fn_.params().empty()) {
      BasicBlock& entry = fn_.entry();
      std::vector<Instruction> rebuilt;
      rebuilt.reserve(entry.insns().size() + fn_.params().size());
      for (const Reg& param : fn_.params()) {
        rebuilt.push_back(makeCopy(param));
      }
      for (Instruction& insn : entry.insns()) {
        rebuilt.push_back(std::move(insn));
      }
      entry.insns() = std::move(rebuilt);
    }

    // 2d. Rewrite the new duplicates: writes and uses go through the shadow
    // map.
    for (ir::BlockId b = 0; b < fn_.blockCount(); ++b) {
      for (Instruction& insn : fn_.block(b).insns()) {
        if (!newDuplicates_.contains(insn.id)) {
          continue;
        }
        for (Reg& def : insn.defs) {
          def = shadowOf(def);
        }
        for (Reg& use : insn.uses) {
          use = shadowOf(use);
        }
      }
    }
  }

  // True when `insn` defines values the duplicate stream may read but has
  // no duplicate of its own: calls (non-replicable originals with results)
  // and spill reloads.  Checks and copies are internal to the redundancy
  // machinery and never feed duplicates.
  static bool producesUnduplicatedValue(const Instruction& insn) {
    if (insn.defs.empty()) {
      return false;
    }
    switch (insn.origin) {
      case InsnOrigin::kOriginal:
        return !insn.isReplicable();
      case InsnOrigin::kSpill:
        return insn.isLoad();
      case InsnOrigin::kDuplicate:
      case InsnOrigin::kCheck:
      case InsnOrigin::kCopy:
        return false;
    }
    CASTED_UNREACHABLE("bad InsnOrigin");
  }

  Instruction makeCopy(Reg original) {
    const Reg shadowReg = ensureShadow(original);
    Instruction copy;
    copy.op = ir::copyOpcodeFor(original.cls);
    copy.id = fn_.newInsnId();
    copy.defs = {shadowReg};
    copy.uses = {original};
    copy.origin = InsnOrigin::kCopy;
    ++stats_.copies;
    return copy;
  }

  bool wantsChecks(const Instruction& insn) const {
    if (insn.origin != InsnOrigin::kOriginal || !insn.isNonReplicated()) {
      return false;
    }
    if (insn.isStore()) {
      return options_.checkStores;
    }
    // Branches, calls, ret, halt.
    return options_.checkControlFlow;
  }

  // Phase 3 (Alg. 1, emit_check_insns): one CHECK per distinct register read
  // by each non-replicated instruction, placed immediately before it.
  void emitCheckInsns() {
    for (ir::BlockId b = 0; b < fn_.blockCount(); ++b) {
      BasicBlock& block = fn_.block(b);
      std::vector<Instruction> rebuilt;
      rebuilt.reserve(block.insns().size());
      for (Instruction& insn : block.insns()) {
        if (wantsChecks(insn)) {
          std::unordered_set<Reg> seen;
          for (const Reg& use : insn.uses) {
            if (!seen.insert(use).second) {
              continue;
            }
            if (options_.splitChecks) {
              // The paper's literal form: a compare producing a predicate,
              // then an explicit conditional trap.
              Instruction cmp;
              cmp.op = use.cls == RegClass::kGp   ? Opcode::kCmpNe
                       : use.cls == RegClass::kFp ? Opcode::kFCmpNeBits
                                                  : Opcode::kPXor;
              cmp.id = fn_.newInsnId();
              cmp.defs = {fn_.newReg(RegClass::kPr)};
              cmp.uses = {use, shadowOf(use)};
              cmp.origin = InsnOrigin::kCheck;
              Instruction trap;
              trap.op = Opcode::kTrapIf;
              trap.id = fn_.newInsnId();
              trap.uses = {cmp.defs[0]};
              trap.origin = InsnOrigin::kCheck;
              trap.guard = insn.id;
              rebuilt.push_back(std::move(cmp));
              rebuilt.push_back(std::move(trap));
            } else {
              Instruction check;
              check.op = checkOpcodeFor(use.cls);
              check.id = fn_.newInsnId();
              check.uses = {use, shadowOf(use)};
              check.origin = InsnOrigin::kCheck;
              check.guard = insn.id;
              rebuilt.push_back(std::move(check));
            }
            ++stats_.checks;
          }
        }
        rebuilt.push_back(std::move(insn));
      }
      block.insns() = std::move(rebuilt);
    }
  }

  Function& fn_;
  const ErrorDetectionOptions& options_;
  ErrorDetectionStats& stats_;
  std::unordered_map<Reg, Reg> shadow_;
  std::unordered_set<ir::InsnId> newDuplicates_;
};

}  // namespace

ErrorDetectionStats applyErrorDetection(ir::Program& program,
                                        const ErrorDetectionOptions& options) {
  ErrorDetectionStats stats;
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    Function& fn = program.function(f);
    if (!fn.isProtected()) {
      ++stats.skippedUnprotected;
      continue;
    }
    FunctionTransform(fn, options, stats).run();
  }
  return stats;
}

pm::PassResult ErrorDetectionPass::run(ir::Program& program,
                                       pm::AnalysisManager& am) {
  (void)am;
  const ErrorDetectionStats stats = applyErrorDetection(program, options_);
  pm::PassResult result;
  result.preserved = stats.totalInserted() == 0 ? pm::Preserved::kAll
                                                : pm::Preserved::kNone;
  result.add("replicated", stats.replicated);
  result.add("checks", stats.checks);
  result.add("copies", stats.copies);
  result.add("skipped-unprotected", stats.skippedUnprotected);
  return result;
}

}  // namespace casted::passes
