#include "ir/verifier.h"

#include <sstream>
#include <vector>

#include "support/check.h"

namespace casted::ir {
namespace {

class FunctionVerifier {
 public:
  FunctionVerifier(const Program& program, const Function& fn,
                   std::vector<std::string>& errors)
      : program_(program), fn_(fn), errors_(errors) {}

  void run() {
    verifyStructure();
    if (structureOk_) {
      verifyDefiniteAssignment();
    }
  }

 private:
  template <typename... Parts>
  void error(const Instruction* insn, const Parts&... parts) {
    std::ostringstream out;
    out << "@" << fn_.name();
    if (insn != nullptr) {
      out << ": '" << insn->toString() << "'";
    }
    out << ": ";
    (out << ... << parts);
    errors_.push_back(out.str());
  }

  void verifyReg(const Instruction& insn, Reg reg, RegClass expected,
                 const char* kind) {
    if (!reg.valid()) {
      error(&insn, "invalid ", kind, " register");
      structureOk_ = false;
      return;
    }
    if (reg.cls != expected) {
      error(&insn, kind, " register ", reg.toString(), " has class ",
            regClassPrefix(reg.cls), ", expected ", regClassPrefix(expected));
    }
    if (reg.index >= fn_.regCount(reg.cls)) {
      error(&insn, kind, " register ", reg.toString(),
            " out of range (function allocated ", fn_.regCount(reg.cls), ")");
      structureOk_ = false;
    }
  }

  void verifySignature(const Instruction& insn) {
    const OpcodeInfo& info = insn.info();
    if (info.variableArity) {
      if (insn.op == Opcode::kCall) {
        if (insn.callee >= program_.functionCount()) {
          error(&insn, "call to unknown function id ", insn.callee);
          return;
        }
        const Function& callee = program_.function(insn.callee);
        if (insn.uses.size() != callee.params().size()) {
          error(&insn, "call passes ", insn.uses.size(), " args, @",
                callee.name(), " takes ", callee.params().size());
        } else {
          for (std::size_t i = 0; i < insn.uses.size(); ++i) {
            verifyReg(insn, insn.uses[i], callee.params()[i].cls, "argument");
          }
        }
        if (insn.defs.size() != callee.returnClasses().size()) {
          error(&insn, "call defines ", insn.defs.size(), " results, @",
                callee.name(), " returns ", callee.returnClasses().size());
        } else {
          for (std::size_t i = 0; i < insn.defs.size(); ++i) {
            verifyReg(insn, insn.defs[i], callee.returnClasses()[i], "result");
          }
        }
      } else {  // kRet
        if (insn.uses.size() != fn_.returnClasses().size()) {
          error(&insn, "ret passes ", insn.uses.size(), " values, function "
                "declares ", fn_.returnClasses().size());
        } else {
          for (std::size_t i = 0; i < insn.uses.size(); ++i) {
            verifyReg(insn, insn.uses[i], fn_.returnClasses()[i], "return");
          }
        }
      }
      return;
    }
    if (insn.defs.size() != info.defCount) {
      error(&insn, "expected ", static_cast<int>(info.defCount),
            " defs, got ", insn.defs.size());
      return;
    }
    if (info.defCount == 1) {
      verifyReg(insn, insn.defs[0], info.defClass, "def");
    }
    if (insn.uses.size() != info.useCount) {
      error(&insn, "expected ", static_cast<int>(info.useCount),
            " uses, got ", insn.uses.size());
      return;
    }
    for (std::size_t i = 0; i < insn.uses.size(); ++i) {
      verifyReg(insn, insn.uses[i], info.useClass[i], "use");
    }
  }

  void verifyBranchTargets(const Instruction& insn) {
    auto checkTarget = [&](BlockId id) {
      if (id >= fn_.blockCount()) {
        error(&insn, "branch target bb", id, " does not exist");
        structureOk_ = false;  // the dataflow pass would walk this edge
      }
    };
    if (insn.op == Opcode::kBr) {
      checkTarget(insn.target);
    } else if (insn.op == Opcode::kBrCond) {
      checkTarget(insn.target);
      checkTarget(insn.target2);
    }
  }

  void verifyMetadata(const Instruction& insn) {
    const bool isDup = insn.origin == InsnOrigin::kDuplicate;
    if (isDup != (insn.duplicateOf != kInvalidInsn)) {
      error(&insn, "duplicateOf link inconsistent with origin ",
            insnOriginName(insn.origin));
    }
    if (insn.isCheck() && insn.origin != InsnOrigin::kCheck) {
      error(&insn, "check instruction with origin ",
            insnOriginName(insn.origin));
    }
    if (insn.id == kInvalidInsn || insn.id >= fn_.insnIdBound()) {
      error(&insn, "instruction id out of range");
      structureOk_ = false;
    }
  }

  void verifyStructure() {
    if (fn_.blockCount() == 0) {
      error(nullptr, "function has no blocks");
      structureOk_ = false;
      return;
    }
    for (const Reg& param : fn_.params()) {
      if (!param.valid() || param.index >= fn_.regCount(param.cls)) {
        error(nullptr, "parameter ", param.toString(), " out of range");
        structureOk_ = false;
      }
    }
    for (BlockId b = 0; b < fn_.blockCount(); ++b) {
      const BasicBlock& block = fn_.block(b);
      if (block.empty()) {
        error(nullptr, "bb", b, " is empty");
        structureOk_ = false;
        continue;
      }
      if (!block.insns().back().isTerminator()) {
        error(nullptr, "bb", b, " does not end in a terminator");
        structureOk_ = false;
      }
      for (std::size_t i = 0; i < block.insns().size(); ++i) {
        const Instruction& insn = block.insns()[i];
        if (insn.isTerminator() && i + 1 != block.insns().size()) {
          error(&insn, "terminator in the middle of bb", b);
          structureOk_ = false;
        }
        verifySignature(insn);
        verifyBranchTargets(insn);
        verifyMetadata(insn);
      }
    }
  }

  // Definite assignment: forward may-not-be-assigned analysis.  A register
  // use is legal only if every path from entry assigns it first.
  void verifyDefiniteAssignment() {
    const RegSlots slots = fn_.regSlots();
    const std::size_t total = slots.count();

    const std::size_t blocks = fn_.blockCount();
    // in[b] / out[b]: registers definitely assigned at block entry/exit.
    std::vector<std::vector<bool>> in(blocks, std::vector<bool>(total, false));
    std::vector<std::vector<bool>> out(blocks,
                                       std::vector<bool>(total, false));
    std::vector<bool> reached(blocks, false);

    // Entry: parameters are assigned.
    for (const Reg& param : fn_.params()) {
      in[0][slots.slot(param)] = true;
    }
    reached[0] = true;

    auto transfer = [&](BlockId b, std::vector<bool> defined) {
      for (const Instruction& insn : fn_.block(b).insns()) {
        for (const Reg& def : insn.defs) {
          defined[slots.slot(def)] = true;
        }
      }
      return defined;
    };

    bool changed = true;
    while (changed) {
      changed = false;
      for (BlockId b = 0; b < blocks; ++b) {
        if (!reached[b]) {
          continue;
        }
        std::vector<bool> newOut = transfer(b, in[b]);
        if (newOut != out[b]) {
          out[b] = newOut;
          changed = true;
        }
        for (BlockId succ : fn_.block(b).successors()) {
          if (!reached[succ]) {
            reached[succ] = true;
            in[succ] = out[b];
            changed = true;
          } else {
            // Meet: intersection.
            bool shrunk = false;
            for (std::size_t i = 0; i < total; ++i) {
              if (in[succ][i] && !out[b][i]) {
                in[succ][i] = false;
                shrunk = true;
              }
            }
            changed = changed || shrunk;
          }
        }
      }
    }

    for (BlockId b = 0; b < blocks; ++b) {
      if (!reached[b]) {
        continue;  // unreachable code: structurally allowed
      }
      std::vector<bool> defined = in[b];
      for (const Instruction& insn : fn_.block(b).insns()) {
        for (const Reg& use : insn.uses) {
          if (!defined[slots.slot(use)]) {
            error(&insn, "register ", use.toString(),
                  " may be read before assignment");
          }
        }
        for (const Reg& def : insn.defs) {
          defined[slots.slot(def)] = true;
        }
      }
    }
  }

  const Program& program_;
  const Function& fn_;
  std::vector<std::string>& errors_;
  bool structureOk_ = true;
};

}  // namespace

std::vector<std::string> verify(const Program& program) {
  std::vector<std::string> errors;
  if (program.functionCount() == 0) {
    errors.push_back("program has no functions");
    return errors;
  }
  if (program.entryFunction() >= program.functionCount()) {
    errors.push_back("program entry function id is invalid");
  } else if (!program.function(program.entryFunction()).params().empty()) {
    errors.push_back("entry function must take no parameters");
  }
  for (FuncId f = 0; f < program.functionCount(); ++f) {
    FunctionVerifier(program, program.function(f), errors).run();
  }
  return errors;
}

void verifyOrThrow(const Program& program) {
  const std::vector<std::string> errors = verify(program);
  if (errors.empty()) {
    return;
  }
  std::ostringstream out;
  out << "IR verification failed (" << errors.size() << " errors):";
  const std::size_t shown = std::min<std::size_t>(errors.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    out << "\n  " << errors[i];
  }
  if (shown < errors.size()) {
    out << "\n  ... and " << (errors.size() - shown) << " more";
  }
  throw FatalError(out.str());
}

}  // namespace casted::ir
