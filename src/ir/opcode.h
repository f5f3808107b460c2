// Opcode set and static metadata.
//
// The opcode set is a small RISC/IA-64-flavoured mix: integer ALU, multiply/
// divide, predicate-producing compares, predicate logic, double-precision FP,
// loads/stores with immediate offsets, branches on predicates, calls, and the
// CHECK instruction that the error-detection pass inserts (the fused
// cmp+branch-to-handler pair of Algorithm 1 step iii).
#pragma once

#include <cstdint>
#include <span>

#include "ir/reg.h"

namespace casted::ir {

enum class Opcode : std::uint8_t {
  kNop,
  // Integer ALU (def: GP).
  kMovImm,  // g = imm
  kMov,     // g = g
  kAdd,
  kSub,
  kMul,
  kDiv,  // traps on divide-by-zero
  kRem,  // traps on divide-by-zero
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,  // logical
  kSra,  // arithmetic
  kMin,
  kMax,
  kAddImm,
  kMulImm,
  kAndImm,
  kShlImm,
  kShrImm,
  kSraImm,
  kNeg,
  kAbs,
  kNot,
  kSelect,  // g = p ? a : b
  // Integer compares (def: PR).
  kCmpEq,
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kCmpEqImm,
  kCmpNeImm,
  kCmpLtImm,
  kCmpLeImm,
  kCmpGtImm,
  kCmpGeImm,
  // Predicate logic (def: PR).
  kPMov,
  kPNot,
  kPAnd,
  kPOr,
  kPXor,
  kPSetImm,  // p = imm (0/1)
  // Floating point (def: FP unless stated).
  kFMovImm,  // f = fimm
  kFMov,
  kFAdd,
  kFSub,
  kFMul,
  kFDiv,
  kFMin,
  kFMax,
  kFNeg,
  kFAbs,
  kFSqrt,
  kFCmpEq,  // def: PR
  kFCmpLt,  // def: PR
  kFCmpLe,  // def: PR
  kI2F,     // f = (double)g
  kF2I,     // g = (int64)f, truncating; traps on non-finite
  // Memory.  Address = GP base + immediate offset.
  kLoad,    // g = mem64[base+imm]
  kLoadB,   // g = zext mem8[base+imm]
  kStore,   // mem64[base+imm] = g
  kStoreB,  // mem8[base+imm] = g (low byte)
  kFLoad,   // f = memF64[base+imm]
  kFStore,  // memF64[base+imm] = f
  // Control flow (terminators except kCall).
  kBr,      // unconditional, `target`
  kBrCond,  // if (p) goto target else goto target2
  kCall,    // non-terminator barrier; defs/uses are the return/argument regs
  kRet,     // uses = returned values
  kHalt,    // uses = {exit code (GP)}
  // Error detection (inserted by the ErrorDetectionPass).
  kCheckG,  // trap-to-detect-handler if uses[0] != uses[1] (GP)
  kCheckF,  // same, FP (bit-pattern compare)
  kCheckP,  // same, PR
  // Split-check mode (the paper's literal cmp+jump pair): a compare feeding
  // an explicit conditional trap.
  kFCmpNeBits,  // p = (bits of f1) != (bits of f2)  — NaN-exact
  kTrapIf,      // trap-to-detect-handler if p

  kOpcodeCount,
};

// Functional-unit class used by the machine model for latency lookup and
// (optionally) per-cluster issue-port constraints.
enum class FuClass : std::uint8_t {
  kNone,    // nop
  kIntAlu,  // single-cycle integer / predicate / compare / check
  kIntMul,
  kIntDiv,
  kFpAlu,
  kFpMul,
  kFpDiv,
  kMem,     // loads and stores
  kBranch,  // br / brcond / ret / halt
  kCall,
};

// Static per-opcode facts.
struct OpcodeInfo {
  const char* name;          // textual mnemonic, e.g. "add"
  FuClass fuClass;
  // Fixed-arity signature.  kCall/kRet have variable arity: the counts below
  // are 0 and `variableArity` is true.
  std::uint8_t defCount;     // 0 or 1
  RegClass defClass;
  std::uint8_t useCount;     // 0..3
  RegClass useClass[3];
  bool variableArity;        // kCall / kRet
  bool hasImm;               // consumes the integer immediate field
  bool hasFpImm;             // consumes the FP immediate field
  bool isTerminator;         // must end a basic block
  bool isBranch;             // kBr / kBrCond
  bool isLoad;
  bool isStore;
  bool isCheck;
  bool canTrap;              // div/rem/f2i/memory: may raise an exception
};

// Metadata accessor; total over all opcodes.
const OpcodeInfo& opcodeInfo(Opcode op);

// The register-to-register copy of class `cls`: kMov, kFMov or kPMov.
Opcode copyOpcodeFor(RegClass cls);

// Replication policy of Algorithm 1: control flow and stores are never
// replicated (checks/copies are compiler-generated and also excluded, but
// those are marked per-instruction, not per-opcode).
bool isReplicableOpcode(Opcode op);

// Looks up an opcode by mnemonic; returns kOpcodeCount if unknown.
Opcode opcodeFromName(std::string_view name);

}  // namespace casted::ir
