#include "ir/opcode.h"

#include <array>
#include <string_view>

#include "support/check.h"

namespace casted::ir {
namespace {

constexpr RegClass G = RegClass::kGp;
constexpr RegClass F = RegClass::kFp;
constexpr RegClass P = RegClass::kPr;

struct Row {
  Opcode op;
  OpcodeInfo info;
};

// One row per opcode; validated against the enum at startup by opcodeInfo.
// Fields: name, fuClass, defCount, defClass, useCount, {useClasses},
// variableArity, hasImm, hasFpImm, isTerminator, isBranch, isLoad, isStore,
// isCheck, canTrap.
constexpr std::array kTable = {
    Row{Opcode::kNop,
        {"nop", FuClass::kNone, 0, G, 0, {G, G, G}, false, false, false, false,
         false, false, false, false, false}},
    Row{Opcode::kMovImm,
        {"movi", FuClass::kIntAlu, 1, G, 0, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kMov,
        {"mov", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kAdd,
        {"add", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kSub,
        {"sub", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kMul,
        {"mul", FuClass::kIntMul, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kDiv,
        {"div", FuClass::kIntDiv, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, true}},
    Row{Opcode::kRem,
        {"rem", FuClass::kIntDiv, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, true}},
    Row{Opcode::kAnd,
        {"and", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kOr,
        {"or", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kXor,
        {"xor", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kShl,
        {"shl", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kShr,
        {"shr", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kSra,
        {"sra", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kMin,
        {"min", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kMax,
        {"max", FuClass::kIntAlu, 1, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kAddImm,
        {"addi", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kMulImm,
        {"muli", FuClass::kIntMul, 1, G, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kAndImm,
        {"andi", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kShlImm,
        {"shli", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kShrImm,
        {"shri", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kSraImm,
        {"srai", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kNeg,
        {"neg", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kAbs,
        {"abs", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kNot,
        {"not", FuClass::kIntAlu, 1, G, 1, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kSelect,
        {"select", FuClass::kIntAlu, 1, G, 3, {P, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpEq,
        {"cmpeq", FuClass::kIntAlu, 1, P, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpNe,
        {"cmpne", FuClass::kIntAlu, 1, P, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpLt,
        {"cmplt", FuClass::kIntAlu, 1, P, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpLe,
        {"cmple", FuClass::kIntAlu, 1, P, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpGt,
        {"cmpgt", FuClass::kIntAlu, 1, P, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpGe,
        {"cmpge", FuClass::kIntAlu, 1, P, 2, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpEqImm,
        {"cmpeqi", FuClass::kIntAlu, 1, P, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpNeImm,
        {"cmpnei", FuClass::kIntAlu, 1, P, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpLtImm,
        {"cmplti", FuClass::kIntAlu, 1, P, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpLeImm,
        {"cmplei", FuClass::kIntAlu, 1, P, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpGtImm,
        {"cmpgti", FuClass::kIntAlu, 1, P, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kCmpGeImm,
        {"cmpgei", FuClass::kIntAlu, 1, P, 1, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kPMov,
        {"pmov", FuClass::kIntAlu, 1, P, 1, {P, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kPNot,
        {"pnot", FuClass::kIntAlu, 1, P, 1, {P, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kPAnd,
        {"pand", FuClass::kIntAlu, 1, P, 2, {P, P, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kPOr,
        {"por", FuClass::kIntAlu, 1, P, 2, {P, P, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kPXor,
        {"pxor", FuClass::kIntAlu, 1, P, 2, {P, P, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kPSetImm,
        {"pseti", FuClass::kIntAlu, 1, P, 0, {G, G, G}, false, true, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFMovImm,
        {"fmovi", FuClass::kFpAlu, 1, F, 0, {G, G, G}, false, false, true,
         false, false, false, false, false, false}},
    Row{Opcode::kFMov,
        {"fmov", FuClass::kFpAlu, 1, F, 1, {F, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFAdd,
        {"fadd", FuClass::kFpAlu, 1, F, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFSub,
        {"fsub", FuClass::kFpAlu, 1, F, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFMul,
        {"fmul", FuClass::kFpMul, 1, F, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFDiv,
        {"fdiv", FuClass::kFpDiv, 1, F, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFMin,
        {"fmin", FuClass::kFpAlu, 1, F, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFMax,
        {"fmax", FuClass::kFpAlu, 1, F, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFNeg,
        {"fneg", FuClass::kFpAlu, 1, F, 1, {F, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFAbs,
        {"fabs", FuClass::kFpAlu, 1, F, 1, {F, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFSqrt,
        {"fsqrt", FuClass::kFpDiv, 1, F, 1, {F, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFCmpEq,
        {"fcmpeq", FuClass::kFpAlu, 1, P, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFCmpLt,
        {"fcmplt", FuClass::kFpAlu, 1, P, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kFCmpLe,
        {"fcmple", FuClass::kFpAlu, 1, P, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kI2F,
        {"i2f", FuClass::kFpAlu, 1, F, 1, {G, G, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kF2I,
        {"f2i", FuClass::kFpAlu, 1, G, 1, {F, G, G}, false, false, false,
         false, false, false, false, false, true}},
    Row{Opcode::kLoad,
        {"load", FuClass::kMem, 1, G, 1, {G, G, G}, false, true, false, false,
         false, true, false, false, true}},
    Row{Opcode::kLoadB,
        {"loadb", FuClass::kMem, 1, G, 1, {G, G, G}, false, true, false,
         false, false, true, false, false, true}},
    Row{Opcode::kStore,
        {"store", FuClass::kMem, 0, G, 2, {G, G, G}, false, true, false,
         false, false, false, true, false, true}},
    Row{Opcode::kStoreB,
        {"storeb", FuClass::kMem, 0, G, 2, {G, G, G}, false, true, false,
         false, false, false, true, false, true}},
    Row{Opcode::kFLoad,
        {"fload", FuClass::kMem, 1, F, 1, {G, G, G}, false, true, false,
         false, false, true, false, false, true}},
    Row{Opcode::kFStore,
        {"fstore", FuClass::kMem, 0, G, 2, {G, F, G}, false, true, false,
         false, false, false, true, false, true}},
    Row{Opcode::kBr,
        {"br", FuClass::kBranch, 0, G, 0, {G, G, G}, false, false, false,
         true, true, false, false, false, false}},
    Row{Opcode::kBrCond,
        {"brc", FuClass::kBranch, 0, G, 1, {P, G, G}, false, false, false,
         true, true, false, false, false, false}},
    Row{Opcode::kCall,
        {"call", FuClass::kCall, 0, G, 0, {G, G, G}, true, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kRet,
        {"ret", FuClass::kBranch, 0, G, 0, {G, G, G}, true, false, false,
         true, false, false, false, false, false}},
    Row{Opcode::kHalt,
        {"halt", FuClass::kBranch, 0, G, 1, {G, G, G}, false, false, false,
         true, false, false, false, false, false}},
    Row{Opcode::kCheckG,
        {"chk", FuClass::kIntAlu, 0, G, 2, {G, G, G}, false, false, false,
         false, false, false, false, true, false}},
    Row{Opcode::kCheckF,
        {"fchk", FuClass::kIntAlu, 0, G, 2, {F, F, G}, false, false, false,
         false, false, false, false, true, false}},
    Row{Opcode::kCheckP,
        {"pchk", FuClass::kIntAlu, 0, G, 2, {P, P, G}, false, false, false,
         false, false, false, false, true, false}},
    Row{Opcode::kFCmpNeBits,
        {"fcmpneb", FuClass::kFpAlu, 1, P, 2, {F, F, G}, false, false, false,
         false, false, false, false, false, false}},
    Row{Opcode::kTrapIf,
        {"trapif", FuClass::kBranch, 0, G, 1, {P, G, G}, false, false, false,
         false, false, false, false, true, false}},
};

static_assert(kTable.size() == static_cast<std::size_t>(Opcode::kOpcodeCount),
              "opcode table out of sync with Opcode enum");

}  // namespace

const OpcodeInfo& opcodeInfo(Opcode op) {
  const auto index = static_cast<std::size_t>(op);
  CASTED_CHECK(index < kTable.size()) << "bad opcode " << index;
  const Row& row = kTable[index];
  CASTED_CHECK(row.op == op) << "opcode table row mismatch at " << index;
  return row.info;
}

Opcode copyOpcodeFor(RegClass cls) {
  switch (cls) {
    case RegClass::kGp:
      return Opcode::kMov;
    case RegClass::kFp:
      return Opcode::kFMov;
    case RegClass::kPr:
      return Opcode::kPMov;
  }
  CASTED_UNREACHABLE("bad RegClass");
}

bool isReplicableOpcode(Opcode op) {
  if (op == Opcode::kNop) {
    return false;
  }
  const OpcodeInfo& info = opcodeInfo(op);
  // Algorithm 1: skip control flow (branches, calls, ret, halt), stores, and
  // checks.  Everything else — including loads — is replicated.
  return !info.isTerminator && !info.isStore && !info.isCheck &&
         op != Opcode::kCall;
}

Opcode opcodeFromName(std::string_view name) {
  for (const Row& row : kTable) {
    if (row.info.name == name) {
      return row.op;
    }
  }
  return Opcode::kOpcodeCount;
}

}  // namespace casted::ir
