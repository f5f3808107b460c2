// The op-semantics kernel of the decoded engine: what one non-control
// micro-op computes from its operands.
//
// evalOp() is the single definition of the data semantics (integer, predicate
// and FP arithmetic, the loads and stores, the traps and the checks) that
// the decoded interpreter's loop and the lockstep lanes both instantiate
// (sim/decoded.cpp).  A lane applies exactly the golden stream's semantics to
// its own operand values because both go through this one switch; only the
// operand access differs.  The reference engine (simulator.cpp) keeps its
// own copy on purpose: it is the independent oracle the decoded engine is
// tested against.
//
// `Access` supplies the operands and receives the results:
//   std::int64_t g(slot); double f(slot); std::uint8_t p(slot);   reads
//   void setG(slot, std::int64_t); setF(slot, double); setP(slot, uint8);
//   TrapKind load(node, address, width, std::uint64_t& value);
//   TrapKind store(node, address, width, std::uint64_t value);
// where slots are frame-relative, `node` is the op's position in its block,
// width is 1 or 8, and a byte store writes the low byte of `value`.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/decoded.h"
#include "sim/memory.h"

namespace casted::sim {

enum class OpStatus : std::uint8_t {
  kOk,       // the op completed (its def, if any, was written)
  kDetect,   // a check fired
  kTrap,     // a hardware trap; OpEval::trap says which
  kControl,  // kBr/kBrCond/kCall/kRet/kHalt: control is the caller's job
};

struct OpEval {
  OpStatus status = OpStatus::kOk;
  TrapKind trap = TrapKind::kNone;
};

namespace kernel {

inline std::int64_t wrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapNeg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}
inline std::uint64_t address(std::int64_t base, std::int64_t imm) {
  return static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(imm);
}
inline std::uint8_t flag(bool value) { return value ? 1 : 0; }

// The helpers below are called with constant flags, which fold away once
// evalOp is inlined into its caller.
template <class Access>
[[gnu::always_inline]] inline OpEval divide(const MicroOp& u, Access& s,
                                            bool remainder) {
  const std::int64_t divisor = s.g(u.b);
  if (divisor == 0) {
    return {OpStatus::kTrap, TrapKind::kDivByZero};
  }
  const std::int64_t dividend = s.g(u.a);
  if (dividend == std::numeric_limits<std::int64_t>::min() && divisor == -1) {
    s.setG(u.def, remainder ? 0 : dividend);  // hardware-defined wrap
  } else {
    s.setG(u.def, remainder ? dividend % divisor : dividend / divisor);
  }
  return {};
}

template <class Access>
[[gnu::always_inline]] inline OpEval load(const MicroOp& u, std::uint32_t node,
                                          Access& s, std::uint32_t width,
                                          bool fp) {
  std::uint64_t value = 0;
  const TrapKind trap = s.load(node, address(s.g(u.a), u.imm), width, value);
  if (trap != TrapKind::kNone) {
    return {OpStatus::kTrap, trap};
  }
  if (fp) {
    s.setF(u.def, std::bit_cast<double>(value));
  } else {
    s.setG(u.def, static_cast<std::int64_t>(value));
  }
  return {};
}

template <class Access>
[[gnu::always_inline]] inline OpEval store(const MicroOp& u,
                                           std::uint32_t node, Access& s,
                                           std::uint32_t width,
                                           std::uint64_t value) {
  const TrapKind trap =
      s.store(node, address(s.g(u.a), u.imm), width, value);
  if (trap != TrapKind::kNone) {
    return {OpStatus::kTrap, trap};
  }
  return {};
}

}  // namespace kernel

// Always inlined: the interpreter loop must keep its operands in registers
// and fold the returned status into each case, as if the switch were its
// own.
template <class Access>
[[gnu::always_inline]] inline OpEval evalOp(const MicroOp& u,
                                            std::uint32_t node, Access& s) {
  using ir::Opcode;
  using namespace kernel;
  switch (u.op) {
    case Opcode::kNop:
      return {};
    case Opcode::kMovImm:
      s.setG(u.def, u.imm);
      return {};
    case Opcode::kMov:
      s.setG(u.def, s.g(u.a));
      return {};
    case Opcode::kAdd:
      s.setG(u.def, wrapAdd(s.g(u.a), s.g(u.b)));
      return {};
    case Opcode::kSub:
      s.setG(u.def, wrapSub(s.g(u.a), s.g(u.b)));
      return {};
    case Opcode::kMul:
      s.setG(u.def, wrapMul(s.g(u.a), s.g(u.b)));
      return {};
    case Opcode::kDiv:
      return divide(u, s, /*remainder=*/false);
    case Opcode::kRem:
      return divide(u, s, /*remainder=*/true);
    case Opcode::kAnd:
      s.setG(u.def, s.g(u.a) & s.g(u.b));
      return {};
    case Opcode::kOr:
      s.setG(u.def, s.g(u.a) | s.g(u.b));
      return {};
    case Opcode::kXor:
      s.setG(u.def, s.g(u.a) ^ s.g(u.b));
      return {};
    case Opcode::kShl:
      s.setG(u.def,
             static_cast<std::int64_t>(static_cast<std::uint64_t>(s.g(u.a))
                                       << (s.g(u.b) & 63)));
      return {};
    case Opcode::kShr:
      s.setG(u.def,
             static_cast<std::int64_t>(static_cast<std::uint64_t>(s.g(u.a)) >>
                                       (s.g(u.b) & 63)));
      return {};
    case Opcode::kSra:
      s.setG(u.def, s.g(u.a) >> (s.g(u.b) & 63));
      return {};
    case Opcode::kMin:
      s.setG(u.def, std::min(s.g(u.a), s.g(u.b)));
      return {};
    case Opcode::kMax:
      s.setG(u.def, std::max(s.g(u.a), s.g(u.b)));
      return {};
    case Opcode::kAddImm:
      s.setG(u.def, wrapAdd(s.g(u.a), u.imm));
      return {};
    case Opcode::kMulImm:
      s.setG(u.def, wrapMul(s.g(u.a), u.imm));
      return {};
    case Opcode::kAndImm:
      s.setG(u.def, s.g(u.a) & u.imm);
      return {};
    case Opcode::kShlImm:
      s.setG(u.def, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(s.g(u.a)) << (u.imm & 63)));
      return {};
    case Opcode::kShrImm:
      s.setG(u.def, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(s.g(u.a)) >> (u.imm & 63)));
      return {};
    case Opcode::kSraImm:
      s.setG(u.def, s.g(u.a) >> (u.imm & 63));
      return {};
    case Opcode::kNeg:
      s.setG(u.def, wrapNeg(s.g(u.a)));
      return {};
    case Opcode::kAbs: {
      const std::int64_t value = s.g(u.a);
      s.setG(u.def, value < 0 ? wrapNeg(value) : value);
      return {};
    }
    case Opcode::kNot:
      s.setG(u.def, ~s.g(u.a));
      return {};
    case Opcode::kSelect:
      s.setG(u.def, s.p(u.a) != 0 ? s.g(u.b) : s.g(u.c));
      return {};
    case Opcode::kCmpEq:
      s.setP(u.def, flag(s.g(u.a) == s.g(u.b)));
      return {};
    case Opcode::kCmpNe:
      s.setP(u.def, flag(s.g(u.a) != s.g(u.b)));
      return {};
    case Opcode::kCmpLt:
      s.setP(u.def, flag(s.g(u.a) < s.g(u.b)));
      return {};
    case Opcode::kCmpLe:
      s.setP(u.def, flag(s.g(u.a) <= s.g(u.b)));
      return {};
    case Opcode::kCmpGt:
      s.setP(u.def, flag(s.g(u.a) > s.g(u.b)));
      return {};
    case Opcode::kCmpGe:
      s.setP(u.def, flag(s.g(u.a) >= s.g(u.b)));
      return {};
    case Opcode::kCmpEqImm:
      s.setP(u.def, flag(s.g(u.a) == u.imm));
      return {};
    case Opcode::kCmpNeImm:
      s.setP(u.def, flag(s.g(u.a) != u.imm));
      return {};
    case Opcode::kCmpLtImm:
      s.setP(u.def, flag(s.g(u.a) < u.imm));
      return {};
    case Opcode::kCmpLeImm:
      s.setP(u.def, flag(s.g(u.a) <= u.imm));
      return {};
    case Opcode::kCmpGtImm:
      s.setP(u.def, flag(s.g(u.a) > u.imm));
      return {};
    case Opcode::kCmpGeImm:
      s.setP(u.def, flag(s.g(u.a) >= u.imm));
      return {};
    case Opcode::kPMov:
      s.setP(u.def, s.p(u.a));
      return {};
    case Opcode::kPNot:
      s.setP(u.def, flag(s.p(u.a) == 0));
      return {};
    case Opcode::kPAnd:
      s.setP(u.def, flag(s.p(u.a) != 0 && s.p(u.b) != 0));
      return {};
    case Opcode::kPOr:
      s.setP(u.def, flag(s.p(u.a) != 0 || s.p(u.b) != 0));
      return {};
    case Opcode::kPXor:
      s.setP(u.def, flag((s.p(u.a) != 0) != (s.p(u.b) != 0)));
      return {};
    case Opcode::kPSetImm:
      s.setP(u.def, flag(u.imm != 0));
      return {};
    case Opcode::kFMovImm:
      s.setF(u.def, std::bit_cast<double>(u.imm));
      return {};
    case Opcode::kFMov:
      s.setF(u.def, s.f(u.a));
      return {};
    case Opcode::kFAdd:
      s.setF(u.def, s.f(u.a) + s.f(u.b));
      return {};
    case Opcode::kFSub:
      s.setF(u.def, s.f(u.a) - s.f(u.b));
      return {};
    case Opcode::kFMul:
      s.setF(u.def, s.f(u.a) * s.f(u.b));
      return {};
    case Opcode::kFDiv:
      s.setF(u.def, s.f(u.a) / s.f(u.b));
      return {};
    case Opcode::kFMin:
      s.setF(u.def, std::fmin(s.f(u.a), s.f(u.b)));
      return {};
    case Opcode::kFMax:
      s.setF(u.def, std::fmax(s.f(u.a), s.f(u.b)));
      return {};
    case Opcode::kFNeg:
      s.setF(u.def, -s.f(u.a));
      return {};
    case Opcode::kFAbs:
      s.setF(u.def, std::fabs(s.f(u.a)));
      return {};
    case Opcode::kFSqrt:
      s.setF(u.def, std::sqrt(s.f(u.a)));
      return {};
    case Opcode::kFCmpEq:
      s.setP(u.def, flag(s.f(u.a) == s.f(u.b)));
      return {};
    case Opcode::kFCmpLt:
      s.setP(u.def, flag(s.f(u.a) < s.f(u.b)));
      return {};
    case Opcode::kFCmpLe:
      s.setP(u.def, flag(s.f(u.a) <= s.f(u.b)));
      return {};
    case Opcode::kI2F:
      s.setF(u.def, static_cast<double>(s.g(u.a)));
      return {};
    case Opcode::kF2I: {
      const double value = s.f(u.a);
      if (!std::isfinite(value) || value >= 9.2233720368547758e18 ||
          value < -9.2233720368547758e18) {
        return {OpStatus::kTrap, TrapKind::kBadConversion};
      }
      s.setG(u.def, static_cast<std::int64_t>(value));
      return {};
    }
    case Opcode::kLoad:
      return load(u, node, s, 8, /*fp=*/false);
    case Opcode::kLoadB:
      return load(u, node, s, 1, /*fp=*/false);
    case Opcode::kFLoad:
      return load(u, node, s, 8, /*fp=*/true);
    case Opcode::kStore:
      return store(u, node, s, 8, static_cast<std::uint64_t>(s.g(u.b)));
    case Opcode::kStoreB:
      return store(u, node, s, 1, static_cast<std::uint64_t>(s.g(u.b)));
    case Opcode::kFStore:
      return store(u, node, s, 8, std::bit_cast<std::uint64_t>(s.f(u.b)));
    case Opcode::kCheckG:
      return {s.g(u.a) != s.g(u.b) ? OpStatus::kDetect : OpStatus::kOk};
    case Opcode::kCheckF:
      // Bit-pattern compare: NaN-safe, sensitive to every flipped bit.
      return {std::bit_cast<std::uint64_t>(s.f(u.a)) !=
                      std::bit_cast<std::uint64_t>(s.f(u.b))
                  ? OpStatus::kDetect
                  : OpStatus::kOk};
    case Opcode::kCheckP:
      return {s.p(u.a) != s.p(u.b) ? OpStatus::kDetect : OpStatus::kOk};
    case Opcode::kFCmpNeBits:
      s.setP(u.def, flag(std::bit_cast<std::uint64_t>(s.f(u.a)) !=
                         std::bit_cast<std::uint64_t>(s.f(u.b))));
      return {};
    case Opcode::kTrapIf:
      return {s.p(u.a) != 0 ? OpStatus::kDetect : OpStatus::kOk};
    case Opcode::kBr:
    case Opcode::kBrCond:
    case Opcode::kCall:
    case Opcode::kRet:
    case Opcode::kHalt:
    case Opcode::kOpcodeCount:
      break;
  }
  return {OpStatus::kControl};
}

}  // namespace casted::sim
