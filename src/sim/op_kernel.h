// The op-semantics kernels of the decoded engine: what one non-control
// micro-op computes from its operands.
//
// opKernel<kOp>() is the single definition of opcode kOp's data semantics
// (integer, predicate and FP arithmetic, the loads and stores, the traps
// and the checks); nothing else in the engine writes what an opcode
// computes.  Two callers instantiate it, and differ only in the access and
// in where they dispatch on the opcode (withOpcode):
//   * the decoded interpreter's loop (sim/decoded.cpp) calls evalOp(),
//     which dispatches once per op;
//   * the lockstep lanes' batch step (sim/lanes.cpp) dispatches once per
//     batch and runs opKernel<kOp> for every lane of the batch, so its
//     per-lane loop is compiled per opcode and holds no opcode switch.
// A lane applies exactly the golden stream's semantics to its own operand
// values because both run the same kernel.  The reference engine
// (simulator.cpp) keeps its own copy on purpose: it is the independent
// oracle the decoded engine is tested against.
//
// `Access` supplies the operands and receives the results:
//   std::int64_t g(u, use); double f(u, use); std::uint8_t p(u, use);
//   void setG(u, std::int64_t); setF(u, double); setP(u, std::uint8_t);
//   TrapKind load(node, address, width, std::uint64_t& value);
//   TrapKind store(node, address, width, std::uint64_t value);
// where `use` names the register operand read (kA, kB or kC: the frame
// slot in u.a, u.b or u.c), the setters write the op's def (u.def),
// `node` is the op's position in its block, width is 1 or 8, and a byte
// store writes the low byte of `value`.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "sim/decoded.h"
#include "sim/memory.h"
#include "support/check.h"

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

// The register operands of a fixed-arity op, by position: a kernel reads
// operand kA, kB or kC, and the access maps it to its field (slotOf) or to
// a value it gathered for that position.
template <int I>
using Use = std::integral_constant<int, I>;
inline constexpr Use<0> kA{};
inline constexpr Use<1> kB{};
inline constexpr Use<2> kC{};

template <int I>
inline std::uint32_t slotOf(const MicroOp& u, Use<I>) {
  static_assert(I >= 0 && I < 3);
  return I == 0 ? u.a : I == 1 ? u.b : u.c;
}

// Opcode kOp as a type, for withOpcode's callback.
template <ir::Opcode kOp>
using OpTag = std::integral_constant<ir::Opcode, kOp>;

// kBr/kBrCond/kCall/kRet/kHalt: no kernel; control is the caller's job.
constexpr bool isControl(ir::Opcode op) {
  return op >= ir::Opcode::kBr && op <= ir::Opcode::kHalt;
}

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

// The helpers below are called with constant flags, which fold away in
// each opKernel instantiation.
template <class Access>
[[gnu::always_inline]] inline OpEval divide(const MicroOp& u, Access& s,
                                            bool remainder) {
  const std::int64_t divisor = s.g(u, kB);
  if (divisor == 0) {
    return {OpStatus::kTrap, TrapKind::kDivByZero};
  }
  const std::int64_t dividend = s.g(u, kA);
  if (dividend == std::numeric_limits<std::int64_t>::min() && divisor == -1) {
    s.setG(u, remainder ? 0 : dividend);  // hardware-defined wrap
  } else {
    s.setG(u, remainder ? dividend % divisor : dividend / divisor);
  }
  return {};
}

template <class Access>
[[gnu::always_inline]] inline OpEval load(const MicroOp& u, std::uint32_t node,
                                          Access& s, std::uint32_t width,
                                          bool fp) {
  std::uint64_t value = 0;
  const TrapKind trap = s.load(node, address(s.g(u, kA), u.imm), width, value);
  if (trap != TrapKind::kNone) {
    return {OpStatus::kTrap, trap};
  }
  if (fp) {
    s.setF(u, std::bit_cast<double>(value));
  } else {
    s.setG(u, static_cast<std::int64_t>(value));
  }
  return {};
}

template <class Access>
[[gnu::always_inline]] inline OpEval store(const MicroOp& u,
                                           std::uint32_t node, Access& s,
                                           std::uint32_t width,
                                           std::uint64_t value) {
  const TrapKind trap =
      s.store(node, address(s.g(u, kA), u.imm), width, value);
  if (trap != TrapKind::kNone) {
    return {OpStatus::kTrap, trap};
  }
  return {};
}

}  // namespace kernel

// Opcode kOp's kernel.  The switch is on the template argument, so each
// instantiation keeps one case.  Always inlined: the interpreter loop must
// keep its operands in registers and fold the returned status into each
// case, as must each lane loop.
template <ir::Opcode kOp, class Access>
[[gnu::always_inline]] inline OpEval opKernel(const MicroOp& u,
                                              std::uint32_t node, Access& s) {
  using ir::Opcode;
  using namespace kernel;
  switch (kOp) {
    case Opcode::kNop:
      return {};
    case Opcode::kMovImm:
      s.setG(u, u.imm);
      return {};
    case Opcode::kMov:
      s.setG(u, s.g(u, kA));
      return {};
    case Opcode::kAdd:
      s.setG(u, wrapAdd(s.g(u, kA), s.g(u, kB)));
      return {};
    case Opcode::kSub:
      s.setG(u, wrapSub(s.g(u, kA), s.g(u, kB)));
      return {};
    case Opcode::kMul:
      s.setG(u, wrapMul(s.g(u, kA), s.g(u, kB)));
      return {};
    case Opcode::kDiv:
      return divide(u, s, /*remainder=*/false);
    case Opcode::kRem:
      return divide(u, s, /*remainder=*/true);
    case Opcode::kAnd:
      s.setG(u, s.g(u, kA) & s.g(u, kB));
      return {};
    case Opcode::kOr:
      s.setG(u, s.g(u, kA) | s.g(u, kB));
      return {};
    case Opcode::kXor:
      s.setG(u, s.g(u, kA) ^ s.g(u, kB));
      return {};
    case Opcode::kShl:
      s.setG(u,
             static_cast<std::int64_t>(static_cast<std::uint64_t>(s.g(u, kA))
                                       << (s.g(u, kB) & 63)));
      return {};
    case Opcode::kShr:
      s.setG(u,
             static_cast<std::int64_t>(static_cast<std::uint64_t>(s.g(u, kA)) >>
                                       (s.g(u, kB) & 63)));
      return {};
    case Opcode::kSra:
      s.setG(u, s.g(u, kA) >> (s.g(u, kB) & 63));
      return {};
    case Opcode::kMin:
      s.setG(u, std::min(s.g(u, kA), s.g(u, kB)));
      return {};
    case Opcode::kMax:
      s.setG(u, std::max(s.g(u, kA), s.g(u, kB)));
      return {};
    case Opcode::kAddImm:
      s.setG(u, wrapAdd(s.g(u, kA), u.imm));
      return {};
    case Opcode::kMulImm:
      s.setG(u, wrapMul(s.g(u, kA), u.imm));
      return {};
    case Opcode::kAndImm:
      s.setG(u, s.g(u, kA) & u.imm);
      return {};
    case Opcode::kShlImm:
      s.setG(u, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(s.g(u, kA)) << (u.imm & 63)));
      return {};
    case Opcode::kShrImm:
      s.setG(u, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(s.g(u, kA)) >> (u.imm & 63)));
      return {};
    case Opcode::kSraImm:
      s.setG(u, s.g(u, kA) >> (u.imm & 63));
      return {};
    case Opcode::kNeg:
      s.setG(u, wrapNeg(s.g(u, kA)));
      return {};
    case Opcode::kAbs: {
      const std::int64_t value = s.g(u, kA);
      s.setG(u, value < 0 ? wrapNeg(value) : value);
      return {};
    }
    case Opcode::kNot:
      s.setG(u, ~s.g(u, kA));
      return {};
    case Opcode::kSelect:
      s.setG(u, s.p(u, kA) != 0 ? s.g(u, kB) : s.g(u, kC));
      return {};
    case Opcode::kCmpEq:
      s.setP(u, flag(s.g(u, kA) == s.g(u, kB)));
      return {};
    case Opcode::kCmpNe:
      s.setP(u, flag(s.g(u, kA) != s.g(u, kB)));
      return {};
    case Opcode::kCmpLt:
      s.setP(u, flag(s.g(u, kA) < s.g(u, kB)));
      return {};
    case Opcode::kCmpLe:
      s.setP(u, flag(s.g(u, kA) <= s.g(u, kB)));
      return {};
    case Opcode::kCmpGt:
      s.setP(u, flag(s.g(u, kA) > s.g(u, kB)));
      return {};
    case Opcode::kCmpGe:
      s.setP(u, flag(s.g(u, kA) >= s.g(u, kB)));
      return {};
    case Opcode::kCmpEqImm:
      s.setP(u, flag(s.g(u, kA) == u.imm));
      return {};
    case Opcode::kCmpNeImm:
      s.setP(u, flag(s.g(u, kA) != u.imm));
      return {};
    case Opcode::kCmpLtImm:
      s.setP(u, flag(s.g(u, kA) < u.imm));
      return {};
    case Opcode::kCmpLeImm:
      s.setP(u, flag(s.g(u, kA) <= u.imm));
      return {};
    case Opcode::kCmpGtImm:
      s.setP(u, flag(s.g(u, kA) > u.imm));
      return {};
    case Opcode::kCmpGeImm:
      s.setP(u, flag(s.g(u, kA) >= u.imm));
      return {};
    case Opcode::kPMov:
      s.setP(u, s.p(u, kA));
      return {};
    case Opcode::kPNot:
      s.setP(u, flag(s.p(u, kA) == 0));
      return {};
    case Opcode::kPAnd:
      s.setP(u, flag(s.p(u, kA) != 0 && s.p(u, kB) != 0));
      return {};
    case Opcode::kPOr:
      s.setP(u, flag(s.p(u, kA) != 0 || s.p(u, kB) != 0));
      return {};
    case Opcode::kPXor:
      s.setP(u, flag((s.p(u, kA) != 0) != (s.p(u, kB) != 0)));
      return {};
    case Opcode::kPSetImm:
      s.setP(u, flag(u.imm != 0));
      return {};
    case Opcode::kFMovImm:
      s.setF(u, std::bit_cast<double>(u.imm));
      return {};
    case Opcode::kFMov:
      s.setF(u, s.f(u, kA));
      return {};
    case Opcode::kFAdd:
      s.setF(u, s.f(u, kA) + s.f(u, kB));
      return {};
    case Opcode::kFSub:
      s.setF(u, s.f(u, kA) - s.f(u, kB));
      return {};
    case Opcode::kFMul:
      s.setF(u, s.f(u, kA) * s.f(u, kB));
      return {};
    case Opcode::kFDiv:
      s.setF(u, s.f(u, kA) / s.f(u, kB));
      return {};
    case Opcode::kFMin:
      s.setF(u, std::fmin(s.f(u, kA), s.f(u, kB)));
      return {};
    case Opcode::kFMax:
      s.setF(u, std::fmax(s.f(u, kA), s.f(u, kB)));
      return {};
    case Opcode::kFNeg:
      s.setF(u, -s.f(u, kA));
      return {};
    case Opcode::kFAbs:
      s.setF(u, std::fabs(s.f(u, kA)));
      return {};
    case Opcode::kFSqrt:
      s.setF(u, std::sqrt(s.f(u, kA)));
      return {};
    case Opcode::kFCmpEq:
      s.setP(u, flag(s.f(u, kA) == s.f(u, kB)));
      return {};
    case Opcode::kFCmpLt:
      s.setP(u, flag(s.f(u, kA) < s.f(u, kB)));
      return {};
    case Opcode::kFCmpLe:
      s.setP(u, flag(s.f(u, kA) <= s.f(u, kB)));
      return {};
    case Opcode::kI2F:
      s.setF(u, static_cast<double>(s.g(u, kA)));
      return {};
    case Opcode::kF2I: {
      const double value = s.f(u, kA);
      if (!std::isfinite(value) || value >= 9.2233720368547758e18 ||
          value < -9.2233720368547758e18) {
        return {OpStatus::kTrap, TrapKind::kBadConversion};
      }
      s.setG(u, static_cast<std::int64_t>(value));
      return {};
    }
    case Opcode::kLoad:
      return load(u, node, s, 8, /*fp=*/false);
    case Opcode::kLoadB:
      return load(u, node, s, 1, /*fp=*/false);
    case Opcode::kFLoad:
      return load(u, node, s, 8, /*fp=*/true);
    case Opcode::kStore:
      return store(u, node, s, 8, static_cast<std::uint64_t>(s.g(u, kB)));
    case Opcode::kStoreB:
      return store(u, node, s, 1, static_cast<std::uint64_t>(s.g(u, kB)));
    case Opcode::kFStore:
      return store(u, node, s, 8, std::bit_cast<std::uint64_t>(s.f(u, kB)));
    case Opcode::kCheckG:
      return {s.g(u, kA) != s.g(u, kB) ? OpStatus::kDetect : OpStatus::kOk};
    case Opcode::kCheckF:
      // Bit-pattern compare: NaN-safe, sensitive to every flipped bit.
      return {std::bit_cast<std::uint64_t>(s.f(u, kA)) !=
                      std::bit_cast<std::uint64_t>(s.f(u, kB))
                  ? OpStatus::kDetect
                  : OpStatus::kOk};
    case Opcode::kCheckP:
      return {s.p(u, kA) != s.p(u, kB) ? OpStatus::kDetect : OpStatus::kOk};
    case Opcode::kFCmpNeBits:
      s.setP(u, flag(std::bit_cast<std::uint64_t>(s.f(u, kA)) !=
                         std::bit_cast<std::uint64_t>(s.f(u, kB))));
      return {};
    case Opcode::kTrapIf:
      return {s.p(u, kA) != 0 ? OpStatus::kDetect : OpStatus::kOk};
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

// Calls f(kernel::OpTag<op>{}): the one switch from an opcode held at run
// time to its compile-time kernels.
template <class F>
[[gnu::always_inline]] inline decltype(auto) withOpcode(ir::Opcode op,
                                                        F&& f) {
#define CASTED_OPCODE_CASE(name) \
  case ir::Opcode::name:         \
    return f(kernel::OpTag<ir::Opcode::name>{})
  switch (op) {
    CASTED_OPCODE_CASE(kNop); CASTED_OPCODE_CASE(kMovImm);
    CASTED_OPCODE_CASE(kMov); CASTED_OPCODE_CASE(kAdd);
    CASTED_OPCODE_CASE(kSub); CASTED_OPCODE_CASE(kMul);
    CASTED_OPCODE_CASE(kDiv); CASTED_OPCODE_CASE(kRem);
    CASTED_OPCODE_CASE(kAnd); CASTED_OPCODE_CASE(kOr);
    CASTED_OPCODE_CASE(kXor); CASTED_OPCODE_CASE(kShl);
    CASTED_OPCODE_CASE(kShr); CASTED_OPCODE_CASE(kSra);
    CASTED_OPCODE_CASE(kMin); CASTED_OPCODE_CASE(kMax);
    CASTED_OPCODE_CASE(kAddImm); CASTED_OPCODE_CASE(kMulImm);
    CASTED_OPCODE_CASE(kAndImm); CASTED_OPCODE_CASE(kShlImm);
    CASTED_OPCODE_CASE(kShrImm); CASTED_OPCODE_CASE(kSraImm);
    CASTED_OPCODE_CASE(kNeg); CASTED_OPCODE_CASE(kAbs);
    CASTED_OPCODE_CASE(kNot); CASTED_OPCODE_CASE(kSelect);
    CASTED_OPCODE_CASE(kCmpEq); CASTED_OPCODE_CASE(kCmpNe);
    CASTED_OPCODE_CASE(kCmpLt); CASTED_OPCODE_CASE(kCmpLe);
    CASTED_OPCODE_CASE(kCmpGt); CASTED_OPCODE_CASE(kCmpGe);
    CASTED_OPCODE_CASE(kCmpEqImm); CASTED_OPCODE_CASE(kCmpNeImm);
    CASTED_OPCODE_CASE(kCmpLtImm); CASTED_OPCODE_CASE(kCmpLeImm);
    CASTED_OPCODE_CASE(kCmpGtImm); CASTED_OPCODE_CASE(kCmpGeImm);
    CASTED_OPCODE_CASE(kPMov); CASTED_OPCODE_CASE(kPNot);
    CASTED_OPCODE_CASE(kPAnd); CASTED_OPCODE_CASE(kPOr);
    CASTED_OPCODE_CASE(kPXor); CASTED_OPCODE_CASE(kPSetImm);
    CASTED_OPCODE_CASE(kFMovImm); CASTED_OPCODE_CASE(kFMov);
    CASTED_OPCODE_CASE(kFAdd); CASTED_OPCODE_CASE(kFSub);
    CASTED_OPCODE_CASE(kFMul); CASTED_OPCODE_CASE(kFDiv);
    CASTED_OPCODE_CASE(kFMin); CASTED_OPCODE_CASE(kFMax);
    CASTED_OPCODE_CASE(kFNeg); CASTED_OPCODE_CASE(kFAbs);
    CASTED_OPCODE_CASE(kFSqrt); CASTED_OPCODE_CASE(kFCmpEq);
    CASTED_OPCODE_CASE(kFCmpLt); CASTED_OPCODE_CASE(kFCmpLe);
    CASTED_OPCODE_CASE(kI2F); CASTED_OPCODE_CASE(kF2I);
    CASTED_OPCODE_CASE(kLoad); CASTED_OPCODE_CASE(kLoadB);
    CASTED_OPCODE_CASE(kStore); CASTED_OPCODE_CASE(kStoreB);
    CASTED_OPCODE_CASE(kFLoad); CASTED_OPCODE_CASE(kFStore);
    CASTED_OPCODE_CASE(kBr); CASTED_OPCODE_CASE(kBrCond);
    CASTED_OPCODE_CASE(kCall); CASTED_OPCODE_CASE(kRet);
    CASTED_OPCODE_CASE(kHalt); CASTED_OPCODE_CASE(kCheckG);
    CASTED_OPCODE_CASE(kCheckF); CASTED_OPCODE_CASE(kCheckP);
    CASTED_OPCODE_CASE(kFCmpNeBits); CASTED_OPCODE_CASE(kTrapIf);
    case ir::Opcode::kOpcodeCount:
      break;
  }
#undef CASTED_OPCODE_CASE
  CASTED_UNREACHABLE("no such opcode");
}

// One op on `s`, dispatched on its opcode.
template <class Access>
[[gnu::always_inline]] inline OpEval evalOp(const MicroOp& u,
                                            std::uint32_t node, Access& s) {
  return withOpcode(u.op, [&](auto op) __attribute__((always_inline)) {
    return opKernel<decltype(op)::value>(u, node, s);
  });
}

}  // namespace casted::sim
