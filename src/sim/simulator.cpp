#include "sim/simulator.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "sim/decoded.h"
#include "support/check.h"
#include "support/trace.h"

namespace casted::sim {

void traceRunStats(const char* engine, const RunStats& stats) {
  if (!trace::enabled()) {
    return;
  }
  const std::string prefix = std::string("sim.") + engine;
  trace::counterAdd(prefix + ".runs");
  trace::counterAdd(prefix + ".insns",
                    static_cast<std::int64_t>(stats.dynamicInsns));
  trace::counterAdd(prefix + ".cycles",
                    static_cast<std::int64_t>(stats.cycles));
  trace::counterAdd(prefix + ".mem_accesses",
                    static_cast<std::int64_t>(stats.memoryAccesses));
  for (int level = 0; level < 3; ++level) {
    const std::string levelPrefix = prefix + ".l" + std::to_string(level + 1);
    trace::counterAdd(levelPrefix + ".hits",
                      static_cast<std::int64_t>(stats.cacheLevel[level].hits));
    trace::counterAdd(
        levelPrefix + ".misses",
        static_cast<std::int64_t>(stats.cacheLevel[level].misses));
  }
}

const char* engineName(Engine engine) {
  switch (engine) {
    case Engine::kDecoded:
      return "decoded";
    case Engine::kReference:
      return "reference";
  }
  CASTED_UNREACHABLE("bad Engine");
}

const char* exitKindName(ExitKind kind) {
  switch (kind) {
    case ExitKind::kHalted:
      return "halted";
    case ExitKind::kDetected:
      return "detected";
    case ExitKind::kException:
      return "exception";
    case ExitKind::kTimeout:
      return "timeout";
  }
  CASTED_UNREACHABLE("bad ExitKind");
}

namespace {

using ir::Instruction;
using ir::Opcode;
using ir::Reg;
using ir::RegClass;

// Internal control-flow signals, thrown to unwind nested calls.
struct DetectedSignal {};
struct TimeoutSignal {};
struct HaltSignal {
  std::int64_t exitCode = 0;
};

struct Frame {
  const ir::Function* fn = nullptr;
  std::vector<std::int64_t> gp;
  std::vector<double> fp;
  std::vector<std::uint8_t> pr;

  explicit Frame(const ir::Function& function) : fn(&function) {
    gp.assign(function.regCount(RegClass::kGp), 0);
    fp.assign(function.regCount(RegClass::kFp), 0.0);
    pr.assign(function.regCount(RegClass::kPr), 0);
  }
};

// Raw (bit-pattern) value used to marshal call arguments/returns.
struct RawValue {
  RegClass cls = RegClass::kGp;
  std::uint64_t bits = 0;
};

std::int64_t wrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

std::int64_t wrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

std::int64_t wrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

std::int64_t wrapNeg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}

// The reference engine: walks the IR of `program` in program order, one
// run per instance.
struct ReferenceWalk {
  const ir::Program& program;
  const sched::ProgramSchedule& schedule;
  const arch::MachineConfig& config;
  SimOptions options;
  Memory memory;
  CacheHierarchy caches;
  RunStats stats;

  // Per function/block: memory-op nodes sorted by issue cycle, used by the
  // timing walk to model per-bundle miss overlap.
  struct MemOp {
    std::uint32_t cycle = 0;
    std::uint32_t node = 0;
  };
  std::vector<std::vector<std::vector<MemOp>>> memPlans;

  // Scratch: address computed for each memory node of the current block.
  std::vector<std::uint64_t> addrScratch;

  std::size_t faultCursor = 0;
  std::uint64_t defOrdinal = 0;
  std::vector<RawValue> returnScratch;

  ReferenceWalk(const ir::Program& prog, const sched::ProgramSchedule& sched,
                const arch::MachineConfig& cfg, SimOptions opts)
      : program(prog),
        schedule(sched),
        config(cfg),
        options(std::move(opts)),
        memory(prog, options.heapBytes),
        caches(cfg.cache) {
    CASTED_CHECK(schedule.functions.size() == program.functionCount())
        << "schedule/program function count mismatch";
    std::size_t maxBlockSize = 0;
    memPlans.resize(program.functionCount());
    for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
      const ir::Function& fn = program.function(f);
      CASTED_CHECK(schedule.functions[f].blocks.size() == fn.blockCount())
          << "schedule/program block count mismatch in @" << fn.name();
      memPlans[f].resize(fn.blockCount());
      for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
        const auto& insns = fn.block(b).insns();
        maxBlockSize = std::max(maxBlockSize, insns.size());
        const sched::BlockSchedule& blockSched =
            schedule.functions[f].blocks[b];
        CASTED_CHECK(blockSched.issueCycle.size() == insns.size())
            << "schedule built from a different program shape (@"
            << fn.name() << " bb" << b << ")";
        auto& plan = memPlans[f][b];
        for (std::uint32_t node = 0; node < insns.size(); ++node) {
          if (insns[node].isMemory()) {
            plan.push_back({blockSched.issueCycle[node], node});
          }
        }
        std::sort(plan.begin(), plan.end(),
                  [](const MemOp& a, const MemOp& b) {
                    return a.cycle < b.cycle;
                  });
      }
    }
    addrScratch.assign(maxBlockSize, 0);
  }

  // --- register access -----------------------------------------------------
  static std::int64_t& gp(Frame& frame, Reg reg) { return frame.gp[reg.index]; }
  static double& fp(Frame& frame, Reg reg) { return frame.fp[reg.index]; }
  static std::uint8_t& pr(Frame& frame, Reg reg) { return frame.pr[reg.index]; }

  // Effective address of a memory instruction, computed with wrapping
  // unsigned arithmetic (a corrupted base register must not cause UB).
  static std::uint64_t addressOf(Frame& frame, const Instruction& insn) {
    return static_cast<std::uint64_t>(gp(frame, insn.uses[0])) +
           static_cast<std::uint64_t>(insn.imm);
  }

  // --- fault injection -------------------------------------------------------
  // Records the static site of the def-producing instruction about to claim
  // the next def ordinal (see SimOptions::defTrace).
  void recordDef(ir::FuncId func, ir::BlockId block, std::uint32_t node) {
    if (options.defTrace != nullptr) {
      options.defTrace->push_back({func, block, node});
    }
  }

  void maybeInjectFault(Frame& frame, const Instruction& insn) {
    if (insn.defs.empty()) {
      return;
    }
    if (options.faultPlan != nullptr &&
        faultCursor < options.faultPlan->points.size() &&
        options.faultPlan->points[faultCursor].ordinal == defOrdinal) {
      const FaultPoint& point = options.faultPlan->points[faultCursor];
      ++faultCursor;
      const Reg target = insn.defs[point.whichDef % insn.defs.size()];
      switch (target.cls) {
        case RegClass::kGp:
          gp(frame, target) ^= static_cast<std::int64_t>(
              1ULL << (point.bit & 63));
          break;
        case RegClass::kFp: {
          std::uint64_t bits;
          std::memcpy(&bits, &fp(frame, target), 8);
          bits ^= 1ULL << (point.bit & 63);
          std::memcpy(&fp(frame, target), &bits, 8);
          break;
        }
        case RegClass::kPr:
          // Predicate registers are one bit wide.
          pr(frame, target) ^= 1;
          break;
      }
    }
    ++defOrdinal;
  }

  // --- functional semantics ---------------------------------------------------
  // Executes one non-control-flow instruction.  Returns the address used for
  // memory ops (stored into addrScratch by the caller).
  void execute(Frame& frame, const Instruction& insn, std::uint32_t node) {
    switch (insn.op) {
      case Opcode::kNop:
        break;
      case Opcode::kMovImm:
        gp(frame, insn.defs[0]) = insn.imm;
        break;
      case Opcode::kMov:
        gp(frame, insn.defs[0]) = gp(frame, insn.uses[0]);
        break;
      case Opcode::kAdd:
        gp(frame, insn.defs[0]) =
            wrapAdd(gp(frame, insn.uses[0]), gp(frame, insn.uses[1]));
        break;
      case Opcode::kSub:
        gp(frame, insn.defs[0]) =
            wrapSub(gp(frame, insn.uses[0]), gp(frame, insn.uses[1]));
        break;
      case Opcode::kMul:
        gp(frame, insn.defs[0]) =
            wrapMul(gp(frame, insn.uses[0]), gp(frame, insn.uses[1]));
        break;
      case Opcode::kDiv: {
        const std::int64_t divisor = gp(frame, insn.uses[1]);
        if (divisor == 0) {
          throw TrapError{TrapKind::kDivByZero, 0};
        }
        const std::int64_t dividend = gp(frame, insn.uses[0]);
        if (dividend == std::numeric_limits<std::int64_t>::min() &&
            divisor == -1) {
          gp(frame, insn.defs[0]) = dividend;  // hardware-defined wrap
        } else {
          gp(frame, insn.defs[0]) = dividend / divisor;
        }
        break;
      }
      case Opcode::kRem: {
        const std::int64_t divisor = gp(frame, insn.uses[1]);
        if (divisor == 0) {
          throw TrapError{TrapKind::kDivByZero, 0};
        }
        const std::int64_t dividend = gp(frame, insn.uses[0]);
        if (dividend == std::numeric_limits<std::int64_t>::min() &&
            divisor == -1) {
          gp(frame, insn.defs[0]) = 0;
        } else {
          gp(frame, insn.defs[0]) = dividend % divisor;
        }
        break;
      }
      case Opcode::kAnd:
        gp(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) & gp(frame, insn.uses[1]);
        break;
      case Opcode::kOr:
        gp(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) | gp(frame, insn.uses[1]);
        break;
      case Opcode::kXor:
        gp(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) ^ gp(frame, insn.uses[1]);
        break;
      case Opcode::kShl:
        gp(frame, insn.defs[0]) = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(gp(frame, insn.uses[0]))
            << (gp(frame, insn.uses[1]) & 63));
        break;
      case Opcode::kShr:
        gp(frame, insn.defs[0]) = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(gp(frame, insn.uses[0])) >>
            (gp(frame, insn.uses[1]) & 63));
        break;
      case Opcode::kSra:
        gp(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) >> (gp(frame, insn.uses[1]) & 63);
        break;
      case Opcode::kMin:
        gp(frame, insn.defs[0]) =
            std::min(gp(frame, insn.uses[0]), gp(frame, insn.uses[1]));
        break;
      case Opcode::kMax:
        gp(frame, insn.defs[0]) =
            std::max(gp(frame, insn.uses[0]), gp(frame, insn.uses[1]));
        break;
      case Opcode::kAddImm:
        gp(frame, insn.defs[0]) = wrapAdd(gp(frame, insn.uses[0]), insn.imm);
        break;
      case Opcode::kMulImm:
        gp(frame, insn.defs[0]) = wrapMul(gp(frame, insn.uses[0]), insn.imm);
        break;
      case Opcode::kAndImm:
        gp(frame, insn.defs[0]) = gp(frame, insn.uses[0]) & insn.imm;
        break;
      case Opcode::kShlImm:
        gp(frame, insn.defs[0]) = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(gp(frame, insn.uses[0]))
            << (insn.imm & 63));
        break;
      case Opcode::kShrImm:
        gp(frame, insn.defs[0]) = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(gp(frame, insn.uses[0])) >>
            (insn.imm & 63));
        break;
      case Opcode::kSraImm:
        gp(frame, insn.defs[0]) = gp(frame, insn.uses[0]) >> (insn.imm & 63);
        break;
      case Opcode::kNeg:
        gp(frame, insn.defs[0]) = wrapNeg(gp(frame, insn.uses[0]));
        break;
      case Opcode::kAbs: {
        const std::int64_t value = gp(frame, insn.uses[0]);
        gp(frame, insn.defs[0]) = value < 0 ? wrapNeg(value) : value;
        break;
      }
      case Opcode::kNot:
        gp(frame, insn.defs[0]) = ~gp(frame, insn.uses[0]);
        break;
      case Opcode::kSelect:
        gp(frame, insn.defs[0]) = pr(frame, insn.uses[0]) != 0
                                      ? gp(frame, insn.uses[1])
                                      : gp(frame, insn.uses[2]);
        break;
      case Opcode::kCmpEq:
        pr(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) == gp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kCmpNe:
        pr(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) != gp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kCmpLt:
        pr(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) < gp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kCmpLe:
        pr(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) <= gp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kCmpGt:
        pr(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) > gp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kCmpGe:
        pr(frame, insn.defs[0]) =
            gp(frame, insn.uses[0]) >= gp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kCmpEqImm:
        pr(frame, insn.defs[0]) = gp(frame, insn.uses[0]) == insn.imm ? 1 : 0;
        break;
      case Opcode::kCmpNeImm:
        pr(frame, insn.defs[0]) = gp(frame, insn.uses[0]) != insn.imm ? 1 : 0;
        break;
      case Opcode::kCmpLtImm:
        pr(frame, insn.defs[0]) = gp(frame, insn.uses[0]) < insn.imm ? 1 : 0;
        break;
      case Opcode::kCmpLeImm:
        pr(frame, insn.defs[0]) = gp(frame, insn.uses[0]) <= insn.imm ? 1 : 0;
        break;
      case Opcode::kCmpGtImm:
        pr(frame, insn.defs[0]) = gp(frame, insn.uses[0]) > insn.imm ? 1 : 0;
        break;
      case Opcode::kCmpGeImm:
        pr(frame, insn.defs[0]) = gp(frame, insn.uses[0]) >= insn.imm ? 1 : 0;
        break;
      case Opcode::kPMov:
        pr(frame, insn.defs[0]) = pr(frame, insn.uses[0]);
        break;
      case Opcode::kPNot:
        pr(frame, insn.defs[0]) = pr(frame, insn.uses[0]) != 0 ? 0 : 1;
        break;
      case Opcode::kPAnd:
        pr(frame, insn.defs[0]) =
            (pr(frame, insn.uses[0]) != 0 && pr(frame, insn.uses[1]) != 0)
                ? 1
                : 0;
        break;
      case Opcode::kPOr:
        pr(frame, insn.defs[0]) =
            (pr(frame, insn.uses[0]) != 0 || pr(frame, insn.uses[1]) != 0)
                ? 1
                : 0;
        break;
      case Opcode::kPXor:
        pr(frame, insn.defs[0]) =
            ((pr(frame, insn.uses[0]) != 0) != (pr(frame, insn.uses[1]) != 0))
                ? 1
                : 0;
        break;
      case Opcode::kPSetImm:
        pr(frame, insn.defs[0]) = insn.imm != 0 ? 1 : 0;
        break;
      case Opcode::kFMovImm:
        fp(frame, insn.defs[0]) = insn.fimm;
        break;
      case Opcode::kFMov:
        fp(frame, insn.defs[0]) = fp(frame, insn.uses[0]);
        break;
      case Opcode::kFAdd:
        fp(frame, insn.defs[0]) =
            fp(frame, insn.uses[0]) + fp(frame, insn.uses[1]);
        break;
      case Opcode::kFSub:
        fp(frame, insn.defs[0]) =
            fp(frame, insn.uses[0]) - fp(frame, insn.uses[1]);
        break;
      case Opcode::kFMul:
        fp(frame, insn.defs[0]) =
            fp(frame, insn.uses[0]) * fp(frame, insn.uses[1]);
        break;
      case Opcode::kFDiv:
        fp(frame, insn.defs[0]) =
            fp(frame, insn.uses[0]) / fp(frame, insn.uses[1]);
        break;
      case Opcode::kFMin:
        fp(frame, insn.defs[0]) =
            std::fmin(fp(frame, insn.uses[0]), fp(frame, insn.uses[1]));
        break;
      case Opcode::kFMax:
        fp(frame, insn.defs[0]) =
            std::fmax(fp(frame, insn.uses[0]), fp(frame, insn.uses[1]));
        break;
      case Opcode::kFNeg:
        fp(frame, insn.defs[0]) = -fp(frame, insn.uses[0]);
        break;
      case Opcode::kFAbs:
        fp(frame, insn.defs[0]) = std::fabs(fp(frame, insn.uses[0]));
        break;
      case Opcode::kFSqrt:
        fp(frame, insn.defs[0]) = std::sqrt(fp(frame, insn.uses[0]));
        break;
      case Opcode::kFCmpEq:
        pr(frame, insn.defs[0]) =
            fp(frame, insn.uses[0]) == fp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kFCmpLt:
        pr(frame, insn.defs[0]) =
            fp(frame, insn.uses[0]) < fp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kFCmpLe:
        pr(frame, insn.defs[0]) =
            fp(frame, insn.uses[0]) <= fp(frame, insn.uses[1]) ? 1 : 0;
        break;
      case Opcode::kI2F:
        fp(frame, insn.defs[0]) =
            static_cast<double>(gp(frame, insn.uses[0]));
        break;
      case Opcode::kF2I: {
        const double value = fp(frame, insn.uses[0]);
        if (!std::isfinite(value) || value >= 9.2233720368547758e18 ||
            value < -9.2233720368547758e18) {
          throw TrapError{TrapKind::kBadConversion, 0};
        }
        gp(frame, insn.defs[0]) = static_cast<std::int64_t>(value);
        break;
      }
      case Opcode::kLoad: {
        const std::uint64_t address =
            addressOf(frame, insn);
        addrScratch[node] = address;
        ++stats.memAccesses;
        gp(frame, insn.defs[0]) =
            static_cast<std::int64_t>(memory.readU64(address));
        break;
      }
      case Opcode::kLoadB: {
        const std::uint64_t address =
            addressOf(frame, insn);
        addrScratch[node] = address;
        ++stats.memAccesses;
        gp(frame, insn.defs[0]) = memory.readU8(address);
        break;
      }
      case Opcode::kStore: {
        const std::uint64_t address =
            addressOf(frame, insn);
        addrScratch[node] = address;
        ++stats.memAccesses;
        memory.writeU64(address,
                        static_cast<std::uint64_t>(gp(frame, insn.uses[1])));
        break;
      }
      case Opcode::kStoreB: {
        const std::uint64_t address =
            addressOf(frame, insn);
        addrScratch[node] = address;
        ++stats.memAccesses;
        memory.writeU8(address,
                       static_cast<std::uint8_t>(gp(frame, insn.uses[1])));
        break;
      }
      case Opcode::kFLoad: {
        const std::uint64_t address =
            addressOf(frame, insn);
        addrScratch[node] = address;
        ++stats.memAccesses;
        fp(frame, insn.defs[0]) = memory.readF64(address);
        break;
      }
      case Opcode::kFStore: {
        const std::uint64_t address =
            addressOf(frame, insn);
        addrScratch[node] = address;
        ++stats.memAccesses;
        memory.writeF64(address, fp(frame, insn.uses[1]));
        break;
      }
      case Opcode::kCheckG:
        if (gp(frame, insn.uses[0]) != gp(frame, insn.uses[1])) {
          throw DetectedSignal{};
        }
        break;
      case Opcode::kCheckF: {
        // Bit-pattern compare: NaN-safe and sensitive to every flipped bit.
        std::uint64_t a;
        std::uint64_t b;
        std::memcpy(&a, &fp(frame, insn.uses[0]), 8);
        std::memcpy(&b, &fp(frame, insn.uses[1]), 8);
        if (a != b) {
          throw DetectedSignal{};
        }
        break;
      }
      case Opcode::kCheckP:
        if (pr(frame, insn.uses[0]) != pr(frame, insn.uses[1])) {
          throw DetectedSignal{};
        }
        break;
      case Opcode::kFCmpNeBits: {
        std::uint64_t a;
        std::uint64_t b;
        std::memcpy(&a, &fp(frame, insn.uses[0]), 8);
        std::memcpy(&b, &fp(frame, insn.uses[1]), 8);
        pr(frame, insn.defs[0]) = a != b ? 1 : 0;
        break;
      }
      case Opcode::kTrapIf:
        if (pr(frame, insn.uses[0]) != 0) {
          throw DetectedSignal{};
        }
        break;
      case Opcode::kBr:
      case Opcode::kBrCond:
      case Opcode::kCall:
      case Opcode::kRet:
      case Opcode::kHalt:
        CASTED_UNREACHABLE("control flow handled by runFunction");
      case Opcode::kOpcodeCount:
        CASTED_UNREACHABLE("bad opcode");
    }
  }

  void chargeBlockTiming(ir::FuncId func, ir::BlockId blockId) {
    const sched::BlockSchedule& blockSched =
        schedule.functions[func].blocks[blockId];
    std::uint64_t stalls = 0;
    const auto& plan = memPlans[func][blockId];
    const std::uint32_t baseLatency = config.latencies.mem;
    std::size_t i = 0;
    while (i < plan.size()) {
      // One bundle: all memory ops issued in the same cycle overlap their
      // misses (non-blocking caches); the bundle pays the worst extra.
      const std::uint32_t cycle = plan[i].cycle;
      std::uint32_t worstExtra = 0;
      while (i < plan.size() && plan[i].cycle == cycle) {
        const std::uint32_t latency = caches.access(addrScratch[plan[i].node]);
        if (latency > baseLatency) {
          worstExtra = std::max(worstExtra, latency - baseLatency);
        }
        ++i;
      }
      stalls += worstExtra;
    }
    stats.cycles += blockSched.length + stalls;
    stats.stallCycles += stalls;
    ++stats.blockExecutions;
  }

  // Executes `fn` until it returns; return values land in returnScratch.
  void runFunction(const ir::Function& fn, const std::vector<RawValue>& args,
                   std::uint32_t depth) {
    if (depth > options.maxCallDepth) {
      throw TrapError{TrapKind::kStackOverflow, 0};
    }
    Frame frame(fn);
    CASTED_CHECK(args.size() == fn.params().size())
        << "bad argument count calling @" << fn.name();
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Reg param = fn.params()[i];
      switch (param.cls) {
        case RegClass::kGp:
          gp(frame, param) = static_cast<std::int64_t>(args[i].bits);
          break;
        case RegClass::kFp:
          std::memcpy(&fp(frame, param), &args[i].bits, 8);
          break;
        case RegClass::kPr:
          pr(frame, param) = args[i].bits != 0 ? 1 : 0;
          break;
      }
    }

    ir::BlockId current = 0;
    while (true) {
      if (stats.cycles > options.maxCycles) {
        throw TimeoutSignal{};
      }
      const ir::BasicBlock& block = fn.block(current);
      const auto& insns = block.insns();
      ir::BlockId next = ir::kInvalidBlock;
      bool returned = false;
      for (std::uint32_t node = 0; node < insns.size(); ++node) {
        const Instruction& insn = insns[node];
        ++stats.dynamicInsns;
        switch (insn.op) {
          case Opcode::kBr:
            next = insn.target;
            break;
          case Opcode::kBrCond:
            next = pr(frame, insn.uses[0]) != 0 ? insn.target : insn.target2;
            break;
          case Opcode::kCall: {
            const ir::Function& callee = program.function(insn.callee);
            std::vector<RawValue> callArgs;
            callArgs.reserve(insn.uses.size());
            for (const Reg& use : insn.uses) {
              RawValue value;
              value.cls = use.cls;
              switch (use.cls) {
                case RegClass::kGp:
                  value.bits = static_cast<std::uint64_t>(gp(frame, use));
                  break;
                case RegClass::kFp:
                  std::memcpy(&value.bits, &fp(frame, use), 8);
                  break;
                case RegClass::kPr:
                  value.bits = pr(frame, use);
                  break;
              }
              callArgs.push_back(value);
            }
            runFunction(callee, callArgs, depth + 1);
            CASTED_CHECK(returnScratch.size() == insn.defs.size())
                << "@" << callee.name() << " returned "
                << returnScratch.size() << " values, caller expects "
                << insn.defs.size();
            for (std::size_t i = 0; i < insn.defs.size(); ++i) {
              const Reg def = insn.defs[i];
              switch (def.cls) {
                case RegClass::kGp:
                  gp(frame, def) =
                      static_cast<std::int64_t>(returnScratch[i].bits);
                  break;
                case RegClass::kFp:
                  std::memcpy(&fp(frame, def), &returnScratch[i].bits, 8);
                  break;
                case RegClass::kPr:
                  pr(frame, def) = returnScratch[i].bits != 0 ? 1 : 0;
                  break;
              }
            }
            if (!insn.defs.empty()) {
              ++stats.dynamicDefInsns;
              recordDef(fn.id(), current, node);
            }
            maybeInjectFault(frame, insn);
            break;
          }
          case Opcode::kRet: {
            returnScratch.clear();
            for (const Reg& use : insn.uses) {
              RawValue value;
              value.cls = use.cls;
              switch (use.cls) {
                case RegClass::kGp:
                  value.bits = static_cast<std::uint64_t>(gp(frame, use));
                  break;
                case RegClass::kFp:
                  std::memcpy(&value.bits, &fp(frame, use), 8);
                  break;
                case RegClass::kPr:
                  value.bits = pr(frame, use);
                  break;
              }
              returnScratch.push_back(value);
            }
            returned = true;
            break;
          }
          case Opcode::kHalt:
            chargeBlockTiming(fn.id(), current);
            throw HaltSignal{gp(frame, insn.uses[0])};
          default:
            execute(frame, insn, node);
            if (!insn.defs.empty()) {
              ++stats.dynamicDefInsns;
              recordDef(fn.id(), current, node);
              maybeInjectFault(frame, insn);
            }
            break;
        }
      }
      chargeBlockTiming(fn.id(), current);
      if (returned) {
        return;
      }
      CASTED_CHECK(next != ir::kInvalidBlock)
          << "block bb" << current << " of @" << fn.name()
          << " fell through without a branch";
      current = next;
    }
  }

  RunResult run() {
    RunResult result;
    CASTED_CHECK(options.faultPlan == nullptr || options.defTrace == nullptr)
        << "SimOptions::defTrace must stay null in injection runs (the "
           "trace belongs to the golden profiling run)";
    if (options.defTrace != nullptr) {
      options.defTrace->clear();
    }
    const ir::Function& entry = program.function(program.entryFunction());
    try {
      runFunction(entry, {}, 0);
      // Entry returned without halting: treat as a clean exit with code 0.
      result.exit = ExitKind::kHalted;
      result.exitCode = 0;
    } catch (const HaltSignal& halt) {
      result.exit = ExitKind::kHalted;
      result.exitCode = halt.exitCode;
    } catch (const DetectedSignal&) {
      result.exit = ExitKind::kDetected;
    } catch (const TrapError& trap) {
      result.exit = ExitKind::kException;
      result.trap = trap.kind;
    } catch (const TimeoutSignal&) {
      result.exit = ExitKind::kTimeout;
    }
    for (int level = 0; level < 3; ++level) {
      stats.cacheLevel[level] = caches.levelStats(level);
    }
    stats.memoryAccesses = caches.memoryAccesses();
    result.stats = stats;
    if (program.hasSymbol(options.outputSymbol)) {
      const ir::GlobalSymbol& sym = program.symbol(options.outputSymbol);
      result.output = memory.snapshot(sym.address, sym.size);
    }
    return result;
  }
};

}  // namespace

RunResult simulate(const ir::Program& program,
                   const sched::ProgramSchedule& schedule,
                   const arch::MachineConfig& config, SimOptions options) {
  if (options.engine == Engine::kDecoded) {
    return runDecoded(DecodedProgram::build(program, schedule, config),
                      options);
  }
  ReferenceWalk walk(program, schedule, config, std::move(options));
  RunResult result = walk.run();
  traceRunStats("reference", result.stats);
  return result;
}

}  // namespace casted::sim
