#include "sim/decoded.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "sim/simulator.h"
#include "support/check.h"
#include "support/trace.h"

namespace casted::sim {

namespace {

using ir::Opcode;
using ir::Reg;
using ir::RegClass;

// Mirrors of the reference engine's unwind signals.
struct DetectedSignal {};
struct TimeoutSignal {};
struct HaltSignal {
  std::int64_t exitCode = 0;
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

constexpr std::uint32_t kDiscardReturns = 0xffffffffu;
constexpr std::uint64_t kNoFault = ~0ULL;

}  // namespace

DecodedProgram DecodedProgram::build(const ir::Program& program,
                                     const sched::ProgramSchedule& schedule,
                                     const arch::MachineConfig& config) {
  DecodedProgram decoded;
  CASTED_CHECK(schedule.functions.size() == program.functionCount())
      << "schedule/program function count mismatch";
  decoded.entry_ = program.entryFunction();
  decoded.symbols_ = program.symbols();
  decoded.globalImage_ = program.globalImage();
  decoded.cacheConfig_ = config.cache;
  decoded.memBaseLatency_ = config.latencies.mem;

  decoded.funcs_.resize(program.functionCount());
  for (ir::FuncId f = 0; f < program.functionCount(); ++f) {
    const ir::Function& fn = program.function(f);
    DecodedFunction& dfn = decoded.funcs_[f];
    CASTED_CHECK(schedule.functions[f].blocks.size() == fn.blockCount())
        << "schedule/program block count mismatch in @" << fn.name();
    dfn.name = fn.name();
    dfn.regCount[0] = fn.regCount(RegClass::kGp);
    dfn.regCount[1] = fn.regCount(RegClass::kFp);
    dfn.regCount[2] = fn.regCount(RegClass::kPr);
    for (const Reg& param : fn.params()) {
      dfn.params.push_back(
          {static_cast<std::uint8_t>(param.cls), param.index});
    }

    dfn.blocks.resize(fn.blockCount());
    for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
      const auto& insns = fn.block(b).insns();
      decoded.maxBlockInsns_ = std::max(decoded.maxBlockInsns_, insns.size());
      const sched::BlockSchedule& blockSched =
          schedule.functions[f].blocks[b];
      CASTED_CHECK(blockSched.issueCycle.size() == insns.size())
          << "schedule built from a different program shape (@" << fn.name()
          << " bb" << b << ")";

      DecodedBlock& dbk = dfn.blocks[b];
      dbk.firstOp = static_cast<std::uint32_t>(dfn.ops.size());
      dbk.opCount = static_cast<std::uint32_t>(insns.size());
      dbk.schedLength = blockSched.length;

      // The memory plan must replay the reference walk's cache-access order
      // exactly (LRU state and hit/miss counts depend on it), so it is
      // built with the identical input sequence, comparator and sort.
      struct MemOp {
        std::uint32_t cycle = 0;
        std::uint32_t node = 0;
      };
      std::vector<MemOp> plan;
      for (std::uint32_t node = 0; node < insns.size(); ++node) {
        if (insns[node].isMemory()) {
          plan.push_back({blockSched.issueCycle[node], node});
        }
      }
      std::sort(plan.begin(), plan.end(),
                [](const MemOp& a, const MemOp& b) {
                  return a.cycle < b.cycle;
                });
      dbk.planFirst = static_cast<std::uint32_t>(dfn.memPlan.size());
      dbk.planCount = static_cast<std::uint32_t>(plan.size());
      dbk.bundleFirst = static_cast<std::uint32_t>(dfn.bundleSizes.size());
      std::size_t i = 0;
      while (i < plan.size()) {
        const std::uint32_t cycle = plan[i].cycle;
        std::uint32_t size = 0;
        while (i < plan.size() && plan[i].cycle == cycle) {
          dfn.memPlan.push_back(plan[i].node);
          ++size;
          ++i;
        }
        dfn.bundleSizes.push_back(size);
        ++dbk.bundleCount;
      }

      for (const ir::Instruction& insn : insns) {
        MicroOp u;
        u.op = insn.op;
        u.defCount = static_cast<std::uint16_t>(insn.defs.size());
        if (u.defCount == 1) {
          u.defClass = static_cast<std::uint8_t>(insn.defs[0].cls);
          u.def = insn.defs[0].index;
        }
        u.imm = insn.op == Opcode::kFMovImm
                    ? std::bit_cast<std::int64_t>(insn.fimm)
                    : insn.imm;
        switch (insn.op) {
          case Opcode::kBr:
            u.t1 = insn.target;
            break;
          case Opcode::kBrCond:
            u.a = insn.uses[0].index;
            u.t1 = insn.target;
            u.t2 = insn.target2;
            break;
          case Opcode::kCall: {
            u.t1 = insn.callee;
            u.a = static_cast<std::uint32_t>(decoded.pool_.size());
            u.b = static_cast<std::uint32_t>(insn.uses.size());
            for (const Reg& use : insn.uses) {
              decoded.pool_.push_back(
                  {static_cast<std::uint8_t>(use.cls), use.index});
            }
            u.c = static_cast<std::uint32_t>(decoded.pool_.size());
            for (const Reg& def : insn.defs) {
              decoded.pool_.push_back(
                  {static_cast<std::uint8_t>(def.cls), def.index});
            }
            break;
          }
          case Opcode::kRet: {
            u.a = static_cast<std::uint32_t>(decoded.pool_.size());
            u.b = static_cast<std::uint32_t>(insn.uses.size());
            for (const Reg& use : insn.uses) {
              decoded.pool_.push_back(
                  {static_cast<std::uint8_t>(use.cls), use.index});
            }
            break;
          }
          default: {
            if (insn.uses.size() > 0) {
              u.a = insn.uses[0].index;
            }
            if (insn.uses.size() > 1) {
              u.b = insn.uses[1].index;
            }
            if (insn.uses.size() > 2) {
              u.c = insn.uses[2].index;
            }
            break;
          }
        }
        dfn.ops.push_back(u);
      }
    }
  }
  return decoded;
}

// Arena bases of one call frame (slots below these belong to callers).
struct InterpFrameBase {
  std::uint32_t gp = 0;
  std::uint32_t fp = 0;
  std::uint32_t pr = 0;
};

// One explicit call-stack frame of the iterative interpreter.  The recursive
// runFunction of earlier revisions kept this state in C++ stack locals; an
// explicit frame makes the whole machine state a value that ArchCheckpoint
// can copy and restore.
struct InterpFrame {
  std::uint32_t func = 0;
  std::uint32_t block = 0;
  std::uint32_t node = 0;                       // resume position in block
  std::uint32_t nextBlock = ir::kInvalidBlock;  // pending branch target
  std::uint32_t retPool = 0;   // caller-side call-def list (pool offset)
  std::uint32_t retCount = 0;  // kDiscardReturns for the entry frame
  bool returned = false;       // a kRet already executed in this block
  InterpFrameBase base;
};

// The snapshot behind sim::ArchCheckpoint: every piece of interpreter state
// that is not covered by the Memory/CacheHierarchy undo logs, copied by
// value.  Vectors keep their capacity across assignments, so repeated saves
// into the same checkpoint do not allocate after the first.
struct ArchCheckpoint::Data {
  std::vector<std::int64_t> gp;
  std::vector<double> fp;
  std::vector<std::uint8_t> pr;
  std::vector<std::uint64_t> addr;
  std::vector<InterpFrame> frames;
  RunStats stats;
  std::uint64_t defOrdinal = 0;
  std::size_t faultCursor = 0;
  std::uint64_t nextFaultOrdinal = 0;
  const FaultPlan* faultPlan = nullptr;
  std::uint64_t generation = 0;  // must match the owner's live generation
  const void* owner = nullptr;   // the interpreter that saved it
};

ArchCheckpoint::ArchCheckpoint() = default;
ArchCheckpoint::~ArchCheckpoint() = default;
ArchCheckpoint::ArchCheckpoint(ArchCheckpoint&&) noexcept = default;
ArchCheckpoint& ArchCheckpoint::operator=(ArchCheckpoint&&) noexcept =
    default;

namespace {

// What stopped the resumable core loop.
enum class Flow : std::uint8_t {
  kContinue,  // nothing did (internal: keep executing)
  kFinished,  // the entry function returned
  kPause,     // reached the runToDef() target ordinal
};

// The decoded interpreter.  Frames live in three per-class arenas (one
// contiguous slab per register class) instead of per-call heap vectors; a
// call pushes `regCount` zeroed slots per class and pops them on return.
// Control state lives in an explicit InterpFrame stack, so execution can
// pause at any dynamic def ordinal, be snapshotted/restored through
// ArchCheckpoint, and resume — the machinery behind checkpoint-and-diverge
// fault injection (sim/decoded.h).
//
// One Interp is a reusable context: reset() restores the fresh-construction
// architectural state in time proportional to what the previous run touched
// (write-logged memory, epoch-invalidated caches, cleared arenas), so a
// campaign worker pays the megabyte-scale allocations once, not per trial.
struct Interp {
  const DecodedProgram& prog;
  const SimOptions* options = nullptr;  // set by reset() before each run
  Memory memory;
  std::uint64_t heapBytes;
  CacheHierarchy caches;
  RunStats stats;

  std::vector<std::int64_t> gpStack;
  std::vector<double> fpStack;
  std::vector<std::uint8_t> prStack;

  // Address computed for each memory op of the current block, indexed by the
  // op's node position — the same indexing the reference walk uses, so the
  // (harmless, never observed for completed blocks) aliasing of the scratch
  // across nested calls is bit-identical too.
  std::vector<std::uint64_t> addr;

  std::size_t faultCursor = 0;
  std::uint64_t defOrdinal = 0;
  std::uint64_t nextFaultOrdinal = kNoFault;
  // The next def ordinal that needs more than counting: min(pauseAt,
  // nextFaultOrdinal), or every ordinal while a def trace is recorded.  It
  // makes a normal def one compare (noteDef); updateNextEvent() recomputes
  // it wherever one of its inputs changes.
  std::uint64_t nextEvent = kNoFault;

  using FrameBase = InterpFrameBase;

  // The explicit call stack.  frames.back() is the executing frame; its
  // `node` is only authoritative while paused or calling (the op loop runs
  // on a local cursor and flushes it at those points).
  std::vector<InterpFrame> frames;

  // Stepwise-run state (begin/runToDef/injectAtPause/finish).
  SimOptions stepOptions;  // storage backing `options` in stepwise mode
  std::uint64_t pauseAt = kNoFault;  // runToDef target ordinal
  bool stepMode = false;
  bool started = false;
  bool pausedAtDef = false;
  bool finished = false;
  RunResult result;
  std::uint64_t checkpointGen = 0;  // invalidates outstanding checkpoints

  explicit Interp(const DecodedProgram& program)
      : prog(program),
        memory(program.globalImage(), SimOptions{}.heapBytes),
        heapBytes(SimOptions{}.heapBytes),
        caches(program.cacheConfig()) {
    memory.enableWriteLog();
    addr.assign(prog.maxBlockInsns(), 0);
  }

  // Restores fresh-context state and arms the run with `opts`.
  void reset(const SimOptions& opts) {
    CASTED_CHECK(opts.faultPlan == nullptr || opts.defTrace == nullptr)
        << "SimOptions::defTrace must stay null in injection runs (the trace "
           "belongs to the golden profiling run)";
    options = &opts;
    memory.dropCheckpoint();
    caches.dropCheckpoint();
    if (opts.heapBytes != heapBytes) {
      memory = Memory(prog.globalImage(), opts.heapBytes);
      memory.enableWriteLog();
      heapBytes = opts.heapBytes;
    } else {
      memory.resetLogged(prog.globalImage());
    }
    caches.reset();
    stats = RunStats{};
    gpStack.clear();
    fpStack.clear();
    prStack.clear();
    std::fill(addr.begin(), addr.end(), 0);
    faultCursor = 0;
    defOrdinal = 0;
    nextFaultOrdinal =
        (opts.faultPlan != nullptr && !opts.faultPlan->points.empty())
            ? opts.faultPlan->points[0].ordinal
            : kNoFault;
    if (opts.defTrace != nullptr) {
      opts.defTrace->clear();
    }
    frames.clear();
    pauseAt = kNoFault;
    stepMode = false;
    started = false;
    pausedAtDef = false;
    finished = false;
    result = RunResult{};
    ++checkpointGen;  // outstanding checkpoints are now stale
    updateNextEvent();
  }

  void updateNextEvent() {
    nextEvent = options->defTrace != nullptr
                    ? defOrdinal
                    : std::min(pauseAt, nextFaultOrdinal);
  }

  // Reads one register as raw bits; the marshalling used for call arguments
  // and returned values (identical to the reference's RawValue round trip).
  std::uint64_t readBits(const FrameBase& frame, const DecodedReg& reg) const {
    switch (static_cast<RegClass>(reg.cls)) {
      case RegClass::kGp:
        return static_cast<std::uint64_t>(gpStack[frame.gp + reg.slot]);
      case RegClass::kFp:
        return std::bit_cast<std::uint64_t>(fpStack[frame.fp + reg.slot]);
      case RegClass::kPr:
        return prStack[frame.pr + reg.slot];
    }
    CASTED_UNREACHABLE("bad RegClass");
  }

  void writeBits(const FrameBase& frame, const DecodedReg& reg,
                 std::uint64_t bits) {
    switch (static_cast<RegClass>(reg.cls)) {
      case RegClass::kGp:
        gpStack[frame.gp + reg.slot] = static_cast<std::int64_t>(bits);
        break;
      case RegClass::kFp:
        fpStack[frame.fp + reg.slot] = std::bit_cast<double>(bits);
        break;
      case RegClass::kPr:
        prStack[frame.pr + reg.slot] = bits != 0 ? 1 : 0;
        break;
    }
  }

  // Applies the pending fault point to one def of `target` (the op whose
  // defOrdinal just matched), then advances the plan cursor.
  void injectFault(const MicroOp& u, const FrameBase& frame) {
    const FaultPoint& point = options->faultPlan->points[faultCursor];
    ++faultCursor;
    nextFaultOrdinal = faultCursor < options->faultPlan->points.size()
                           ? options->faultPlan->points[faultCursor].ordinal
                           : kNoFault;
    DecodedReg target;
    if (u.op == Opcode::kCall) {
      target = prog.pool()[u.c + point.whichDef % u.defCount];
    } else {
      target = {u.defClass, u.def};
    }
    switch (static_cast<RegClass>(target.cls)) {
      case RegClass::kGp:
        gpStack[frame.gp + target.slot] ^=
            static_cast<std::int64_t>(1ULL << (point.bit & 63));
        break;
      case RegClass::kFp: {
        std::uint64_t bits =
            std::bit_cast<std::uint64_t>(fpStack[frame.fp + target.slot]);
        bits ^= 1ULL << (point.bit & 63);
        fpStack[frame.fp + target.slot] = std::bit_cast<double>(bits);
        break;
      }
      case RegClass::kPr:
        prStack[frame.pr + target.slot] ^= 1;
        break;
    }
  }

  void chargeBlockTiming(const DecodedFunction& fn, const DecodedBlock& blk) {
    std::uint64_t stalls = 0;
    const std::uint32_t* plan = fn.memPlan.data() + blk.planFirst;
    const std::uint32_t* bundles = fn.bundleSizes.data() + blk.bundleFirst;
    const std::uint32_t baseLatency = prog.memBaseLatency();
    std::uint32_t cursor = 0;
    for (std::uint32_t bundle = 0; bundle < blk.bundleCount; ++bundle) {
      // All memory ops issued in the same cycle overlap their misses; the
      // bundle pays only the worst extra latency.
      std::uint32_t worstExtra = 0;
      for (std::uint32_t n = 0; n < bundles[bundle]; ++n) {
        const std::uint32_t latency = caches.access(addr[plan[cursor]]);
        if (latency > baseLatency) {
          worstExtra = std::max(worstExtra, latency - baseLatency);
        }
        ++cursor;
      }
      stalls += worstExtra;
    }
    stats.cycles += blk.schedLength + stalls;
    stats.stallCycles += stalls;
    ++stats.blockExecutions;
  }

  // Pushes a frame for `funcIdx` and marshals its arguments from the caller
  // frame via the pool list at [argPool, argPool+argCount); returned values
  // will be written back to the caller's call-def list at retPool — or
  // discarded for the entry invocation (retCount == kDiscardReturns).
  // Ordering matches the recursive interpreter this replaced bit for bit:
  // depth check, argument-count check, arena push, argument copy, then the
  // timeout check that used to sit at the head of the callee's run loop.
  void pushFrame(std::uint32_t funcIdx, std::uint32_t argPool,
                 std::uint32_t argCount, FrameBase caller,
                 std::uint32_t retPool, std::uint32_t retCount) {
    if (frames.size() > options->maxCallDepth) {
      throw TrapError{TrapKind::kStackOverflow, 0};
    }
    const DecodedFunction& fn = prog.functions()[funcIdx];
    CASTED_CHECK(argCount == fn.params.size())
        << "bad argument count calling @" << fn.name;

    InterpFrame f;
    f.func = funcIdx;
    f.retPool = retPool;
    f.retCount = retCount;
    f.base = FrameBase{static_cast<std::uint32_t>(gpStack.size()),
                       static_cast<std::uint32_t>(fpStack.size()),
                       static_cast<std::uint32_t>(prStack.size())};
    gpStack.resize(f.base.gp + fn.regCount[0], 0);
    fpStack.resize(f.base.fp + fn.regCount[1], 0.0);
    prStack.resize(f.base.pr + fn.regCount[2], 0);
    for (std::uint32_t i = 0; i < argCount; ++i) {
      writeBits(f.base, fn.params[i],
                readBits(caller, prog.pool()[argPool + i]));
    }
    frames.push_back(f);
    if (stats.cycles > options->maxCycles) {
      throw TimeoutSignal{};
    }
  }

  // Def bookkeeping, shared by every def-producing op including calls
  // (invoked after the callee's returns were written back).  A def that is
  // no event costs one compare; defEvent handles the rest.
  Flow noteDef(const MicroOp& u, const InterpFrame& f, std::uint32_t node) {
    ++stats.dynamicDefInsns;
    if (defOrdinal != nextEvent) [[likely]] {
      ++defOrdinal;
      return Flow::kContinue;
    }
    return defEvent(u, f, node);
  }

  // The trace record and the runToDef pause run before finishDef, the part
  // a pause defers until the run resumes.
  Flow defEvent(const MicroOp& u, const InterpFrame& f, std::uint32_t node) {
    if (options->defTrace != nullptr) {
      options->defTrace->push_back({f.func, f.block, node});
    }
    if (defOrdinal == pauseAt) {
      return Flow::kPause;
    }
    finishDef(u, f.base);
    return Flow::kContinue;
  }

  // Fault check and ordinal advance.
  void finishDef(const MicroOp& u, const FrameBase& base) {
    if (defOrdinal == nextFaultOrdinal) {
      injectFault(u, base);
    }
    ++defOrdinal;
    updateNextEvent();
  }

  // The core loop: executes frames.back() until the entry function returns
  // or a runToDef pause ordinal is reached.  Signals (halt/detect/trap/
  // timeout) unwind as exceptions into drive().
  Flow exec() {
    // The per-op instruction count lives in a local: the arena stores below
    // (int64_t, uint8_t) may alias the uint64_t members of `this`, so a
    // member counter would be reloaded and stored on every op.  The
    // destructor writes it back on every exit, the signal unwinds included.
    struct InsnCount {
      std::uint64_t& out;
      std::uint64_t n;
      ~InsnCount() { out = n; }
    } insns{stats.dynamicInsns, stats.dynamicInsns};
    while (true) {
      InterpFrame& f = frames.back();
      const DecodedFunction& fn = prog.functions()[f.func];
      const DecodedBlock& blk = fn.blocks[f.block];
      const MicroOp* ops = fn.ops.data() + blk.firstOp;
      // Raw pointers are safe within the op loop: the arenas only grow at a
      // call, and a call breaks out to re-derive everything (including `f`,
      // which frames.push_back invalidates).
      std::int64_t* gp = gpStack.data() + f.base.gp;
      double* fp = fpStack.data() + f.base.fp;
      std::uint8_t* pr = prStack.data() + f.base.pr;
      std::uint32_t next = f.nextBlock;
      bool returned = f.returned;
      bool pushed = false;
      std::uint32_t node = f.node;
      for (; node < blk.opCount; ++node) {
        const MicroOp& u = ops[node];
        ++insns.n;
        switch (u.op) {
          case Opcode::kNop:
            break;
          case Opcode::kMovImm:
            gp[u.def] = u.imm;
            break;
          case Opcode::kMov:
            gp[u.def] = gp[u.a];
            break;
          case Opcode::kAdd:
            gp[u.def] = wrapAdd(gp[u.a], gp[u.b]);
            break;
          case Opcode::kSub:
            gp[u.def] = wrapSub(gp[u.a], gp[u.b]);
            break;
          case Opcode::kMul:
            gp[u.def] = wrapMul(gp[u.a], gp[u.b]);
            break;
          case Opcode::kDiv: {
            const std::int64_t divisor = gp[u.b];
            if (divisor == 0) {
              throw TrapError{TrapKind::kDivByZero, 0};
            }
            const std::int64_t dividend = gp[u.a];
            if (dividend == std::numeric_limits<std::int64_t>::min() &&
                divisor == -1) {
              gp[u.def] = dividend;  // hardware-defined wrap
            } else {
              gp[u.def] = dividend / divisor;
            }
            break;
          }
          case Opcode::kRem: {
            const std::int64_t divisor = gp[u.b];
            if (divisor == 0) {
              throw TrapError{TrapKind::kDivByZero, 0};
            }
            const std::int64_t dividend = gp[u.a];
            if (dividend == std::numeric_limits<std::int64_t>::min() &&
                divisor == -1) {
              gp[u.def] = 0;
            } else {
              gp[u.def] = dividend % divisor;
            }
            break;
          }
          case Opcode::kAnd:
            gp[u.def] = gp[u.a] & gp[u.b];
            break;
          case Opcode::kOr:
            gp[u.def] = gp[u.a] | gp[u.b];
            break;
          case Opcode::kXor:
            gp[u.def] = gp[u.a] ^ gp[u.b];
            break;
          case Opcode::kShl:
            gp[u.def] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(gp[u.a]) << (gp[u.b] & 63));
            break;
          case Opcode::kShr:
            gp[u.def] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(gp[u.a]) >> (gp[u.b] & 63));
            break;
          case Opcode::kSra:
            gp[u.def] = gp[u.a] >> (gp[u.b] & 63);
            break;
          case Opcode::kMin:
            gp[u.def] = std::min(gp[u.a], gp[u.b]);
            break;
          case Opcode::kMax:
            gp[u.def] = std::max(gp[u.a], gp[u.b]);
            break;
          case Opcode::kAddImm:
            gp[u.def] = wrapAdd(gp[u.a], u.imm);
            break;
          case Opcode::kMulImm:
            gp[u.def] = wrapMul(gp[u.a], u.imm);
            break;
          case Opcode::kAndImm:
            gp[u.def] = gp[u.a] & u.imm;
            break;
          case Opcode::kShlImm:
            gp[u.def] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(gp[u.a]) << (u.imm & 63));
            break;
          case Opcode::kShrImm:
            gp[u.def] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(gp[u.a]) >> (u.imm & 63));
            break;
          case Opcode::kSraImm:
            gp[u.def] = gp[u.a] >> (u.imm & 63);
            break;
          case Opcode::kNeg:
            gp[u.def] = wrapNeg(gp[u.a]);
            break;
          case Opcode::kAbs: {
            const std::int64_t value = gp[u.a];
            gp[u.def] = value < 0 ? wrapNeg(value) : value;
            break;
          }
          case Opcode::kNot:
            gp[u.def] = ~gp[u.a];
            break;
          case Opcode::kSelect:
            gp[u.def] = pr[u.a] != 0 ? gp[u.b] : gp[u.c];
            break;
          case Opcode::kCmpEq:
            pr[u.def] = gp[u.a] == gp[u.b] ? 1 : 0;
            break;
          case Opcode::kCmpNe:
            pr[u.def] = gp[u.a] != gp[u.b] ? 1 : 0;
            break;
          case Opcode::kCmpLt:
            pr[u.def] = gp[u.a] < gp[u.b] ? 1 : 0;
            break;
          case Opcode::kCmpLe:
            pr[u.def] = gp[u.a] <= gp[u.b] ? 1 : 0;
            break;
          case Opcode::kCmpGt:
            pr[u.def] = gp[u.a] > gp[u.b] ? 1 : 0;
            break;
          case Opcode::kCmpGe:
            pr[u.def] = gp[u.a] >= gp[u.b] ? 1 : 0;
            break;
          case Opcode::kCmpEqImm:
            pr[u.def] = gp[u.a] == u.imm ? 1 : 0;
            break;
          case Opcode::kCmpNeImm:
            pr[u.def] = gp[u.a] != u.imm ? 1 : 0;
            break;
          case Opcode::kCmpLtImm:
            pr[u.def] = gp[u.a] < u.imm ? 1 : 0;
            break;
          case Opcode::kCmpLeImm:
            pr[u.def] = gp[u.a] <= u.imm ? 1 : 0;
            break;
          case Opcode::kCmpGtImm:
            pr[u.def] = gp[u.a] > u.imm ? 1 : 0;
            break;
          case Opcode::kCmpGeImm:
            pr[u.def] = gp[u.a] >= u.imm ? 1 : 0;
            break;
          case Opcode::kPMov:
            pr[u.def] = pr[u.a];
            break;
          case Opcode::kPNot:
            pr[u.def] = pr[u.a] != 0 ? 0 : 1;
            break;
          case Opcode::kPAnd:
            pr[u.def] = (pr[u.a] != 0 && pr[u.b] != 0) ? 1 : 0;
            break;
          case Opcode::kPOr:
            pr[u.def] = (pr[u.a] != 0 || pr[u.b] != 0) ? 1 : 0;
            break;
          case Opcode::kPXor:
            pr[u.def] = ((pr[u.a] != 0) != (pr[u.b] != 0)) ? 1 : 0;
            break;
          case Opcode::kPSetImm:
            pr[u.def] = u.imm != 0 ? 1 : 0;
            break;
          case Opcode::kFMovImm:
            fp[u.def] = std::bit_cast<double>(u.imm);
            break;
          case Opcode::kFMov:
            fp[u.def] = fp[u.a];
            break;
          case Opcode::kFAdd:
            fp[u.def] = fp[u.a] + fp[u.b];
            break;
          case Opcode::kFSub:
            fp[u.def] = fp[u.a] - fp[u.b];
            break;
          case Opcode::kFMul:
            fp[u.def] = fp[u.a] * fp[u.b];
            break;
          case Opcode::kFDiv:
            fp[u.def] = fp[u.a] / fp[u.b];
            break;
          case Opcode::kFMin:
            fp[u.def] = std::fmin(fp[u.a], fp[u.b]);
            break;
          case Opcode::kFMax:
            fp[u.def] = std::fmax(fp[u.a], fp[u.b]);
            break;
          case Opcode::kFNeg:
            fp[u.def] = -fp[u.a];
            break;
          case Opcode::kFAbs:
            fp[u.def] = std::fabs(fp[u.a]);
            break;
          case Opcode::kFSqrt:
            fp[u.def] = std::sqrt(fp[u.a]);
            break;
          case Opcode::kFCmpEq:
            pr[u.def] = fp[u.a] == fp[u.b] ? 1 : 0;
            break;
          case Opcode::kFCmpLt:
            pr[u.def] = fp[u.a] < fp[u.b] ? 1 : 0;
            break;
          case Opcode::kFCmpLe:
            pr[u.def] = fp[u.a] <= fp[u.b] ? 1 : 0;
            break;
          case Opcode::kI2F:
            fp[u.def] = static_cast<double>(gp[u.a]);
            break;
          case Opcode::kF2I: {
            const double value = fp[u.a];
            if (!std::isfinite(value) || value >= 9.2233720368547758e18 ||
                value < -9.2233720368547758e18) {
              throw TrapError{TrapKind::kBadConversion, 0};
            }
            gp[u.def] = static_cast<std::int64_t>(value);
            break;
          }
          case Opcode::kLoad: {
            const std::uint64_t address =
                static_cast<std::uint64_t>(gp[u.a]) +
                static_cast<std::uint64_t>(u.imm);
            addr[node] = address;
            ++stats.memAccesses;
            gp[u.def] = static_cast<std::int64_t>(memory.readU64(address));
            break;
          }
          case Opcode::kLoadB: {
            const std::uint64_t address =
                static_cast<std::uint64_t>(gp[u.a]) +
                static_cast<std::uint64_t>(u.imm);
            addr[node] = address;
            ++stats.memAccesses;
            gp[u.def] = memory.readU8(address);
            break;
          }
          case Opcode::kStore: {
            const std::uint64_t address =
                static_cast<std::uint64_t>(gp[u.a]) +
                static_cast<std::uint64_t>(u.imm);
            addr[node] = address;
            ++stats.memAccesses;
            memory.writeU64(address, static_cast<std::uint64_t>(gp[u.b]));
            break;
          }
          case Opcode::kStoreB: {
            const std::uint64_t address =
                static_cast<std::uint64_t>(gp[u.a]) +
                static_cast<std::uint64_t>(u.imm);
            addr[node] = address;
            ++stats.memAccesses;
            memory.writeU8(address, static_cast<std::uint8_t>(gp[u.b]));
            break;
          }
          case Opcode::kFLoad: {
            const std::uint64_t address =
                static_cast<std::uint64_t>(gp[u.a]) +
                static_cast<std::uint64_t>(u.imm);
            addr[node] = address;
            ++stats.memAccesses;
            fp[u.def] = memory.readF64(address);
            break;
          }
          case Opcode::kFStore: {
            const std::uint64_t address =
                static_cast<std::uint64_t>(gp[u.a]) +
                static_cast<std::uint64_t>(u.imm);
            addr[node] = address;
            ++stats.memAccesses;
            memory.writeF64(address, fp[u.b]);
            break;
          }
          case Opcode::kCheckG:
            if (gp[u.a] != gp[u.b]) {
              throw DetectedSignal{};
            }
            break;
          case Opcode::kCheckF:
            // Bit-pattern compare: NaN-safe, sensitive to every flipped bit.
            if (std::bit_cast<std::uint64_t>(fp[u.a]) !=
                std::bit_cast<std::uint64_t>(fp[u.b])) {
              throw DetectedSignal{};
            }
            break;
          case Opcode::kCheckP:
            if (pr[u.a] != pr[u.b]) {
              throw DetectedSignal{};
            }
            break;
          case Opcode::kFCmpNeBits:
            pr[u.def] = std::bit_cast<std::uint64_t>(fp[u.a]) !=
                                std::bit_cast<std::uint64_t>(fp[u.b])
                            ? 1
                            : 0;
            break;
          case Opcode::kTrapIf:
            if (pr[u.a] != 0) {
              throw DetectedSignal{};
            }
            break;
          case Opcode::kBr:
            next = u.t1;
            break;
          case Opcode::kBrCond:
            next = pr[u.a] != 0 ? u.t1 : u.t2;
            break;
          case Opcode::kCall: {
            // Flush the cursor and push the callee; the call op's own def
            // bookkeeping runs when the callee's frame pops.
            f.node = node;
            f.nextBlock = next;
            f.returned = returned;
            pushFrame(u.t1, u.a, u.b, f.base, u.c, u.defCount);
            pushed = true;  // `f` is dangling now (frames reallocated)
            break;
          }
          case Opcode::kRet: {
            if (f.retCount != kDiscardReturns) {
              CASTED_CHECK(u.b == f.retCount)
                  << "@" << fn.name << " returned " << u.b
                  << " values, caller expects " << f.retCount;
              const FrameBase caller = frames[frames.size() - 2].base;
              for (std::uint32_t i = 0; i < u.b; ++i) {
                writeBits(caller, prog.pool()[f.retPool + i],
                          readBits(f.base, prog.pool()[u.a + i]));
              }
            }
            returned = true;
            break;
          }
          case Opcode::kHalt:
            chargeBlockTiming(fn, blk);
            throw HaltSignal{gp[u.a]};
          case Opcode::kOpcodeCount:
            CASTED_UNREACHABLE("bad opcode");
        }
        if (pushed) {
          break;  // enter the callee frame
        }
        if (u.defCount != 0) {
          const Flow flow = noteDef(u, f, node);
          if (flow != Flow::kContinue) {
            f.node = node;
            f.nextBlock = next;
            f.returned = returned;
            return flow;
          }
        }
      }
      if (pushed) {
        continue;  // run the callee; the call op completes at its pop
      }
      chargeBlockTiming(fn, blk);
      if (returned) {
        // Pop the frame, then complete the caller's pending call op (its
        // defs were written back by the kRet above).
        const FrameBase base = f.base;
        gpStack.resize(base.gp);
        fpStack.resize(base.fp);
        prStack.resize(base.pr);
        frames.pop_back();
        if (frames.empty()) {
          return Flow::kFinished;  // the entry function returned
        }
        InterpFrame& caller = frames.back();
        const DecodedFunction& cfn = prog.functions()[caller.func];
        const MicroOp& call =
            cfn.ops[cfn.blocks[caller.block].firstOp + caller.node];
        if (call.defCount != 0) {
          const Flow flow = noteDef(call, caller, caller.node);
          if (flow != Flow::kContinue) {
            return flow;  // caller.node still points at the call op
          }
        }
        ++caller.node;
        continue;
      }
      CASTED_CHECK(next != ir::kInvalidBlock)
          << "block bb" << f.block << " of @" << fn.name
          << " fell through without a branch";
      f.block = next;
      f.node = 0;
      f.nextBlock = ir::kInvalidBlock;
      f.returned = false;
      if (stats.cycles > options->maxCycles) {
        throw TimeoutSignal{};
      }
    }
  }

  // Completes the def bookkeeping a pause interrupted — the paused op's
  // counting already ran, so only the fault check and ordinal advance
  // remain — then steps past the op.
  void finishPausedDef() {
    InterpFrame& f = frames.back();
    const DecodedFunction& fn = prog.functions()[f.func];
    finishDef(fn.ops[fn.blocks[f.block].firstOp + f.node], f.base);
    ++f.node;
  }

  // Runs or resumes until a pause or completion.  Returns true while paused
  // at a def; otherwise `result` is final and `finished` set.
  bool drive() {
    CASTED_CHECK(!finished) << "run already complete";
    try {
      if (!started) {
        started = true;
        pushFrame(prog.entryFunction(), 0, 0, FrameBase{}, 0,
                  kDiscardReturns);
      }
      if (pausedAtDef) {
        pausedAtDef = false;
        finishPausedDef();
      }
      if (exec() == Flow::kPause) {
        pausedAtDef = true;
        return true;
      }
      // The entry function returned without halting: clean exit, code 0.
      result = RunResult{};
      result.exit = ExitKind::kHalted;
      result.exitCode = 0;
    } catch (const HaltSignal& halt) {
      result = RunResult{};
      result.exit = ExitKind::kHalted;
      result.exitCode = halt.exitCode;
    } catch (const DetectedSignal&) {
      result = RunResult{};
      result.exit = ExitKind::kDetected;
    } catch (const TrapError& trap) {
      result = RunResult{};
      result.exit = ExitKind::kException;
      result.trap = trap.kind;
    } catch (const TimeoutSignal&) {
      result = RunResult{};
      result.exit = ExitKind::kTimeout;
    }
    for (int level = 0; level < 3; ++level) {
      stats.cacheLevel[level] = caches.levelStats(level);
    }
    stats.memoryAccesses = caches.memoryAccesses();
    result.stats = stats;
    for (const ir::GlobalSymbol& sym : prog.symbols()) {
      if (sym.name == options->outputSymbol) {
        result.output = memory.snapshot(sym.address, sym.size);
        break;
      }
    }
    finished = true;
    return false;
  }

  void setPause(std::uint64_t ordinal) {
    pauseAt = ordinal;
    updateNextEvent();
  }

  // Whole-run execution; reset() must have armed `options` first.
  RunResult run() {
    setPause(kNoFault);
    const bool paused = drive();
    CASTED_CHECK(!paused);
    return result;
  }

  // ---- Stepwise API (see DecodedRunner) ----

  void begin(const SimOptions& opts) {
    CASTED_CHECK(opts.faultPlan == nullptr)
        << "stepwise runs inject via injectAtPause, not SimOptions";
    CASTED_CHECK(opts.defTrace == nullptr)
        << "a def trace cannot be rewound across checkpoint restores";
    stepOptions = opts;
    reset(stepOptions);
    stepMode = true;
  }

  bool runToDef(std::uint64_t ordinal) {
    CASTED_CHECK(stepMode) << "runToDef requires begin()";
    CASTED_CHECK(!finished) << "run already complete";
    CASTED_CHECK(pausedAtDef ? ordinal > defOrdinal : ordinal >= defOrdinal)
        << "cannot rewind to def " << ordinal << " (at " << defOrdinal
        << "); restore a checkpoint instead";
    setPause(ordinal);
    const bool paused = drive();
    setPause(kNoFault);
    return paused;
  }

  void saveCheckpoint(ArchCheckpoint::Data& d) {
    CASTED_CHECK(stepMode && pausedAtDef)
        << "checkpoints are taken while paused at a def";
    d.gp = gpStack;
    d.fp = fpStack;
    d.pr = prStack;
    d.addr = addr;
    d.frames = frames;
    d.stats = stats;
    d.defOrdinal = defOrdinal;
    d.faultCursor = faultCursor;
    d.nextFaultOrdinal = nextFaultOrdinal;
    d.faultPlan = stepOptions.faultPlan;
    d.generation = ++checkpointGen;
    d.owner = this;
    memory.setCheckpoint();
    caches.setCheckpoint();
  }

  void restoreCheckpoint(const ArchCheckpoint::Data& d) {
    CASTED_CHECK(stepMode) << "restore requires begin()";
    CASTED_CHECK(d.owner == this && d.generation == checkpointGen)
        << "checkpoint is stale or belongs to another runner";
    const std::size_t memoryRecords = memory.rewindToCheckpoint();
    const std::size_t cacheWays = caches.rewindToCheckpoint();
    trace::counterAdd("sim.restore.memory_records",
                      static_cast<std::int64_t>(memoryRecords));
    trace::counterAdd("sim.restore.cache_ways",
                      static_cast<std::int64_t>(cacheWays));
    gpStack = d.gp;
    fpStack = d.fp;
    prStack = d.pr;
    addr = d.addr;
    frames = d.frames;
    stats = d.stats;
    defOrdinal = d.defOrdinal;
    faultCursor = d.faultCursor;
    nextFaultOrdinal = d.nextFaultOrdinal;
    stepOptions.faultPlan = d.faultPlan;
    pausedAtDef = true;
    finished = false;
    updateNextEvent();
  }

  void injectAtPause(const FaultPlan& plan) {
    CASTED_CHECK(stepMode && pausedAtDef)
        << "injection requires a def pause";
    CASTED_CHECK(!plan.points.empty() &&
                 plan.points[0].ordinal == defOrdinal)
        << "plan must start at the paused ordinal";
    stepOptions.faultPlan = &plan;
    faultCursor = 0;
    nextFaultOrdinal = plan.points[0].ordinal;
    // Apply point 0 to the op we are paused on (injectFault advances the
    // cursor to any later points, which fire during finish()).
    InterpFrame& f = frames.back();
    const DecodedFunction& fn = prog.functions()[f.func];
    const MicroOp& u = fn.ops[fn.blocks[f.block].firstOp + f.node];
    injectFault(u, f.base);
    updateNextEvent();
  }

  RunResult finishRun() {
    CASTED_CHECK(stepMode) << "finish requires begin()";
    if (!finished) {
      setPause(kNoFault);
      const bool paused = drive();
      CASTED_CHECK(!paused);
    }
    return result;
  }
};

}  // namespace

struct DecodedRunner::Impl {
  Interp interp;
  explicit Impl(const DecodedProgram& program) : interp(program) {}
};

DecodedRunner::DecodedRunner(const DecodedProgram& program)
    : impl_(std::make_unique<Impl>(program)) {}

DecodedRunner::~DecodedRunner() = default;

RunResult DecodedRunner::run(const SimOptions& options) {
  impl_->interp.reset(options);
  RunResult result = impl_->interp.run();
  traceRunStats("decoded", result.stats);
  return result;
}

void DecodedRunner::begin(const SimOptions& options) {
  impl_->interp.begin(options);
}

bool DecodedRunner::runToDef(std::uint64_t ordinal) {
  return impl_->interp.runToDef(ordinal);
}

std::uint64_t DecodedRunner::pausedOrdinal() const {
  CASTED_CHECK(impl_->interp.pausedAtDef) << "runner is not paused";
  return impl_->interp.defOrdinal;
}

void DecodedRunner::saveCheckpoint(ArchCheckpoint& out) {
  if (out.data_ == nullptr) {
    out.data_ = std::make_unique<ArchCheckpoint::Data>();
  }
  trace::counterAdd("sim.checkpoint.saves");
  impl_->interp.saveCheckpoint(*out.data_);
}

void DecodedRunner::restoreCheckpoint(const ArchCheckpoint& checkpoint) {
  CASTED_CHECK(checkpoint.data_ != nullptr) << "checkpoint was never saved";
  trace::counterAdd("sim.checkpoint.restores");
  impl_->interp.restoreCheckpoint(*checkpoint.data_);
}

void DecodedRunner::injectAtPause(const FaultPlan& plan) {
  impl_->interp.injectAtPause(plan);
}

RunResult DecodedRunner::finish() {
  RunResult result = impl_->interp.finishRun();
  traceRunStats("decoded", result.stats);
  return result;
}

RunResult runDecoded(const DecodedProgram& program, const SimOptions& options) {
  Interp engine(program);
  engine.reset(options);
  RunResult result = engine.run();
  traceRunStats("decoded", result.stats);
  return result;
}

}  // namespace casted::sim
