#include "sim/decoded.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "sim/lanes.h"
#include "sim/op_kernel.h"
#include "sim/simulator.h"
#include "support/check.h"
#include "support/trace.h"

namespace casted::sim {

namespace {

using ir::Opcode;
using ir::Reg;
using ir::RegClass;

constexpr std::uint32_t kDiscardReturns = 0xffffffffu;

// The largest latency of a hit at any level.
std::uint32_t hitLatency(const arch::CacheConfig& cache) {
  std::uint32_t worst = 0;
  for (const arch::CacheLevelConfig& level : cache.levels) {
    worst = std::max(worst, level.latency);
  }
  return worst;
}

// Whether the last level can hold all of the arena's lines at once: a
// contiguous run of n lines puts at most ceil(n / sets) of them in a set.
bool keepsArena(const arch::CacheConfig& cache, std::uint64_t arenaEnd) {
  const arch::CacheLevelConfig& last = cache.levels.back();
  const auto shift = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(last.blockBytes)));
  const std::uint64_t lines =
      ((arenaEnd - 1) >> shift) - (ir::Program::kGlobalBase >> shift) + 1;
  const std::uint64_t sets =
      last.sizeBytes / last.blockBytes / last.associativity;
  return (lines + sets - 1) / sets <= last.associativity;
}

}  // namespace

DecodedProgram DecodedProgram::build(const ir::Program& program,
                                     const sched::ProgramSchedule& schedule,
                                     const arch::MachineConfig& config) {
  DecodedProgram decoded;
  CASTED_CHECK(schedule.functions.size() == program.functionCount())
      << "schedule/program function count mismatch";
  decoded.entry_ = program.entryFunction();
  if (program.hasSymbol(kOutputSymbol)) {
    const ir::GlobalSymbol& output = program.symbol(kOutputSymbol);
    decoded.outputAddress_ = output.address;
    decoded.outputSize_ = output.size;
  }
  decoded.globalImage_ = program.globalImage();
  decoded.cacheConfig_ = config.cache;
  decoded.memBaseLatency_ = config.latencies.mem;
  std::uint32_t smallestLine = ~0u;
  for (const arch::CacheLevelConfig& level : config.cache.levels) {
    smallestLine = std::min(smallestLine, level.blockBytes);
  }
  decoded.lineShift_ =
      static_cast<std::uint32_t>(std::countr_zero(smallestLine));
  // The extra latency a bundle can pay over the base: worst whatever the
  // cache holds, warm when every line it accesses is in the last level.
  const auto over = [&](std::uint32_t latency) {
    return latency > config.latencies.mem ? latency - config.latencies.mem
                                          : 0;
  };
  const std::uint32_t worstExtra = over(
      std::max(config.cache.memoryLatency, hitLatency(config.cache)));
  decoded.keepsArena_ =
      keepsArena(config.cache, ir::Program::kGlobalBase +
                                   decoded.globalImage_.size() + kHeapBytes);
  const std::uint32_t warmExtra =
      decoded.keepsArena_ ? over(hitLatency(config.cache)) : worstExtra;
  decoded.coldPenalty_ = worstExtra - warmExtra;

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
      dfn.addrSlots = std::max<std::uint32_t>(
          dfn.addrSlots, static_cast<std::uint32_t>(insns.size()));
      const sched::BlockSchedule& blockSched =
          schedule.functions[f].blocks[b];
      CASTED_CHECK(blockSched.issueCycle.size() == insns.size())
          << "schedule built from a different program shape (@" << fn.name()
          << " bb" << b << ")";

      DecodedBlock& dbk = dfn.blocks[b];
      dbk.firstOp = static_cast<std::uint32_t>(dfn.ops.size());
      dbk.opCount = static_cast<std::uint32_t>(insns.size());
      dbk.schedLength = blockSched.length;
      dbk.plan = sched::memoryPlan(fn.block(b), blockSched);
      dbk.warmCycles =
          dbk.schedLength +
          static_cast<std::uint32_t>(dbk.plan.bundleSizes.size()) * warmExtra;

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
            u.useClass[0] = static_cast<std::uint8_t>(RegClass::kPr);
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
            std::uint32_t* fields[3] = {&u.a, &u.b, &u.c};
            for (std::size_t i = 0; i < insn.uses.size() && i < 3; ++i) {
              *fields[i] = insn.uses[i].index;
              if (insn.op != Opcode::kHalt) {
                u.useClass[i] = static_cast<std::uint8_t>(insn.uses[i].cls);
              }
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
  FrameBase base;
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
  std::uint64_t generation = 0;  // must match the owner's live generation
  const void* owner = nullptr;   // the interpreter that saved it
};

ArchCheckpoint::ArchCheckpoint() = default;
ArchCheckpoint::~ArchCheckpoint() = default;
ArchCheckpoint::ArchCheckpoint(ArchCheckpoint&&) noexcept = default;
ArchCheckpoint& ArchCheckpoint::operator=(ArchCheckpoint&&) noexcept =
    default;

namespace {

// What stopped the resumable core loop.  Every end of a run is a value,
// never an unwind: the lockstep golden stream keeps running while its lanes
// end, and a trap or a check is just one more way for exec() to return.
enum class Flow : std::uint8_t {
  kContinue,   // nothing did (internal: keep executing)
  kPause,      // reached the pause target (runToDef, the lockstep prefix)
  kHalted,     // kHalt or an entry return; Impl::exitCode holds the code
  kDetected,   // a check fired
  kTrapped,    // a hardware trap; Impl::trap holds its kind
  kTimeout,    // the watchdog expired
  kLanesDone,  // lockstep: every plan of the stream is decided or deferred
};

}  // namespace

// The decoded interpreter behind every DecodedRunner.  Frames live in three
// per-class arenas (one contiguous slab per register class) instead of
// per-call heap vectors; a call pushes `regCount` zeroed slots per class and
// pops them on return.  Control state lives in an explicit InterpFrame
// stack, so execution can pause at any dynamic def ordinal, be
// snapshotted/restored through ArchCheckpoint, and resume — the machinery
// behind checkpoint-and-diverge fault injection (sim/decoded.h).
//
// Every kind of run — a whole run, a stepwise run, a lockstep golden
// stream and its stepwise fallbacks — has one lifecycle: reset() arms it
// and pushes the entry frame, exec() runs it until a Flow stops it, and a
// run ends as one of the Flows that carry an outcome (kHalted, kDetected,
// kTrapped, kTimeout).
//
// reset() restores the fresh-construction architectural state in time
// proportional to what the previous run touched (the memory and cache undo
// logs, cleared arenas), so a campaign worker pays the megabyte-scale
// allocations once, not per trial.
struct DecodedRunner::Impl {
  const DecodedProgram& prog;
  SimOptions options;  // the run's, copied by reset()
  Memory memory;
  CacheHierarchy caches;
  RunStats stats;

  std::vector<std::int64_t> gpStack;
  std::vector<double> fpStack;
  std::vector<std::uint8_t> prStack;
  // Per frame, the address of each memory op of its executing block, by
  // node (DecodedFunction::addrSlots of them): the block's timing walk reads
  // them when it ends, after any call it made has returned.
  std::vector<std::uint64_t> addrStack;

  std::size_t faultCursor = 0;  // next point of options.faultPlan
  std::uint64_t defOrdinal = 0;
  std::uint64_t nextFaultOrdinal = kNoFault;
  // The next def ordinal that needs more than counting: min(pauseAt,
  // nextFaultOrdinal), or every ordinal while a def trace is recorded.  It
  // makes a normal def one compare (noteDef); updateNextEvent() recomputes
  // it wherever one of its inputs changes.
  std::uint64_t nextEvent = kNoFault;

  // How the last run ended, for the Flows that carry a value.  exitSlot is
  // the gp arena slot kHalt read its code from; an entry return has none.
  std::int64_t exitCode = 0;
  std::optional<std::uint32_t> exitSlot;
  TrapKind trap = TrapKind::kNone;

  // The lockstep lanes the golden stream serves (runLanes).  While they
  // are armed (exec<true>), they take the fault-plan cursor's place:
  // nextFaultOrdinal is their next flip.
  Lanes lanes{{gpStack, fpStack, prStack, addrStack, memory, caches,
               stats.cycles, options.maxCycles, prog}};

  // The explicit call stack.  frames.back() is the executing frame; its
  // `node` is only authoritative while paused or calling (the op loop runs
  // on a local cursor and flushes it at those points).
  std::vector<InterpFrame> frames;

  // Stepwise-run state (begin/runToDef/injectAtPause/finish).
  std::uint64_t pauseAt = kNoFault;  // runToDef's or the lockstep prefix's
  bool stepMode = false;
  bool pausedAtDef = false;
  bool finished = false;
  RunResult result;
  std::uint64_t checkpointGen = 0;  // invalidates outstanding checkpoints
  // The statistics the run started from: zero, or a restored checkpoint's.
  // finish() traces only what the run executed past them.
  RunStats traceFrom;

  // runLanes scratch, reused for its allocations only: the stream's plans
  // in first-ordinal order, and its checkpoint.
  std::vector<std::uint32_t> streamPlans;
  ArchCheckpoint::Data streamCheckpoint;

  explicit Impl(const DecodedProgram& program)
      : prog(program),
        memory(program.globalImage(), kHeapBytes),
        caches(program.cacheConfig()) {}

  // Restores fresh-context state, arms the run with `opts` and pushes the
  // entry frame.
  void reset(const SimOptions& opts) {
    CASTED_CHECK(opts.faultPlan == nullptr || opts.defTrace == nullptr)
        << "SimOptions::defTrace must stay null in injection runs (the trace "
           "belongs to the golden profiling run)";
    memory.reset();
    options = opts;
    caches.reset();
    stats = RunStats{};
    traceFrom = RunStats{};
    gpStack.clear();
    fpStack.clear();
    prStack.clear();
    addrStack.clear();
    faultCursor = 0;
    defOrdinal = 0;
    nextFaultOrdinal =
        (opts.faultPlan != nullptr && !opts.faultPlan->points.empty())
            ? opts.faultPlan->points[0].ordinal
            : kNoFault;
    if (opts.defTrace != nullptr) {
      opts.defTrace->clear();
    }
    exitCode = 0;
    exitSlot.reset();
    frames.clear();
    pauseAt = kNoFault;
    stepMode = false;
    pausedAtDef = false;
    finished = false;
    result = RunResult{};
    ++checkpointGen;  // outstanding checkpoints are now stale
    updateNextEvent();
    // At depth 0 and cycle 0 the entry push can neither overflow the stack
    // nor time out.
    pushFrame(prog.entryFunction(), nullptr, 0, FrameBase{}, 0,
              kDiscardReturns);
  }

  void updateNextEvent() {
    nextEvent = options.defTrace != nullptr
                    ? defOrdinal
                    : std::min(pauseAt, nextFaultOrdinal);
  }

  // Reads one register as raw bits; the marshalling used for call arguments,
  // returned values and fault flips (identical to the reference's RawValue
  // round trip).
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

  // Copies the `count` registers listed at `from` in frame `src` to those
  // listed at `to` in frame `dst`: call arguments and returned values.
  void copyRegs(const DecodedReg* from, const FrameBase& src,
                const DecodedReg* to, const FrameBase& dst,
                std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      writeBits(dst, to[i], readBits(src, from[i]));
    }
  }

  // Applies the pending fault point to one def of `target` (the op whose
  // defOrdinal just matched), then advances the plan cursor.
  void injectFault(const MicroOp& u, const FrameBase& frame) {
    const FaultPoint& point = options.faultPlan->points[faultCursor];
    ++faultCursor;
    nextFaultOrdinal = faultCursor < options.faultPlan->points.size()
                           ? options.faultPlan->points[faultCursor].ordinal
                           : kNoFault;
    const DecodedReg target = faultTarget(u, point, prog.pool().data());
    writeBits(frame, target,
              flipBits(target.cls, readBits(frame, target), point.bit));
  }

  // `addr` is the executing frame's address slots.
  template <bool kLanes>
  void chargeBlockTiming(const DecodedBlock& blk, const std::uint64_t* addr) {
    const std::uint32_t baseLatency = prog.memBaseLatency();
    std::uint64_t stalls = 0;
    const std::uint32_t* node = blk.plan.nodes.data();
    for (const std::uint32_t size : blk.plan.bundleSizes) {
      // All memory ops issued in the same cycle overlap their misses; the
      // bundle pays only the worst extra latency.
      std::uint32_t worstExtra = 0;
      for (std::uint32_t n = 0; n < size; ++n, ++node) {
        const std::uint32_t latency = caches.access(addr[*node]);
        if (latency > baseLatency) {
          worstExtra = std::max(worstExtra, latency - baseLatency);
        }
      }
      stalls += worstExtra;
    }
    stats.cycles += blk.schedLength + stalls;
    stats.stallCycles += stalls;
    ++stats.blockExecutions;
    if constexpr (kLanes) {
      lanes.chargeBlock(blk);
    }
  }

  // Pushes a frame for `funcIdx` and copies its arguments from the caller
  // frame's registers listed at `args`; returned values will be written
  // back to the caller's call-def list at retPool — or discarded for the
  // entry invocation (retCount == kDiscardReturns).  Ordering matches the
  // recursive interpreter this replaced bit for bit: depth check,
  // argument-count check, arena push, argument copy, then the timeout check
  // that used to sit at the head of the callee's run loop.
  Flow pushFrame(std::uint32_t funcIdx, const DecodedReg* args,
                 std::uint32_t argCount, FrameBase caller,
                 std::uint32_t retPool, std::uint32_t retCount) {
    if (frames.size() > kMaxCallDepth) {
      trap = TrapKind::kStackOverflow;
      return Flow::kTrapped;
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
                       static_cast<std::uint32_t>(prStack.size()),
                       static_cast<std::uint32_t>(addrStack.size())};
    gpStack.resize(f.base.gp + fn.regCount[0], 0);
    fpStack.resize(f.base.fp + fn.regCount[1], 0.0);
    prStack.resize(f.base.pr + fn.regCount[2], 0);
    addrStack.resize(f.base.addr + fn.addrSlots, 0);
    copyRegs(args, caller, fn.params.data(), f.base, argCount);
    frames.push_back(f);
    return stats.cycles > options.maxCycles ? Flow::kTimeout
                                            : Flow::kContinue;
  }

  // Def bookkeeping, shared by every def-producing op including calls
  // (invoked after the callee's returns were written back).  A def that is
  // no event costs one compare; defEvent handles the rest.
  template <bool kLanes>
  [[gnu::always_inline]] Flow noteDef(const MicroOp& u, const InterpFrame& f,
                                      std::uint32_t node,
                                      std::uint64_t insns) {
    ++stats.dynamicDefInsns;
    if (defOrdinal != nextEvent) [[likely]] {
      ++defOrdinal;
      return Flow::kContinue;
    }
    return defEvent<kLanes>(u, f, node, insns);
  }

  // The trace record and the runToDef pause run before finishDef, the part
  // a pause defers until the run resumes.
  template <bool kLanes>
  Flow defEvent(const MicroOp& u, const InterpFrame& f, std::uint32_t node,
                std::uint64_t insns) {
    if (options.defTrace != nullptr) {
      options.defTrace->push_back({f.func, f.block, node});
    }
    if (defOrdinal == pauseAt) {
      return Flow::kPause;
    }
    finishDef<kLanes>(u, f.base, insns);
    if constexpr (kLanes) {
      // A flip may have decided or deferred the stream's last plan.
      if (lanes.allDecided()) {
        return Flow::kLanesDone;
      }
    }
    return Flow::kContinue;
  }

  // Fault check (a lane flip in the golden stream) and ordinal advance.
  template <bool kLanes>
  void finishDef(const MicroOp& u, const FrameBase& base,
                 std::uint64_t insns) {
    if (defOrdinal == nextFaultOrdinal) {
      if constexpr (kLanes) {
        nextFaultOrdinal = lanes.onDef(u, base, defOrdinal, insns);
      } else {
        injectFault(u, base);
      }
    }
    ++defOrdinal;
    updateNextEvent();
  }

  // evalOp's operand access for the executing frame: the arenas and the
  // memory model, with the address and access count every memory op
  // records.
  struct FrameAccess {
    Impl& in;
    std::int64_t* gp;
    double* fp;
    std::uint8_t* pr;
    std::uint64_t* addr;

    template <int I>
    std::int64_t g(const MicroOp& u, kernel::Use<I> use) const {
      return gp[kernel::slotOf(u, use)];
    }
    template <int I>
    double f(const MicroOp& u, kernel::Use<I> use) const {
      return fp[kernel::slotOf(u, use)];
    }
    template <int I>
    std::uint8_t p(const MicroOp& u, kernel::Use<I> use) const {
      return pr[kernel::slotOf(u, use)];
    }
    void setG(const MicroOp& u, std::int64_t value) { gp[u.def] = value; }
    void setF(const MicroOp& u, double value) { fp[u.def] = value; }
    void setP(const MicroOp& u, std::uint8_t value) { pr[u.def] = value; }

    TrapKind load(std::uint32_t node, std::uint64_t address,
                  std::uint32_t width, std::uint64_t& value) {
      addr[node] = address;
      ++in.stats.memAccesses;
      const TrapKind trap = in.memory.accessTrap(address, width);
      if (trap == TrapKind::kNone) {
        value = width == 8 ? in.memory.rawReadU64(address)
                           : in.memory.rawReadU8(address);
      }
      return trap;
    }
    TrapKind store(std::uint32_t node, std::uint64_t address,
                   std::uint32_t width, std::uint64_t value) {
      addr[node] = address;
      ++in.stats.memAccesses;
      const TrapKind trap = in.memory.accessTrap(address, width);
      if (trap == TrapKind::kNone) {
        if (width == 8) {
          in.memory.rawWriteU64(address, value);
        } else {
          in.memory.rawWriteU8(address, static_cast<std::uint8_t>(value));
        }
      }
      return trap;
    }
  };

  // The core loop: executes frames.back() until the run ends, a runToDef
  // pause ordinal is reached, or (kLanes) the stream's plans are decided.
  // exec<false> is the plain interpreter every whole and stepwise run uses;
  // exec<true> is the lockstep golden stream, the same loop plus the lane
  // hooks, which compile away in exec<false>.
  template <bool kLanes>
  Flow exec() {
    // The per-op instruction count lives in a local: the arena stores below
    // (int64_t, uint8_t) may alias the uint64_t members of `this`, so a
    // member counter would be reloaded and stored on every op.  The
    // destructor writes it back on every return.
    struct InsnCount {
      std::uint64_t& out;
      std::uint64_t n;
      ~InsnCount() { out = n; }
    } insns{stats.dynamicInsns, stats.dynamicInsns};
    const DecodedReg* pool = prog.pool().data();
    while (true) {
      if constexpr (kLanes) {
        // A move or a pop may have decided the last lane (reconverged).
        if (lanes.allDecided()) {
          return Flow::kLanesDone;
        }
      }
      InterpFrame& f = frames.back();
      const DecodedFunction& fn = prog.functions()[f.func];
      const DecodedBlock& blk = fn.blocks[f.block];
      const MicroOp* ops = fn.ops.data() + blk.firstOp;
      // Raw pointers are safe within the op loop: the arenas only grow at a
      // call, and a call breaks out to re-derive everything (including `f`,
      // which frames.push_back invalidates).
      FrameAccess regs{*this, gpStack.data() + f.base.gp,
                       fpStack.data() + f.base.fp, prStack.data() + f.base.pr,
                       addrStack.data() + f.base.addr};
      [[maybe_unused]] LaneView view;
      if constexpr (kLanes) {
        view = lanes.view(f.base);
      }
      std::uint32_t next = f.nextBlock;
      bool returned = f.returned;
      bool pushed = false;
      std::uint32_t node = f.node;
      for (; node < blk.opCount; ++node) {
        const MicroOp& u = ops[node];
        ++insns.n;
        [[maybe_unused]] bool laneOp = false;
        if constexpr (kLanes) {
          laneOp = lanes.hasDiffs() && view.touches(u, regs.gp);
          if (laneOp) {
            lanes.capture(u, f.base);
          }
        }
        if (!kernel::isControl(u.op)) [[likely]] {
          const OpEval eval = evalOp(u, node, regs);
          if (eval.status == OpStatus::kDetect) [[unlikely]] {
            return Flow::kDetected;
          }
          if (eval.status == OpStatus::kTrap) [[unlikely]] {
            trap = eval.trap;
            return Flow::kTrapped;
          }
        } else {
          switch (u.op) {
            case Opcode::kBr:
              next = u.t1;
              break;
            case Opcode::kBrCond:
              next = regs.pr[u.a] != 0 ? u.t1 : u.t2;
              break;
            case Opcode::kCall: {
              // Flush the cursor and push the callee; the call op's own def
              // bookkeeping runs when the callee's frame pops.
              f.node = node;
              f.nextBlock = next;
              f.returned = returned;
              const FrameBase caller = f.base;
              const Flow flow =
                  pushFrame(u.t1, pool + u.a, u.b, caller, u.c, u.defCount);
              if (flow != Flow::kContinue) {
                return flow;
              }
              if constexpr (kLanes) {
                lanes.syncArenas();
                lanes.onMove(u.op, pool + u.a, caller,
                             prog.functions()[u.t1].params.data(),
                             frames.back().base, u.b);
              }
              pushed = true;  // `f` is dangling now (frames reallocated)
              break;
            }
            case Opcode::kRet: {
              if (f.retCount != kDiscardReturns) {
                CASTED_CHECK(u.b == f.retCount)
                    << "@" << fn.name << " returned " << u.b
                    << " values, caller expects " << f.retCount;
                const FrameBase caller = frames[frames.size() - 2].base;
                copyRegs(pool + u.a, f.base, pool + f.retPool, caller, u.b);
                if constexpr (kLanes) {
                  lanes.onMove(u.op, pool + u.a, f.base, pool + f.retPool,
                               caller, u.b);
                }
              }
              returned = true;
              break;
            }
            default:  // kHalt
              chargeBlockTiming<kLanes>(blk, regs.addr);
              exitCode = regs.gp[u.a];
              exitSlot = f.base.gp + u.a;
              return Flow::kHalted;
          }
          if (pushed) {
            break;  // enter the callee frame
          }
        }
        if constexpr (kLanes) {
          if (laneOp && lanes.step(u, node, f.base, insns.n)) {
            return Flow::kLanesDone;
          }
        }
        if (u.defCount != 0) {
          const Flow flow = noteDef<kLanes>(u, f, node, insns.n);
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
      chargeBlockTiming<kLanes>(blk, regs.addr);
      if (returned) {
        // Pop the frame, then complete the caller's pending call op (its
        // defs were written back by the kRet above).
        const FrameBase base = f.base;
        if constexpr (kLanes) {
          lanes.onPop(base);
        }
        gpStack.resize(base.gp);
        fpStack.resize(base.fp);
        prStack.resize(base.pr);
        addrStack.resize(base.addr);
        frames.pop_back();
        if (frames.empty()) {
          // The entry function returned: a clean exit with code 0.
          exitCode = 0;
          exitSlot.reset();
          return Flow::kHalted;
        }
        InterpFrame& caller = frames.back();
        const DecodedFunction& cfn = prog.functions()[caller.func];
        const MicroOp& call =
            cfn.ops[cfn.blocks[caller.block].firstOp + caller.node];
        if (call.defCount != 0) {
          const Flow flow =
              noteDef<kLanes>(call, caller, caller.node, insns.n);
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
      if (stats.cycles > options.maxCycles) {
        return Flow::kTimeout;
      }
    }
  }

  // The op the run is paused on.
  const MicroOp& pausedOp() const {
    const InterpFrame& f = frames.back();
    const DecodedFunction& fn = prog.functions()[f.func];
    return fn.ops[fn.blocks[f.block].firstOp + f.node];
  }

  // Completes the def bookkeeping the pause interrupted (the paused op's
  // counting already ran), then steps past the op.
  template <bool kLanes>
  void completePausedDef() {
    pausedAtDef = false;
    finishDef<kLanes>(pausedOp(), frames.back().base, stats.dynamicInsns);
    ++frames.back().node;
  }

  // Runs or resumes until a pause or the end of the run.  Returns true while
  // paused at a def; otherwise `result` is final and `finished` set.
  bool drive() {
    CASTED_CHECK(!finished) << "run already complete";
    if (pausedAtDef) {
      completePausedDef<false>();
    }
    const Flow flow = exec<false>();
    if (flow == Flow::kPause) {
      pausedAtDef = true;
      return true;
    }
    result = RunResult{};
    switch (flow) {
      case Flow::kHalted:
        result.exit = ExitKind::kHalted;
        result.exitCode = exitCode;
        break;
      case Flow::kDetected:
        result.exit = ExitKind::kDetected;
        break;
      case Flow::kTrapped:
        result.exit = ExitKind::kException;
        result.trap = trap;
        break;
      case Flow::kTimeout:
        result.exit = ExitKind::kTimeout;
        break;
      default:
        CASTED_UNREACHABLE("run ended without an outcome");
    }
    result.stats = statsNow();
    result.output = memory.snapshot(prog.outputAddress(), prog.outputSize());
    finished = true;
    return false;
  }

  // The run's statistics so far, the cache model's counts included.
  RunStats statsNow() const {
    RunStats now = stats;
    for (int level = 0; level < 3; ++level) {
      now.cacheLevel[level] = caches.levelStats(level);
    }
    now.memoryAccesses = caches.memoryAccesses();
    return now;
  }

  // Runs to the end, unless the run is already there, and returns its
  // result.  Each call adds to the trace's sim.decoded.* counters what the
  // run executed since it started or was last restored (traceFrom).
  RunResult finish() {
    if (!finished) {
      const bool paused = drive();
      CASTED_CHECK(!paused);
    }
    traceRunStats("decoded", result.stats, traceFrom);
    return result;
  }

  // ---- Lockstep lanes (see DecodedRunner::runLockstep) ----

  LockstepStream runLanes(const SimOptions& opts,
                          const std::vector<const FaultPlan*>& plans,
                          std::vector<LaneVerdict>& verdicts,
                          std::uint64_t goldenInsns) {
    // The fallbacks below drive the stepwise run; it ends with this call.
    struct EndStepwise {
      bool& mode;
      ~EndStepwise() { mode = false; }
    } endStepwise{stepMode};
    verdicts.assign(plans.size(), LaneVerdict{});
    streamPlans.resize(plans.size());
    for (std::uint32_t i = 0; i < plans.size(); ++i) {
      CASTED_CHECK(!plans[i]->points.empty()) << "empty fault plan";
      streamPlans[i] = i;
    }
    std::stable_sort(streamPlans.begin(), streamPlans.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return plans[a]->points[0].ordinal <
                              plans[b]->points[0].ordinal;
                     });
    LockstepStream total;
    // Every stream arms at least its first plan, into a free slot.
    while (!streamPlans.empty()) {
      runStream(opts, plans, verdicts, goldenInsns, total);
      streamPlans = lanes.deferred();
    }
    return total;
  }

  // One golden stream over streamPlans, then its fallbacks' re-runs.
  void runStream(const SimOptions& opts,
                 const std::vector<const FaultPlan*>& plans,
                 std::vector<LaneVerdict>& verdicts, std::uint64_t goldenInsns,
                 LockstepStream& total) {
    begin(opts);
    const std::uint64_t first = plans[streamPlans[0]]->points[0].ordinal;
    // The prefix runs on the plain interpreter and pauses at the stream's
    // first flip, where the fallbacks' checkpoint is saved before any lane
    // arms.  A first flip past the run's last def leaves no pause: every
    // plan is then decided at the golden stream's end.
    pauseAt = first;
    updateNextEvent();
    Flow flow = exec<false>();
    pauseAt = kNoFault;
    total.prefixInsns += stats.dynamicInsns;
    lanes.begin(plans, streamPlans, verdicts, goldenInsns);
    if (flow == Flow::kPause) {
      pausedAtDef = true;
      saveCheckpoint(streamCheckpoint);
      // The paused def completes with the lanes armed, so their flips at
      // `first` apply there, and the stream goes on from it.
      nextFaultOrdinal = first;
      completePausedDef<true>();
      flow = lanes.allDecided() ? Flow::kLanesDone : exec<true>();
    }
    CASTED_CHECK(flow != Flow::kTimeout)
        << "the golden stream timed out: the watchdog (" << opts.maxCycles
        << " cycles) must admit the fault-free run";
    if (flow == Flow::kHalted) {
      CASTED_CHECK(stats.dynamicInsns == goldenInsns)
          << "the golden stream ran " << stats.dynamicInsns
          << " instructions, the golden run " << goldenInsns;
      lanes.finish(exitSlot, exitCode, stats.dynamicInsns);
    }
    CASTED_CHECK(flow != Flow::kDetected && flow != Flow::kTrapped &&
                 lanes.allDecided())
        << "the golden stream ended without deciding its lanes";
    ++total.streams;
    total.deferred += lanes.deferred().size();
    total.insns += stats.dynamicInsns;
    total.laneSteps += lanes.laneSteps();
    for (std::size_t op = 0; op < total.laneOps.size(); ++op) {
      total.laneOps[op] += lanes.laneOpsByOpcode()[op];
    }
    rerunFallbacks(plans, verdicts);
  }

  // Re-runs the stream's fallbacks from its checkpoint, in injection order
  // (streamPlans' order): each restores the checkpoint, rolls it forward
  // when its plan injects later, and runs its suffix to its natural end.
  void rerunFallbacks(const std::vector<const FaultPlan*>& plans,
                      std::vector<LaneVerdict>& verdicts) {
    for (const std::uint32_t i : streamPlans) {
      LaneVerdict& v = verdicts[i];
      if (!isFallback(v.end)) {
        continue;  // decided, or deferred to the next stream
      }
      // Undo the stream, or whatever the previous suffix touched.
      restoreCheckpoint(streamCheckpoint);
      const std::uint64_t target = plans[i]->points[0].ordinal;
      if (target != defOrdinal) {
        const bool paused = runToDef(target);
        CASTED_CHECK(paused) << "injection ordinal " << target
                             << " beyond the golden run";
        saveCheckpoint(streamCheckpoint);
      }
      injectAtPause(*plans[i]);
      v.rerun = finish();
    }
  }

  // ---- Stepwise API (see DecodedRunner) ----

  void begin(const SimOptions& opts) {
    CASTED_CHECK(opts.faultPlan == nullptr)
        << "stepwise runs inject via injectAtPause, not SimOptions";
    CASTED_CHECK(opts.defTrace == nullptr)
        << "a def trace cannot be rewound across checkpoint restores";
    reset(opts);
    stepMode = true;
  }

  bool runToDef(std::uint64_t ordinal) {
    CASTED_CHECK(stepMode) << "runToDef requires begin()";
    CASTED_CHECK(!finished) << "run already complete";
    CASTED_CHECK(pausedAtDef ? ordinal > defOrdinal : ordinal >= defOrdinal)
        << "cannot rewind to def " << ordinal << " (at " << defOrdinal
        << "); restore a checkpoint instead";
    pauseAt = ordinal;
    updateNextEvent();
    const bool paused = drive();
    pauseAt = kNoFault;
    updateNextEvent();
    return paused;
  }

  // A checkpoint holds a golden state: no fault plan is armed when it is
  // saved, and restoring it disarms the plan injectAtPause armed.
  void saveCheckpoint(ArchCheckpoint::Data& d) {
    CASTED_CHECK(stepMode && pausedAtDef)
        << "checkpoints are taken while paused at a def";
    CASTED_CHECK(options.faultPlan == nullptr)
        << "checkpoints are taken before injectAtPause";
    d.gp = gpStack;
    d.fp = fpStack;
    d.pr = prStack;
    d.addr = addrStack;
    d.frames = frames;
    d.stats = stats;
    d.defOrdinal = defOrdinal;
    d.generation = ++checkpointGen;
    d.owner = this;
    memory.setCheckpoint();
    caches.setCheckpoint();
    trace::counterAdd("sim.checkpoint.saves");
  }

  void restoreCheckpoint(const ArchCheckpoint::Data& d) {
    CASTED_CHECK(stepMode) << "restore requires begin()";
    CASTED_CHECK(d.owner == this && d.generation == checkpointGen)
        << "checkpoint is stale or belongs to another runner";
    const std::size_t memoryRecords = memory.rewindToCheckpoint();
    const std::size_t cacheSets = caches.rewindToCheckpoint();
    trace::counterAdd("sim.checkpoint.restores");
    trace::counterAdd("sim.restore.memory_records",
                      static_cast<std::int64_t>(memoryRecords));
    trace::counterAdd("sim.restore.cache_sets",
                      static_cast<std::int64_t>(cacheSets));
    gpStack = d.gp;
    fpStack = d.fp;
    prStack = d.pr;
    addrStack = d.addr;
    frames = d.frames;
    stats = d.stats;
    traceFrom = statsNow();
    defOrdinal = d.defOrdinal;
    options.faultPlan = nullptr;
    faultCursor = 0;
    nextFaultOrdinal = kNoFault;
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
    options.faultPlan = &plan;
    faultCursor = 0;
    // Apply point 0 to the op we are paused on (injectFault advances the
    // cursor to any later points, which fire during finish()).
    injectFault(pausedOp(), frames.back().base);
    updateNextEvent();
  }
};

DecodedRunner::DecodedRunner(const DecodedProgram& program)
    : impl_(std::make_unique<Impl>(program)) {}

DecodedRunner::~DecodedRunner() = default;

RunResult DecodedRunner::run(const SimOptions& options) {
  impl_->reset(options);
  return impl_->finish();
}

void DecodedRunner::begin(const SimOptions& options) { impl_->begin(options); }

bool DecodedRunner::runToDef(std::uint64_t ordinal) {
  return impl_->runToDef(ordinal);
}

std::uint64_t DecodedRunner::pausedOrdinal() const {
  CASTED_CHECK(impl_->pausedAtDef) << "runner is not paused";
  return impl_->defOrdinal;
}

void DecodedRunner::saveCheckpoint(ArchCheckpoint& out) {
  if (out.data_ == nullptr) {
    out.data_ = std::make_unique<ArchCheckpoint::Data>();
  }
  impl_->saveCheckpoint(*out.data_);
}

void DecodedRunner::restoreCheckpoint(const ArchCheckpoint& checkpoint) {
  CASTED_CHECK(checkpoint.data_ != nullptr) << "checkpoint was never saved";
  impl_->restoreCheckpoint(*checkpoint.data_);
}

void DecodedRunner::injectAtPause(const FaultPlan& plan) {
  impl_->injectAtPause(plan);
}

RunResult DecodedRunner::finish() {
  CASTED_CHECK(impl_->stepMode) << "finish requires begin()";
  return impl_->finish();
}

LockstepStream DecodedRunner::runLockstep(
    const SimOptions& options, const std::vector<const FaultPlan*>& plans,
    std::vector<LaneVerdict>& verdicts, std::uint64_t goldenInsns) {
  return impl_->runLanes(options, plans, verdicts, goldenInsns);
}

RunResult runDecoded(const DecodedProgram& program, const SimOptions& options) {
  return DecodedRunner(program).run(options);
}

}  // namespace casted::sim
