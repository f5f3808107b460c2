#include "sim/decoded.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>

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
constexpr std::uint64_t kNoFault = ~0ULL;

// The largest latency CacheHierarchy::access can return.
std::uint32_t worstAccessLatency(const arch::CacheConfig& cache) {
  std::uint32_t worst = cache.memoryLatency;
  for (const arch::CacheLevelConfig& level : cache.levels) {
    worst = std::max(worst, level.latency);
  }
  return worst;
}

}  // namespace

const char* laneEndName(LaneEnd end) {
  switch (end) {
    case LaneEnd::kDetected:
      return "detected";
    case LaneEnd::kException:
      return "exception";
    case LaneEnd::kHalted:
      return "halt";
    case LaneEnd::kReconverged:
      return "reconverged";
    case LaneEnd::kTimeout:
      return "timeout";
    case LaneEnd::kFallbackControl:
      return "control";
    case LaneEnd::kFallbackTiming:
      return "timing";
    case LaneEnd::kFallbackBudget:
      return "budget";
  }
  CASTED_UNREACHABLE("bad LaneEnd");
}

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
  const std::uint32_t worstExtra =
      worstAccessLatency(config.cache) > config.latencies.mem
          ? worstAccessLatency(config.cache) - config.latencies.mem
          : 0;

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
      dbk.worstCycles = dbk.schedLength + dbk.bundleCount * worstExtra;

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
  kPause,      // reached the runToDef() target ordinal
  kHalted,     // kHalt or an entry return; Interp::exitCode holds the code
  kDetected,   // a check fired
  kTrapped,    // a hardware trap; Interp::trap holds its kind
  kTimeout,    // the watchdog expired
  kLanesDone,  // lockstep: every lane of the window is decided
};

std::uint32_t slotBase(const InterpFrameBase& base, std::uint32_t cls) {
  return cls == 0 ? base.gp : cls == 1 ? base.fp : base.pr;
}

bool isMemOp(Opcode op) {
  return op >= Opcode::kLoad && op <= Opcode::kFStore;
}

// The golden stream's per-op test for lane work, over one frame: does `u`
// read a register, write a register or touch a memory word where some lane
// differs from the golden run?  Plain loads, no lane state walked.
struct LaneView {
  const std::uint8_t* regAny[3] = {};  // Lanes::regAny[c] + the frame base
  const std::uint64_t* memAny = nullptr;
  std::uint64_t memWords = 0;

  bool touches(const MicroOp& u, const std::int64_t* gp) const {
    const std::uint32_t field[3] = {u.a, u.b, u.c};
    for (int i = 0; i < 3; ++i) {
      if (u.useClass[i] != MicroOp::kNoUse &&
          regAny[u.useClass[i]][field[i]] != 0) {
        return true;
      }
    }
    if (u.defCount == 1 && u.op != Opcode::kCall &&
        regAny[u.defClass][u.def] != 0) {
      return true;
    }
    if (isMemOp(u.op)) {
      const std::uint64_t word =
          (kernel::address(gp[u.a], u.imm) - ir::Program::kGlobalBase) >> 3;
      return word < memWords && ((memAny[word >> 6] >> (word & 63)) & 1) != 0;
    }
    return false;
  }
};

// A set of lanes of one window, one bit per lane.
struct LaneSet {
  static constexpr std::size_t kWords = DecodedRunner::kMaxLanes / 64;
  std::uint64_t w[kWords] = {};

  bool any() const {
    std::uint64_t bits = 0;
    for (const std::uint64_t word : w) {
      bits |= word;
    }
    return bits != 0;
  }
  bool test(std::uint32_t lane) const {
    return ((w[lane >> 6] >> (lane & 63)) & 1) != 0;
  }
  void set(std::uint32_t lane) { w[lane >> 6] |= 1ULL << (lane & 63); }
  void reset(std::uint32_t lane) { w[lane >> 6] &= ~(1ULL << (lane & 63)); }
  LaneSet& operator|=(const LaneSet& other) {
    for (std::size_t i = 0; i < kWords; ++i) {
      w[i] |= other.w[i];
    }
    return *this;
  }
  template <class F>
  void forEach(F f) const {
    for (std::size_t i = 0; i < kWords; ++i) {
      for (std::uint64_t bits = w[i]; bits != 0; bits &= bits - 1) {
        f(static_cast<std::uint32_t>(i * 64 + std::countr_zero(bits)));
      }
    }
  }
};

// One lane's differing values: key -> the lane's value, open addressing
// with linear probing.  A key is a register (class << 60 | absolute arena
// slot) or an aligned memory word (3 << 60 | word address).
class DiffMap {
 public:
  static std::uint64_t regKey(std::uint32_t cls, std::uint32_t slot) {
    return (static_cast<std::uint64_t>(cls) << 60) | slot;
  }
  static std::uint64_t wordKey(std::uint64_t word) {
    return (3ULL << 60) | word;
  }
  static bool isWordKey(std::uint64_t key) { return (key >> 60) == 3; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // The value at `key`, which must be present.
  std::uint64_t at(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return slots_[i].value;
      }
      CASTED_CHECK(slots_[i].key != kEmpty) << "lane diff has no such key";
    }
  }

  // Returns whether `key` is new.
  bool put(std::uint64_t key, std::uint64_t value) {
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
    }
    std::size_t i = home(key);
    while (slots_[i].key != kEmpty && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    const bool added = slots_[i].key == kEmpty;
    size_ += added ? 1 : 0;
    slots_[i] = {key, value};
    return added;
  }

  // Backward-shift deletion: no tombstones, so lookups stay short.
  void erase(std::uint64_t key) {
    std::size_t i = home(key);
    while (slots_[i].key != key) {
      CASTED_CHECK(slots_[i].key != kEmpty) << "lane diff has no such key";
      i = (i + 1) & mask_;
    }
    for (std::size_t j = (i + 1) & mask_; slots_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      // Move j's entry into the hole at i unless its home lies in (i, j].
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].key = kEmpty;
    --size_;
  }

  void clear() {
    drain([](std::uint64_t, std::uint64_t) {});
  }

  // Calls f(key, value) for every entry, then empties the map.
  template <class F>
  void drain(F f) {
    if (size_ == 0) {
      return;
    }
    for (Slot& slot : slots_) {
      if (slot.key != kEmpty) {
        f(slot.key, slot.value);
        slot.key = kEmpty;
      }
    }
    size_ = 0;
  }

  template <class F>
  void forEach(F f) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmpty) {
        f(slot.key, slot.value);
      }
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint64_t value = 0;
  };

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
           mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) {
        put(slot.key, slot.value);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// The decoded interpreter (defined below).
using Interp = DecodedRunner::Impl;

// The lockstep state of one window (DecodedRunner::runLockstep): the lanes,
// and for every register slot and memory word the set of lanes that differ
// there.  The golden stream (Interp::exec<true>) calls step() before each
// op the LaneView flags, and the other hooks at defs (onDef), moves of
// call arguments and returned values (onMove), frame pops (onPop) and
// block charges (`worst`).  One Lanes lives as long as its Interp and
// serves window after window: a window ends with every lane decided and so
// every set empty, and begin() keeps the allocations.
struct Lanes {
  enum class State : std::uint8_t { kDormant, kLive, kReconverged, kDone };

  struct Lane {
    const FaultPlan* plan = nullptr;
    std::size_t cursor = 0;  // next point of `plan` to fire
    State state = State::kDormant;
    bool diverged = false;   // an in-range address differed: bound live
    DiffMap diff;
    std::uint64_t injectedAt = 0;   // golden instructions at the first flip
    std::uint64_t laneOps = 0;
    std::uint64_t boundStart = 0;   // golden cycles at the first such address
    std::uint64_t worstBefore = 0;  // `worst` at that point
  };

  explicit Lanes(Interp& interp) : in(interp) {}

  // Starts a window of `plans` on the run reset() armed; verdicts to `out`.
  void begin(const std::vector<const FaultPlan*>& plans,
             std::vector<LaneVerdict>& out);
  LaneView view(const InterpFrameBase& base) const;
  std::uint64_t nextOrdinal() const;
  void syncArenas();

  // Hooks of the golden stream; `insns` is its instruction count so far.
  bool step(const MicroOp& u, std::uint32_t node, const InterpFrameBase& base,
            std::uint64_t insns);
  void onDef(const MicroOp& u, const InterpFrameBase& base,
             std::uint64_t insns);
  void onMove(const DecodedReg* from, const InterpFrameBase& src,
              const DecodedReg* to, const InterpFrameBase& dst,
              std::uint32_t count, std::uint64_t insns);
  void onPop(const InterpFrameBase& base);
  // The end of the golden stream: every open lane is decided.
  void finish(std::optional<std::uint32_t> exitSlot, std::int64_t exitCode,
              std::uint64_t insns);
  void timeout(std::uint64_t insns);

  std::uint64_t laneBits(std::uint32_t lane, std::uint32_t cls,
                         std::uint32_t slot) const;
  std::uint64_t goldenBits(std::uint32_t cls, std::uint32_t slot) const;
  std::uint64_t laneWord(std::uint32_t lane, std::uint64_t word) const;
  const LaneSet* wordLanes(std::uint64_t word) const;
  bool hasWord(std::uint32_t lane, std::uint64_t word) const;
  void markWord(std::uint32_t lane, std::uint64_t word, bool differs);
  void setReg(std::uint32_t lane, std::uint32_t cls, std::uint32_t slot,
              std::uint64_t bits, std::uint64_t golden);
  void setWord(std::uint32_t lane, std::uint64_t word, std::uint64_t bits,
               std::uint64_t golden);
  bool chargeLaneOp(std::uint32_t lane, std::uint64_t insns);
  void decide(std::uint32_t lane, LaneEnd end, std::uint64_t insns,
              bool corrupt = false);
  void noteReconverged(std::uint32_t lane);
  void markDiverged(std::uint32_t lane);
  bool outputDiffers(std::uint32_t lane) const;

  Interp& in;
  std::vector<Lane> lanes;
  std::vector<LaneVerdict>* verdicts = nullptr;
  std::vector<LaneSet> regMask[3];          // by absolute arena slot
  std::vector<std::uint8_t> regAny[3];      // regMask[c][s].any()
  // The lanes of a memory word: memSets[memIndex[word]], for the words
  // whose memAny bit (one per arena word) is set.
  DiffMap memIndex;
  std::vector<LaneSet> memSets;
  std::vector<std::uint32_t> freeSets;
  std::vector<std::uint64_t> memAny;
  std::uint64_t memWords = 0;
  // Pending flips as a min-heap on the ordinal: (ordinal, lane).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> events;
  std::uint64_t worst = 0;  // sum of worstCycles over the charged blocks
  std::size_t diffs = 0;    // entries over all lanes' DiffMaps
  std::size_t open = 0;     // lanes not yet decided
};

// `bits` of a register of class `cls` with a fault point's `bit` flipped; a
// predicate flips its one bit whatever `bit` says.
std::uint64_t flipBits(std::uint32_t cls, std::uint64_t bits,
                       std::uint32_t bit) {
  return cls == static_cast<std::uint32_t>(RegClass::kPr)
             ? bits ^ 1
             : bits ^ (1ULL << (bit & 63));
}

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
// stream — has one lifecycle: reset() arms it and pushes the entry frame,
// exec() runs it until a Flow stops it, and a run ends as one of the Flows
// that carry an outcome (kHalted, kDetected, kTrapped, kTimeout).
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

  // Address computed for each memory op of the current block, indexed by the
  // op's node position — the same indexing the reference walk uses, so the
  // (harmless, never observed for completed blocks) aliasing of the scratch
  // across nested calls is bit-identical too.
  std::vector<std::uint64_t> addr;

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

  // The lockstep window the golden stream serves (runLanes only; null
  // otherwise).  Its lanes take the fault-plan cursor's place:
  // nextFaultOrdinal is their next flip.
  Lanes* lanes = nullptr;
  Lanes laneState{*this};

  using FrameBase = InterpFrameBase;

  // The explicit call stack.  frames.back() is the executing frame; its
  // `node` is only authoritative while paused or calling (the op loop runs
  // on a local cursor and flushes it at those points).
  std::vector<InterpFrame> frames;

  // Stepwise-run state (begin/runToDef/injectAtPause/finish).
  std::uint64_t pauseAt = kNoFault;  // runToDef target ordinal
  bool stepMode = false;
  bool pausedAtDef = false;
  bool finished = false;
  RunResult result;
  std::uint64_t checkpointGen = 0;  // invalidates outstanding checkpoints

  explicit Impl(const DecodedProgram& program)
      : prog(program),
        memory(program.globalImage(), options.heapBytes),
        caches(program.cacheConfig()) {
    addr.assign(prog.maxBlockInsns(), 0);
  }

  // Restores fresh-context state, arms the run with `opts` and pushes the
  // entry frame.
  void reset(const SimOptions& opts) {
    CASTED_CHECK(opts.faultPlan == nullptr || opts.defTrace == nullptr)
        << "SimOptions::defTrace must stay null in injection runs (the trace "
           "belongs to the golden profiling run)";
    if (opts.heapBytes != options.heapBytes) {
      memory = Memory(prog.globalImage(), opts.heapBytes);
    } else {
      memory.reset();
    }
    options = opts;
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
    exitCode = 0;
    exitSlot.reset();
    lanes = nullptr;
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

  // The register a fault point at op `u` flips: the call's chosen return
  // def, else the op's one def.
  DecodedReg faultTarget(const MicroOp& u, const FaultPoint& point) const {
    if (u.op == Opcode::kCall) {
      return prog.pool()[u.c + point.whichDef % u.defCount];
    }
    return {u.defClass, u.def};
  }

  // Applies the pending fault point to one def of `target` (the op whose
  // defOrdinal just matched), then advances the plan cursor.
  void injectFault(const MicroOp& u, const FrameBase& frame) {
    const FaultPoint& point = options.faultPlan->points[faultCursor];
    ++faultCursor;
    nextFaultOrdinal = faultCursor < options.faultPlan->points.size()
                           ? options.faultPlan->points[faultCursor].ordinal
                           : kNoFault;
    const DecodedReg target = faultTarget(u, point);
    writeBits(frame, target,
              flipBits(target.cls, readBits(frame, target), point.bit));
  }

  template <bool kLanes>
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
    if constexpr (kLanes) {
      lanes->worst += blk.worstCycles;
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
    if (frames.size() > options.maxCallDepth) {
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
                       static_cast<std::uint32_t>(prStack.size())};
    gpStack.resize(f.base.gp + fn.regCount[0], 0);
    fpStack.resize(f.base.fp + fn.regCount[1], 0.0);
    prStack.resize(f.base.pr + fn.regCount[2], 0);
    copyRegs(args, caller, fn.params.data(), f.base, argCount);
    frames.push_back(f);
    return stats.cycles > options.maxCycles ? Flow::kTimeout
                                            : Flow::kContinue;
  }

  // Def bookkeeping, shared by every def-producing op including calls
  // (invoked after the callee's returns were written back).  A def that is
  // no event costs one compare; defEvent handles the rest.
  [[gnu::always_inline]] Flow noteDef(const MicroOp& u, const InterpFrame& f,
                                      std::uint32_t node,
                                      std::uint64_t insns) {
    ++stats.dynamicDefInsns;
    if (defOrdinal != nextEvent) [[likely]] {
      ++defOrdinal;
      return Flow::kContinue;
    }
    return defEvent(u, f, node, insns);
  }

  // The trace record and the runToDef pause run before finishDef, the part
  // a pause defers until the run resumes.
  Flow defEvent(const MicroOp& u, const InterpFrame& f, std::uint32_t node,
                std::uint64_t insns) {
    if (options.defTrace != nullptr) {
      options.defTrace->push_back({f.func, f.block, node});
    }
    if (defOrdinal == pauseAt) {
      return Flow::kPause;
    }
    finishDef(u, f.base, insns);
    return Flow::kContinue;
  }

  // Fault check (a lane flip in the golden stream) and ordinal advance.
  void finishDef(const MicroOp& u, const FrameBase& base,
                 std::uint64_t insns) {
    if (defOrdinal == nextFaultOrdinal) {
      if (lanes != nullptr) {
        lanes->onDef(u, base, insns);
      } else {
        injectFault(u, base);
      }
    }
    ++defOrdinal;
    updateNextEvent();
  }

  // evalOp's operand access for the executing frame: the arenas and the
  // memory model, with the scratch address and access count every memory
  // op records.
  struct FrameAccess {
    Interp& in;
    std::int64_t* gp;
    double* fp;
    std::uint8_t* pr;

    std::int64_t g(std::uint32_t slot) const { return gp[slot]; }
    double f(std::uint32_t slot) const { return fp[slot]; }
    std::uint8_t p(std::uint32_t slot) const { return pr[slot]; }
    void setG(std::uint32_t slot, std::int64_t value) { gp[slot] = value; }
    void setF(std::uint32_t slot, double value) { fp[slot] = value; }
    void setP(std::uint32_t slot, std::uint8_t value) { pr[slot] = value; }

    TrapKind load(std::uint32_t node, std::uint64_t address,
                  std::uint32_t width, std::uint64_t& value) {
      in.addr[node] = address;
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
      in.addr[node] = address;
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
  // pause ordinal is reached, or (kLanes) the lockstep window is decided.
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
      InterpFrame& f = frames.back();
      const DecodedFunction& fn = prog.functions()[f.func];
      const DecodedBlock& blk = fn.blocks[f.block];
      const MicroOp* ops = fn.ops.data() + blk.firstOp;
      // Raw pointers are safe within the op loop: the arenas only grow at a
      // call, and a call breaks out to re-derive everything (including `f`,
      // which frames.push_back invalidates).
      FrameAccess regs{*this, gpStack.data() + f.base.gp,
                       fpStack.data() + f.base.fp, prStack.data() + f.base.pr};
      [[maybe_unused]] LaneView view;
      if constexpr (kLanes) {
        view = lanes->view(f.base);
      }
      std::uint32_t next = f.nextBlock;
      bool returned = f.returned;
      bool pushed = false;
      std::uint32_t node = f.node;
      for (; node < blk.opCount; ++node) {
        const MicroOp& u = ops[node];
        ++insns.n;
        if constexpr (kLanes) {
          if (lanes->diffs != 0 && view.touches(u, regs.gp) &&
              lanes->step(u, node, f.base, insns.n)) {
            return Flow::kLanesDone;
          }
        }
        if (u.op < Opcode::kBr || u.op > Opcode::kHalt) [[likely]] {
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
                lanes->syncArenas();
                lanes->onMove(pool + u.a, caller,
                              prog.functions()[u.t1].params.data(),
                              frames.back().base, u.b, insns.n);
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
                  lanes->onMove(pool + u.a, f.base, pool + f.retPool, caller,
                                u.b, insns.n);
                }
              }
              returned = true;
              break;
            }
            default:  // kHalt
              chargeBlockTiming<kLanes>(fn, blk);
              exitCode = regs.gp[u.a];
              exitSlot = f.base.gp + u.a;
              return Flow::kHalted;
          }
          if (pushed) {
            break;  // enter the callee frame
          }
        }
        if (u.defCount != 0) {
          const Flow flow = noteDef(u, f, node, insns.n);
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
      chargeBlockTiming<kLanes>(fn, blk);
      if (returned) {
        // Pop the frame, then complete the caller's pending call op (its
        // defs were written back by the kRet above).
        const FrameBase base = f.base;
        if constexpr (kLanes) {
          lanes->onPop(base);
        }
        gpStack.resize(base.gp);
        fpStack.resize(base.fp);
        prStack.resize(base.pr);
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
          const Flow flow = noteDef(call, caller, caller.node, insns.n);
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

  // Runs or resumes until a pause or the end of the run.  Returns true while
  // paused at a def; otherwise `result` is final and `finished` set.
  bool drive() {
    CASTED_CHECK(!finished) << "run already complete";
    if (pausedAtDef) {
      // Complete the def bookkeeping the pause interrupted (the paused op's
      // counting already ran), then step past the op.
      pausedAtDef = false;
      finishDef(pausedOp(), frames.back().base, stats.dynamicInsns);
      ++frames.back().node;
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
    for (int level = 0; level < 3; ++level) {
      stats.cacheLevel[level] = caches.levelStats(level);
    }
    stats.memoryAccesses = caches.memoryAccesses();
    result.stats = stats;
    for (const ir::GlobalSymbol& sym : prog.symbols()) {
      if (sym.name == options.outputSymbol) {
        result.output = memory.snapshot(sym.address, sym.size);
        break;
      }
    }
    finished = true;
    return false;
  }

  // Runs to the end, unless the run is already there, and returns its
  // result.  Each call adds the run to the trace's sim.decoded.* counters.
  RunResult finish() {
    if (!finished) {
      const bool paused = drive();
      CASTED_CHECK(!paused);
    }
    traceRunStats("decoded", result.stats);
    return result;
  }

  // ---- Lockstep lanes (see DecodedRunner::runLockstep) ----

  void runLanes(const SimOptions& opts,
                const std::vector<const FaultPlan*>& plans,
                std::vector<LaneVerdict>& verdicts) {
    CASTED_CHECK(opts.faultPlan == nullptr && opts.defTrace == nullptr)
        << "the golden stream runs without a plan or a def trace";
    CASTED_CHECK(plans.size() <= kMaxLanes)
        << plans.size() << " lanes exceed the window of " << kMaxLanes;
    reset(opts);
    verdicts.assign(plans.size(), LaneVerdict{});
    if (plans.empty()) {
      return;
    }
    laneState.begin(plans, verdicts);
    lanes = &laneState;
    nextFaultOrdinal = laneState.nextOrdinal();
    updateNextEvent();
    const Flow flow = exec<true>();
    if (flow == Flow::kHalted) {
      laneState.finish(exitSlot, exitCode, stats.dynamicInsns);
    } else if (flow == Flow::kTimeout) {
      laneState.timeout(stats.dynamicInsns);
    }
    lanes = nullptr;
    CASTED_CHECK(flow != Flow::kDetected && flow != Flow::kTrapped &&
                 laneState.open == 0 && laneState.diffs == 0)
        << "the golden stream ended without deciding its lanes";
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
    d.addr = addr;
    d.frames = frames;
    d.stats = stats;
    d.defOrdinal = defOrdinal;
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

namespace {

// ---------------------------------------------------------------------------
// Lockstep lanes.
//
// Invariant: a live lane's architectural state is the golden stream's state
// overlaid with the lane's DiffMap (registers by absolute arena slot, memory
// by aligned 8-byte word), and its control flow and def ordinals are the
// golden stream's.  Every hook below preserves it, or ends the lane.

// A lane op whose cost exceeds this many plain ops makes the rerun cheaper:
// the measured cost of a lane op over a plain golden op (EXPERIMENTS.md,
// "Lockstep lanes").  kLaneOpGrace lane ops are free of the budget, so a
// short-lived lane (a flip that a check catches a few ops later) is never
// sent back for its first dense burst.  Without the grace, 63% of the
// Fig. 9 lanes fell back and the campaign ran 23% slower; 64 to 1024
// measured alike (EXPERIMENTS.md, "The budget's grace").
constexpr std::uint64_t kLaneOpCost = 3;
constexpr std::uint64_t kLaneOpGrace = 256;

// evalOp's access that only observes the golden stream: golden operands,
// golden memory, and the address and value of its one memory access.
struct GoldenPeek {
  const Interp& in;
  InterpFrameBase base;
  std::uint64_t def = 0;      // bits of the op's result
  std::uint64_t address = 0;  // of a load or store
  std::uint64_t stored = 0;   // value of a store

  std::int64_t g(std::uint32_t slot) const {
    return in.gpStack[base.gp + slot];
  }
  double f(std::uint32_t slot) const { return in.fpStack[base.fp + slot]; }
  std::uint8_t p(std::uint32_t slot) const {
    return in.prStack[base.pr + slot];
  }
  void setG(std::uint32_t, std::int64_t value) {
    def = static_cast<std::uint64_t>(value);
  }
  void setF(std::uint32_t, double value) {
    def = std::bit_cast<std::uint64_t>(value);
  }
  void setP(std::uint32_t, std::uint8_t value) { def = value; }
  TrapKind load(std::uint32_t, std::uint64_t at, std::uint32_t width,
                std::uint64_t& value) {
    address = at;
    const TrapKind trap = in.memory.accessTrap(at, width);
    if (trap == TrapKind::kNone) {
      value = width == 8 ? in.memory.rawReadU64(at) : in.memory.rawReadU8(at);
    }
    return trap;
  }
  TrapKind store(std::uint32_t, std::uint64_t at, std::uint32_t width,
                 std::uint64_t value) {
    address = at;
    stored = value;
    return in.memory.accessTrap(at, width);
  }
};

// evalOp's access for one lane: the lane's values (its diffs over golden's)
// and its view of memory; results are captured for Lanes::step to commit.
struct LaneAccess {
  const Lanes& lanes;
  std::uint32_t lane;
  InterpFrameBase base;
  std::uint64_t def = 0;
  std::uint64_t address = 0;
  std::uint64_t stored = 0;

  std::int64_t g(std::uint32_t slot) const {
    return static_cast<std::int64_t>(lanes.laneBits(lane, 0, base.gp + slot));
  }
  double f(std::uint32_t slot) const {
    return std::bit_cast<double>(lanes.laneBits(lane, 1, base.fp + slot));
  }
  std::uint8_t p(std::uint32_t slot) const {
    return static_cast<std::uint8_t>(lanes.laneBits(lane, 2, base.pr + slot));
  }
  void setG(std::uint32_t, std::int64_t value) {
    def = static_cast<std::uint64_t>(value);
  }
  void setF(std::uint32_t, double value) {
    def = std::bit_cast<std::uint64_t>(value);
  }
  void setP(std::uint32_t, std::uint8_t value) { def = value; }
  TrapKind load(std::uint32_t, std::uint64_t at, std::uint32_t width,
                std::uint64_t& value) {
    address = at;
    const TrapKind trap = lanes.in.memory.accessTrap(at, width);
    if (trap == TrapKind::kNone) {
      // The lane's view: golden's current memory overlaid with its words.
      const std::uint64_t bits = lanes.laneWord(lane, at & ~7ULL);
      value = width == 8 ? bits : (bits >> (8 * (at & 7))) & 0xFF;
    }
    return trap;
  }
  TrapKind store(std::uint32_t, std::uint64_t at, std::uint32_t width,
                 std::uint64_t value) {
    address = at;
    stored = value;
    return lanes.in.memory.accessTrap(at, width);
  }
};

// Lanes address the bytes of a memory word by shifting, which matches
// memory order only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

// `word` after a store of `width` bytes of `value` at `at` (inside it).
std::uint64_t storedWord(std::uint64_t word, std::uint64_t at,
                         std::uint32_t width, std::uint64_t value) {
  if (width == 8) {
    return value;
  }
  const std::uint32_t shift = 8 * static_cast<std::uint32_t>(at & 7);
  return (word & ~(0xFFULL << shift)) | ((value & 0xFF) << shift);
}

void Lanes::begin(const std::vector<const FaultPlan*>& plans,
                  std::vector<LaneVerdict>& out) {
  if (open != 0) {
    // The last window was abandoned midway: its sets are not empty.
    for (std::uint32_t c = 0; c < 3; ++c) {
      std::fill(regMask[c].begin(), regMask[c].end(), LaneSet{});
      std::fill(regAny[c].begin(), regAny[c].end(), 0);
    }
    memIndex.clear();
    memSets.clear();
    freeSets.clear();
    std::fill(memAny.begin(), memAny.end(), 0);
    diffs = 0;
  }
  verdicts = &out;
  lanes.resize(plans.size());
  events.clear();
  for (std::uint32_t i = 0; i < plans.size(); ++i) {
    CASTED_CHECK(!plans[i]->points.empty()) << "empty fault plan";
    DiffMap diff = std::move(lanes[i].diff);  // keeps its allocation
    diff.clear();
    lanes[i] = Lane{};
    lanes[i].plan = plans[i];
    lanes[i].diff = std::move(diff);
    events.emplace_back(plans[i]->points[0].ordinal, i);
  }
  std::make_heap(events.begin(), events.end(), std::greater<>());
  open = plans.size();
  worst = 0;
  const std::uint64_t words =
      (in.memory.arenaEnd() - ir::Program::kGlobalBase + 7) / 8;
  if (words != memWords) {
    memWords = words;
    memAny.assign((memWords + 63) / 64, 0);
  }
  syncArenas();  // the entry frame
}

LaneView Lanes::view(const InterpFrameBase& base) const {
  LaneView v;
  for (std::uint32_t c = 0; c < 3; ++c) {
    v.regAny[c] = regAny[c].data() + slotBase(base, c);
  }
  v.memAny = memAny.data();
  v.memWords = memWords;
  return v;
}

std::uint64_t Lanes::nextOrdinal() const {
  return events.empty() ? kNoFault : events.front().first;
}

void Lanes::syncArenas() {
  const std::size_t sizes[3] = {in.gpStack.size(), in.fpStack.size(),
                                in.prStack.size()};
  for (std::uint32_t c = 0; c < 3; ++c) {
    if (regMask[c].size() < sizes[c]) {
      regMask[c].resize(sizes[c]);
      regAny[c].resize(sizes[c], 0);
    }
  }
}

inline std::uint64_t Lanes::goldenBits(std::uint32_t cls,
                                       std::uint32_t slot) const {
  switch (cls) {
    case 0:
      return static_cast<std::uint64_t>(in.gpStack[slot]);
    case 1:
      return std::bit_cast<std::uint64_t>(in.fpStack[slot]);
    default:
      return in.prStack[slot];
  }
}

inline std::uint64_t Lanes::laneBits(std::uint32_t lane, std::uint32_t cls,
                              std::uint32_t slot) const {
  return regMask[cls][slot].test(lane)
             ? lanes[lane].diff.at(DiffMap::regKey(cls, slot))
             : goldenBits(cls, slot);
}

const LaneSet* Lanes::wordLanes(std::uint64_t word) const {
  const std::uint64_t index = (word - ir::Program::kGlobalBase) >> 3;
  if (((memAny[index >> 6] >> (index & 63)) & 1) == 0) {
    return nullptr;
  }
  return &memSets[memIndex.at(word)];
}

bool Lanes::hasWord(std::uint32_t lane, std::uint64_t word) const {
  const LaneSet* set = wordLanes(word);
  return set != nullptr && set->test(lane);
}

// Adds or removes `lane` from the lanes of `word`.
void Lanes::markWord(std::uint32_t lane, std::uint64_t word, bool differs) {
  const std::uint64_t index = (word - ir::Program::kGlobalBase) >> 3;
  std::uint64_t& bits = memAny[index >> 6];
  const std::uint64_t bit = 1ULL << (index & 63);
  if (differs) {
    if ((bits & bit) == 0) {
      std::uint32_t set = static_cast<std::uint32_t>(memSets.size());
      if (freeSets.empty()) {
        memSets.emplace_back();
      } else {
        set = freeSets.back();
        freeSets.pop_back();
      }
      memIndex.put(word, set);
      bits |= bit;
    }
    memSets[memIndex.at(word)].set(lane);
  } else if ((bits & bit) != 0) {
    const std::uint32_t set = static_cast<std::uint32_t>(memIndex.at(word));
    memSets[set].reset(lane);
    if (!memSets[set].any()) {
      memIndex.erase(word);
      freeSets.push_back(set);
      bits &= ~bit;
    }
  }
}

std::uint64_t Lanes::laneWord(std::uint32_t lane, std::uint64_t word) const {
  return hasWord(lane, word) ? lanes[lane].diff.at(DiffMap::wordKey(word))
                             : in.memory.peekWord(word);
}

// Records the lane's value of a register, as a diff iff it differs from
// the golden stream's value there, `golden`.
inline void Lanes::setReg(std::uint32_t lane, std::uint32_t cls,
                          std::uint32_t slot, std::uint64_t bits,
                          std::uint64_t golden) {
  LaneSet& mask = regMask[cls][slot];
  const std::uint64_t key = DiffMap::regKey(cls, slot);
  if (bits != golden) {
    diffs += lanes[lane].diff.put(key, bits) ? 1 : 0;
    mask.set(lane);
    regAny[cls][slot] = 1;
  } else if (mask.test(lane)) {
    lanes[lane].diff.erase(key);
    --diffs;
    mask.reset(lane);
    regAny[cls][slot] = mask.any() ? 1 : 0;
  }
}

// The same for an aligned memory word.
void Lanes::setWord(std::uint32_t lane, std::uint64_t word,
                    std::uint64_t bits, std::uint64_t golden) {
  const std::uint64_t key = DiffMap::wordKey(word);
  if (bits != golden) {
    diffs += lanes[lane].diff.put(key, bits) ? 1 : 0;
    markWord(lane, word, true);
  } else if (hasWord(lane, word)) {
    lanes[lane].diff.erase(key);
    --diffs;
    markWord(lane, word, false);
  }
}

// Counts one op of lane work; false when the lane ran out of budget (and
// was sent back).
inline bool Lanes::chargeLaneOp(std::uint32_t lane, std::uint64_t insns) {
  Lane& l = lanes[lane];
  ++l.laneOps;
  if (l.laneOps > kLaneOpGrace &&
      l.laneOps * kLaneOpCost > insns - l.injectedAt) {
    decide(lane, LaneEnd::kFallbackBudget, insns);
    return false;
  }
  return true;
}

void Lanes::markDiverged(std::uint32_t lane) {
  Lane& l = lanes[lane];
  if (!l.diverged) {
    l.diverged = true;
    l.boundStart = in.stats.cycles;
    l.worstBefore = worst;
  }
}

// Ends a lane.  An exact decision of a lane whose address once differed
// stands only if its cycle bound kept it under the watchdog until now.
void Lanes::decide(std::uint32_t lane, LaneEnd end, std::uint64_t insns,
                   bool corrupt) {
  Lane& l = lanes[lane];
  if (!isFallback(end) && l.diverged &&
      l.boundStart + (worst - l.worstBefore) > in.options.maxCycles) {
    end = LaneEnd::kFallbackTiming;
  }
  LaneVerdict& v = (*verdicts)[lane];
  v.end = end;
  v.corrupt = corrupt;
  v.dynamicInsns = insns;
  v.laneOps = l.laneOps;
  diffs -= l.diff.size();
  l.diff.drain([&](std::uint64_t key, std::uint64_t) {
    if (DiffMap::isWordKey(key)) {
      markWord(lane, key & ((1ULL << 60) - 1), false);
    } else {
      const std::uint32_t cls = static_cast<std::uint32_t>(key >> 60);
      const std::uint32_t slot = static_cast<std::uint32_t>(key);
      regMask[cls][slot].reset(lane);
      regAny[cls][slot] = regMask[cls][slot].any() ? 1 : 0;
    }
  });
  l.state = State::kDone;
  --open;
}

// A live lane whose diffs all died with no flip pending is the golden run
// from here on; it waits for the stream's end, which decides it.
inline void Lanes::noteReconverged(std::uint32_t lane) {
  Lane& l = lanes[lane];
  if (l.state == State::kLive && l.diff.empty() &&
      l.cursor == l.plan->points.size()) {
    l.state = State::kReconverged;
  }
}

bool Lanes::step(const MicroOp& u, std::uint32_t node,
                 const InterpFrameBase& base, std::uint64_t insns) {
  LaneSet touched;
  const std::uint32_t field[3] = {u.a, u.b, u.c};
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t cls = u.useClass[i];
    if (cls != MicroOp::kNoUse) {
      touched |= regMask[cls][slotBase(base, cls) + field[i]];
    }
  }
  if (u.op == Opcode::kBrCond) {
    // Golden predicates are 0/1, so a differing one takes the other edge.
    touched.forEach([&](std::uint32_t lane) {
      decide(lane, LaneEnd::kFallbackControl, insns);
    });
    return open == 0;
  }
  const bool hasDef = u.defCount == 1 && u.op != Opcode::kCall;
  const std::uint32_t defSlot = slotBase(base, u.defClass) + u.def;
  if (hasDef) {
    touched |= regMask[u.defClass][defSlot];
  }
  GoldenPeek golden{in, base};
  const OpEval goldenEval = evalOp(u, node, golden);
  CASTED_CHECK(goldenEval.status == OpStatus::kOk)
      << "the golden stream cannot trap, detect or branch in a lane step";
  const bool memoryOp = isMemOp(u.op);
  const bool storeOp = memoryOp && (u.op == Opcode::kStore ||
                                    u.op == Opcode::kStoreB ||
                                    u.op == Opcode::kFStore);
  const std::uint32_t width = u.op == Opcode::kLoadB || u.op == Opcode::kStoreB
                                  ? 1
                                  : 8;
  const std::uint64_t goldenWord = golden.address & ~7ULL;
  if (memoryOp) {
    if (const LaneSet* set = wordLanes(goldenWord)) {
      touched |= *set;
    }
  }

  touched.forEach([&](std::uint32_t lane) {
    if (!chargeLaneOp(lane, insns)) {
      return;
    }
    LaneAccess access{*this, lane, base};
    const OpEval eval = evalOp(u, node, access);
    if (eval.status == OpStatus::kDetect) {
      decide(lane, LaneEnd::kDetected, insns);
      return;
    }
    if (eval.status == OpStatus::kTrap) {
      decide(lane, LaneEnd::kException, insns);
      return;
    }
    if (memoryOp && access.address != golden.address) {
      markDiverged(lane);  // its cache sees another line from here on
    }
    // The golden stream writes after this step, so the lane's results are
    // compared against golden's results of this op, not its memory.
    if (hasDef) {
      setReg(lane, u.defClass, defSlot, access.def, golden.def);
    }
    if (storeOp) {
      // After both stores, the lane keeps its own bytes at golden's address
      // (unless it wrote there too), and its word at its own address holds
      // what it wrote.
      const std::uint64_t laneWordAddr = access.address & ~7ULL;
      const std::uint64_t words[2] = {laneWordAddr, goldenWord};
      for (int k = 0; k < (laneWordAddr == goldenWord ? 1 : 2); ++k) {
        const std::uint64_t word = words[k];
        std::uint64_t laneValue = laneWord(lane, word);
        if (word == laneWordAddr) {
          laneValue = storedWord(laneValue, access.address, width,
                                 access.stored);
        }
        std::uint64_t goldenValue = in.memory.peekWord(word);
        if (word == goldenWord) {
          goldenValue = storedWord(goldenValue, golden.address, width,
                                   golden.stored);
        }
        setWord(lane, word, laneValue, goldenValue);
      }
    }
    noteReconverged(lane);
  });
  return open == 0;
}

void Lanes::onDef(const MicroOp& u, const InterpFrameBase& base,
                  std::uint64_t insns) {
  while (!events.empty() && events.front().first == in.defOrdinal) {
    const std::uint32_t lane = events.front().second;
    std::pop_heap(events.begin(), events.end(), std::greater<>());
    events.pop_back();
    Lane& l = lanes[lane];
    const FaultPoint& point = l.plan->points[l.cursor++];
    if (l.state == State::kDone) {
      continue;
    }
    if (l.state == State::kDormant) {
      l.state = State::kLive;
      l.injectedAt = insns;
    }
    if (l.cursor < l.plan->points.size()) {
      events.emplace_back(l.plan->points[l.cursor].ordinal, lane);
      std::push_heap(events.begin(), events.end(), std::greater<>());
    }
    const DecodedReg target = in.faultTarget(u, point);
    const std::uint32_t slot = slotBase(base, target.cls) + target.slot;
    setReg(lane, target.cls, slot,
           flipBits(target.cls, laneBits(lane, target.cls, slot), point.bit),
           goldenBits(target.cls, slot));
    noteReconverged(lane);
  }
  in.nextFaultOrdinal = nextOrdinal();
}

// The value a call argument or returned value takes in a register of class
// `cls` (Interp::writeBits's conversion).
std::uint64_t asClass(std::uint32_t cls, std::uint64_t bits) {
  return cls == static_cast<std::uint32_t>(RegClass::kPr) ? (bits != 0 ? 1 : 0)
                                                          : bits;
}

// A call's arguments or a return's values: the registers listed at `from`
// in frame `src` are copied to those listed at `to` in frame `dst`.  A lane
// that differs at either end takes its own value across.
void Lanes::onMove(const DecodedReg* from, const InterpFrameBase& src,
                   const DecodedReg* to, const InterpFrameBase& dst,
                   std::uint32_t count, std::uint64_t insns) {
  if (diffs == 0) {
    return;
  }
  LaneSet touched;
  for (std::uint32_t i = 0; i < count; ++i) {
    touched |= regMask[from[i].cls][slotBase(src, from[i].cls) + from[i].slot];
    touched |= regMask[to[i].cls][slotBase(dst, to[i].cls) + to[i].slot];
  }
  touched.forEach([&](std::uint32_t lane) {
    if (!chargeLaneOp(lane, insns)) {
      return;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t slot = slotBase(dst, to[i].cls) + to[i].slot;
      setReg(lane, to[i].cls, slot,
             asClass(to[i].cls,
                     laneBits(lane, from[i].cls,
                              slotBase(src, from[i].cls) + from[i].slot)),
             goldenBits(to[i].cls, slot));
    }
    noteReconverged(lane);
  });
}

// The popped frame's slots are dead (the next push zeroes them), so no lane
// keeps a diff there: a new frame never inherits one.
void Lanes::onPop(const InterpFrameBase& base) {
  if (diffs == 0) {
    return;
  }
  const std::size_t tops[3] = {in.gpStack.size(), in.fpStack.size(),
                               in.prStack.size()};
  LaneSet touched;
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (std::size_t slot = slotBase(base, c); slot < tops[c]; ++slot) {
      if (regAny[c][slot] == 0) {
        continue;
      }
      const std::uint64_t key =
          DiffMap::regKey(c, static_cast<std::uint32_t>(slot));
      regMask[c][slot].forEach(
          [&](std::uint32_t lane) {
            lanes[lane].diff.erase(key);
            --diffs;
          });
      touched |= regMask[c][slot];
      regMask[c][slot] = LaneSet{};
      regAny[c][slot] = 0;
    }
  }
  touched.forEach([&](std::uint32_t lane) { noteReconverged(lane); });
}

// Whether the lane's output symbol, golden's overlaid with its words,
// differs from golden's.
bool Lanes::outputDiffers(std::uint32_t lane) const {
  const ir::GlobalSymbol* output = nullptr;
  for (const ir::GlobalSymbol& sym : in.prog.symbols()) {
    if (sym.name == in.options.outputSymbol) {
      output = &sym;
      break;
    }
  }
  if (output == nullptr) {
    return false;
  }
  bool differs = false;
  lanes[lane].diff.forEach([&](std::uint64_t key, std::uint64_t bits) {
    if (!DiffMap::isWordKey(key)) {
      return;
    }
    const std::uint64_t word = key & ((1ULL << 60) - 1);
    const std::uint64_t golden = in.memory.peekWord(word);
    for (std::uint64_t byte = 0; byte < 8; ++byte) {
      const std::uint64_t at = word + byte;
      if (at >= output->address && at < output->address + output->size &&
          ((bits ^ golden) >> (8 * byte) & 0xFF) != 0) {
        differs = true;
      }
    }
  });
  return differs;
}

void Lanes::finish(std::optional<std::uint32_t> exitSlot,
                   std::int64_t exitCode, std::uint64_t insns) {
  for (std::uint32_t lane = 0; lane < lanes.size(); ++lane) {
    const Lane& l = lanes[lane];
    if (l.state == State::kDone) {
      continue;
    }
    if (l.state == State::kReconverged) {
      decide(lane, LaneEnd::kReconverged, insns);
      continue;
    }
    const bool exitDiffers =
        exitSlot.has_value() &&
        static_cast<std::int64_t>(laneBits(lane, 0, *exitSlot)) != exitCode;
    decide(lane, LaneEnd::kHalted, insns, exitDiffers || outputDiffers(lane));
  }
}

// The golden stream's watchdog expired.  A lane on golden's addresses has
// golden's cycles, so it times out here too; any other lane's cycles are
// unknown.
void Lanes::timeout(std::uint64_t insns) {
  for (std::uint32_t lane = 0; lane < lanes.size(); ++lane) {
    if (lanes[lane].state != State::kDone) {
      decide(lane,
             lanes[lane].diverged ? LaneEnd::kFallbackTiming
                                  : LaneEnd::kTimeout,
             insns);
    }
  }
}

}  // namespace

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
  trace::counterAdd("sim.checkpoint.saves");
  impl_->saveCheckpoint(*out.data_);
}

void DecodedRunner::restoreCheckpoint(const ArchCheckpoint& checkpoint) {
  CASTED_CHECK(checkpoint.data_ != nullptr) << "checkpoint was never saved";
  trace::counterAdd("sim.checkpoint.restores");
  impl_->restoreCheckpoint(*checkpoint.data_);
}

void DecodedRunner::injectAtPause(const FaultPlan& plan) {
  impl_->injectAtPause(plan);
}

RunResult DecodedRunner::finish() {
  CASTED_CHECK(impl_->stepMode) << "finish requires begin()";
  return impl_->finish();
}

void DecodedRunner::runLockstep(const SimOptions& options,
                                const std::vector<const FaultPlan*>& plans,
                                std::vector<LaneVerdict>& verdicts) {
  impl_->runLanes(options, plans, verdicts);
}

RunResult runDecoded(const DecodedProgram& program, const SimOptions& options) {
  return DecodedRunner(program).run(options);
}

}  // namespace casted::sim
