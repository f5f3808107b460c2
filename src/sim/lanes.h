// The lockstep lanes (DESIGN.md §10): concurrent fault simulation (Ulrich &
// Baker) of fault plans over one golden stream, at most
// DecodedRunner::kMaxLanes of them live at once.  A plan takes a lane slot
// at its first flip and frees it when it is decided.  A lane holds only its
// pending flips and the locations (register slots and aligned memory words)
// where its values differ from the golden run's; the golden stream (the
// decoded interpreter's exec<true>, decoded.cpp) raises the events below,
// and the lanes read golden's state only through a GoldenView.
//
// Invariant: a live lane's architectural state is the golden stream's state
// overlaid with its diffs: the locations whose SlotDiffs name it, register
// slots by absolute arena slot and memory words by their index in the
// arena, one store for both.  Its control flow and def ordinals are the
// golden stream's.  Every event preserves it, or ends the lane.
//
// The per-op test (LaneView::touches), the "any diffs" guards and the
// per-block charge are inline here, so the stream pays no call per op.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/cache.h"
#include "sim/decoded.h"
#include "sim/memory.h"
#include "sim/op_kernel.h"
#include "support/check.h"

namespace casted::sim {

inline constexpr std::uint64_t kNoFault = ~0ULL;

// Arena bases of one call frame (slots below these belong to callers).
struct FrameBase {
  std::uint32_t gp = 0;
  std::uint32_t fp = 0;
  std::uint32_t pr = 0;
  std::uint32_t addr = 0;
};

inline std::uint32_t slotBase(const FrameBase& base, std::uint32_t cls) {
  return cls == 0 ? base.gp : cls == 1 ? base.fp : base.pr;
}

constexpr bool isMemOp(ir::Opcode op) {
  return op >= ir::Opcode::kLoad && op <= ir::Opcode::kFStore;
}

constexpr bool isStoreOp(ir::Opcode op) {
  return op == ir::Opcode::kStore || op == ir::Opcode::kStoreB ||
         op == ir::Opcode::kFStore;
}

// The fault semantics the plain interpreter's injectFault and the lanes
// share.  The register a fault point at op `u` flips: the call's chosen
// return def (from the operand pool), else the op's one def.
inline DecodedReg faultTarget(const MicroOp& u, const FaultPoint& point,
                              const DecodedReg* pool) {
  if (u.op == ir::Opcode::kCall) {
    return pool[u.c + point.whichDef % u.defCount];
  }
  return {u.defClass, u.def};
}

// `bits` of a register of class `cls` with a fault point's `bit` flipped; a
// predicate flips its one bit whatever `bit` says.
inline std::uint64_t flipBits(std::uint32_t cls, std::uint64_t bits,
                              std::uint32_t bit) {
  return cls == static_cast<std::uint32_t>(ir::RegClass::kPr)
             ? bits ^ 1
             : bits ^ (1ULL << (bit & 63));
}

// The golden stream's state as the lanes see it, read-only: the register
// and address arenas, memory, caches, cycle count and watchdog of the run,
// and the program (output range, operand pool, line sizes, cold
// penalty).  It refers to the interpreter's own members, so it stays
// valid for the interpreter's lifetime.
struct GoldenView {
  const std::vector<std::int64_t>& gp;
  const std::vector<double>& fp;
  const std::vector<std::uint8_t>& pr;
  const std::vector<std::uint64_t>& addr;  // each frame's memory-op addresses
  const Memory& memory;
  const CacheHierarchy& caches;
  const std::uint64_t& cycles;
  const std::uint64_t& maxCycles;  // the watchdog
  const DecodedProgram& prog;
};

// The golden stream's per-op test for lane work, over one frame: does `u`
// read a register, write a register or touch a memory word where some lane
// differs from the golden run?  Plain loads, no lane state walked.
struct LaneView {
  const std::uint32_t* regIndex[3] = {};  // Lanes::regIndex_[c] + frame base
  const std::uint64_t* memAny = nullptr;
  std::uint64_t memWords = 0;

  bool touches(const MicroOp& u, const std::int64_t* gp) const {
    const std::uint32_t field[3] = {u.a, u.b, u.c};
    for (int i = 0; i < 3; ++i) {
      if (u.useClass[i] != MicroOp::kNoUse &&
          regIndex[u.useClass[i]][field[i]] != 0) {
        return true;
      }
    }
    if (u.defCount == 1 && u.op != ir::Opcode::kCall &&
        regIndex[u.defClass][u.def] != 0) {
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

// A set of lane slots, one bit per slot.
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
  std::uint32_t count() const {
    std::uint32_t n = 0;
    for (const std::uint64_t word : w) {
      n += static_cast<std::uint32_t>(std::popcount(word));
    }
    return n;
  }
  bool test(std::uint32_t lane) const {
    return ((w[lane >> 6] >> (lane & 63)) & 1) != 0;
  }
  void set(std::uint32_t lane) { w[lane >> 6] |= 1ULL << (lane & 63); }
  void reset(std::uint32_t lane) { w[lane >> 6] &= ~(1ULL << (lane & 63)); }
  // The number of lanes in the set below `lane`.
  std::uint32_t rank(std::uint32_t lane) const {
    std::uint32_t below = 0;
    for (std::size_t i = 0; i < (lane >> 6); ++i) {
      below += static_cast<std::uint32_t>(std::popcount(w[i]));
    }
    return below + static_cast<std::uint32_t>(std::popcount(
                       w[lane >> 6] & ((1ULL << (lane & 63)) - 1)));
  }
  bool operator==(const LaneSet&) const = default;
  LaneSet& operator|=(const LaneSet& other) {
    for (std::size_t i = 0; i < kWords; ++i) {
      w[i] |= other.w[i];
    }
    return *this;
  }
  // The lanes of this set that `other` lacks.
  LaneSet minus(const LaneSet& other) const {
    LaneSet out;
    for (std::size_t i = 0; i < kWords; ++i) {
      out.w[i] = w[i] & ~other.w[i];
    }
    return out;
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

// The lanes that differ at one location, a register slot or a memory word,
// and their values there, packed in lane order: a lane's value is
// values[lanes.rank(lane)], and keyPos at the same rank is where the
// location's key sits in that lane's key list.
struct SlotDiffs {
  LaneSet lanes;
  std::vector<std::uint64_t> values;
  std::vector<std::uint32_t> keyPos;
};

// Memory word index -> 1 + the index of its SlotDiffs, for the words some
// lane differs at: open addressing with linear probing.
class WordMap {
 public:
  // The entry of `word`, which must be present.
  std::uint32_t at(std::uint32_t word) const {
    for (std::size_t i = home(word);; i = (i + 1) & mask_) {
      if (slots_[i].word == word) {
        return slots_[i].index;
      }
      CASTED_CHECK(slots_[i].word != kEmpty) << "lane diff has no such word";
    }
  }

  // Enters `word`, which must be absent.
  void put(std::uint32_t word, std::uint32_t index) {
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
    }
    std::size_t i = home(word);
    while (slots_[i].word != kEmpty) {
      i = (i + 1) & mask_;
    }
    slots_[i] = {word, index};
    ++size_;
  }

  // Backward-shift deletion: no tombstones, so lookups stay short.
  void erase(std::uint32_t word) {
    std::size_t i = home(word);
    while (slots_[i].word != word) {
      CASTED_CHECK(slots_[i].word != kEmpty) << "lane diff has no such word";
      i = (i + 1) & mask_;
    }
    for (std::size_t j = (i + 1) & mask_; slots_[j].word != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].word);
      // Move j's entry into the hole at i unless its home lies in (i, j].
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].word = kEmpty;
    --size_;
  }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~0U;
  struct Slot {
    std::uint32_t word = kEmpty;
    std::uint32_t index = 0;
  };

  std::size_t home(std::uint32_t word) const {
    return static_cast<std::size_t>((word * 0x9E3779B97F4A7C15ULL) >> 32) &
           mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.word != kEmpty) {
        put(slot.word, slot.index);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// The lockstep state of one golden stream (DecodedRunner::runLockstep): the
// lane slots, the stream's plans not yet armed, and the SlotDiffs of every
// location some lane differs at.  The golden stream calls step() before
// each op the LaneView flags, and the other events at defs (onDef), moves
// of call arguments and returned values (onMove), frame pops (onPop), block
// charges (chargeBlock) and its end (finish).  One Lanes lives as long as
// its interpreter and serves stream after stream: a stream ends with every
// plan decided or deferred and so every set empty, and begin() keeps the
// allocations.
class Lanes {
 public:
  explicit Lanes(const GoldenView& golden) : golden_(golden) {}

  // Starts a stream of plans[order[0]], plans[order[1]], ... (in
  // first-ordinal order) on the golden run, whose frames the prefix left.
  // Each plan takes a free slot at its first flip, or is deferred (see
  // deferred()) when none is free; plans[i]'s verdict goes to out[i].
  // `goldenInsns` is the golden run's instruction count: an undiverged
  // lane that reconverges is decided with it at once.
  void begin(const std::vector<const FaultPlan*>& plans,
             const std::vector<std::uint32_t>& order,
             std::vector<LaneVerdict>& out, std::uint64_t goldenInsns);
  // The plans of this stream that found no free slot at their first flip,
  // in first-ordinal order: a later stream decides them.
  const std::vector<std::uint32_t>& deferred() const { return deferred_; }

  LaneView view(const FrameBase& base) const {
    return {{regIndex_[0].data() + base.gp, regIndex_[1].data() + base.fp,
             regIndex_[2].data() + base.pr},
            memAny_.data(),
            memWords_};
  }

  // Grows the slot index to golden's arenas (after a frame push).
  void syncArenas() {
    const std::size_t sizes[3] = {golden_.gp.size(), golden_.fp.size(),
                                  golden_.pr.size()};
    for (std::uint32_t c = 0; c < 3; ++c) {
      if (regIndex_[c].size() < sizes[c]) {
        regIndex_[c].resize(sizes[c], 0);
      }
    }
  }

  bool hasDiffs() const { return diffs_ != 0; }
  // Every plan of the stream is decided or deferred.
  bool allDecided() const { return open_ == 0 && diffs_ == 0; }
  // Golden ops (steps and moves) of this stream that evaluated some lane.
  std::uint64_t laneSteps() const { return laneSteps_; }
  // This stream's lane ops by the opcode of the golden op that evaluated
  // them (a move counts under its kCall or kRet).
  const OpcodeCounts& laneOpsByOpcode() const { return opLaneOps_; }

  // Events of the golden stream; `insns` is its instruction count so far.
  // An op the LaneView flags is bracketed: capture() runs before golden
  // executes it and keeps golden's operands (and a store's word before the
  // store); step() runs after, reads golden's result and address from the
  // arenas, and returns whether every lane is now decided.
  void capture(const MicroOp& u, const FrameBase& base) {
    const std::uint32_t field[3] = {u.a, u.b, u.c};
    for (int i = 0; i < 3; ++i) {
      const std::uint32_t cls = u.useClass[i];
      if (cls != MicroOp::kNoUse) {
        goldenUse_[i] = goldenBits(cls, slotBase(base, cls) + field[i]);
      }
    }
    if (isStoreOp(u.op)) {
      const std::uint64_t word =
          kernel::address(golden_.gp[base.gp + u.a], u.imm) & ~7ULL;
      // A trapping golden store ends the stream before step() reads this.
      if (golden_.memory.accessTrap(word, 1) == TrapKind::kNone) {
        goldenStoreWord_ = golden_.memory.peekWord(word);
      }
    }
  }
  bool step(const MicroOp& u, std::uint32_t node, const FrameBase& base,
            std::uint64_t insns);
  // Def ordinal `ordinal` is a flip of some lane or the first flip of some
  // plan; returns the next one.
  std::uint64_t onDef(const MicroOp& u, const FrameBase& base,
                      std::uint64_t ordinal, std::uint64_t insns);
  // Golden's op `op` (kCall or kRet) copied the registers listed at `from`
  // in frame `src` to those at `to` in frame `dst`: call arguments or
  // returned values.
  void onMove(ir::Opcode op, const DecodedReg* from, const FrameBase& src,
              const DecodedReg* to, const FrameBase& dst,
              std::uint32_t count) {
    if (diffs_ != 0) {
      moveDiffs(op, from, src, to, dst, count);
    }
  }
  // Golden pops the frame at `base`.
  void onPop(const FrameBase& base) {
    if (diffs_ != 0) {
      dropFrame(base);
    }
  }
  void chargeBlock(const DecodedBlock& blk) {
    warm_ += blk.warmCycles;
    bundles_ += blk.plan.bundleSizes.size();
  }
  // The golden run halted (exitSlot: the gp slot kHalt read its code from;
  // none for an entry return): every open lane is decided, and so is every
  // plan whose first flip never came.
  void finish(std::optional<std::uint32_t> exitSlot, std::int64_t exitCode,
              std::uint64_t insns);

 private:
  static constexpr std::size_t kMaxLanes = DecodedRunner::kMaxLanes;
  static constexpr std::uint32_t kNoLane = ~0U;
  enum class State : std::uint8_t { kFree, kLive, kReconverged };

  // What step() reads of a lane only when it is decided, flipped, diverges
  // or gains or loses a diff; the per-op counters are the structure of
  // arrays below.  arm() sets every field for the plan taking the slot.
  struct Lane {
    const FaultPlan* plan = nullptr;
    std::uint32_t index = 0;  // the plan's index: where its verdict goes
    std::size_t cursor = 0;   // next point of `plan` to fire
    bool diverged = false;   // an access left golden's line: bound live
    std::uint64_t boundStart = 0;    // golden cycles at the first such access
    std::uint64_t warmBefore = 0;     // `warm_` at that point
    std::uint64_t bundlesBefore = 0;  // `bundles_` at that point
    std::uint64_t missesBefore = 0;   // golden's memory accesses then
    // The lane's accesses off golden's line to a line golden's last level
    // lacked.
    std::uint64_t ownCold = 0;
    // The locations the lane differs at (key()), in no order: kept on a
    // diff's appearance and death only (a death swaps the back key into
    // the hole), walked when the lane ends (which empties it).
    std::vector<std::uint64_t> keys;
  };

  // A lane's address and stored value at a step's store, committed after
  // every touched lane was evaluated.
  struct LaneAccess {
    std::uint32_t lane = 0;
    std::uint64_t address = 0;
    std::uint64_t stored = 0;
  };

  // The kernels' access for one lane (lanes.cpp).
  struct Access;

  // One step's batch.  step() fills the inputs once: the touched lanes,
  // each use slot's differing lanes and packed values (kNone and null for
  // a slot no lane differs at, or no use), golden's result and (memory
  // ops) the line of golden's address.  evalLanes<kOp> writes all of the
  // outputs: the lanes that detected, trapped or now differ from golden
  // in the def (their `defs` results, in lane order, in defValues_), and
  // a store's `accesses` (in accesses_).
  struct Batch {
    LaneSet touched;
    const LaneSet* useLanes[3] = {};
    const std::uint64_t* useValues[3] = {};
    bool hasDef = false;
    std::uint64_t goldenDef = 0;
    std::uint64_t goldenLine = 0;

    LaneSet detected, trapped, differs;
    bool ends = false;  // some lane detected or trapped
    std::uint32_t evaluated = 0;
    std::uint32_t defs = 0;
    std::size_t accesses = 0;
  };

  // A location is a register slot (class 0-2, absolute arena slot `at`)
  // or an aligned memory word (kWordClass, `at` its index in the arena).
  static constexpr std::uint32_t kWordClass = 3;
  static std::uint32_t wordAt(std::uint64_t address) {
    return static_cast<std::uint32_t>((address - ir::Program::kGlobalBase) >>
                                      3);
  }
  static std::uint64_t wordAddress(std::uint32_t at) {
    return ir::Program::kGlobalBase + (static_cast<std::uint64_t>(at) << 3);
  }
  static std::uint64_t key(std::uint32_t cls, std::uint32_t at) {
    return (static_cast<std::uint64_t>(cls) << 32) | at;
  }

  void moveDiffs(ir::Opcode op, const DecodedReg* from,
                 const FrameBase& src, const DecodedReg* to,
                 const FrameBase& dst, std::uint32_t count);
  // Runs opKernel<kOp> for every lane of batch_.
  template <ir::Opcode kOp>
  void evalLanes(const MicroOp& u, std::uint32_t node);
  void dropFrame(const FrameBase& base);

  // 0, or 1 + the index of the location's SlotDiffs.
  std::uint32_t indexOf(std::uint32_t cls, std::uint32_t at) const {
    if (cls != kWordClass) {
      return regIndex_[cls][at];
    }
    return ((memAny_[at >> 6] >> (at & 63)) & 1) != 0 ? memIndex_.at(at) : 0;
  }
  void setIndex(std::uint32_t cls, std::uint32_t at, std::uint32_t index);
  LaneSet lanesAt(std::uint32_t cls, std::uint32_t at) const {
    const std::uint32_t index = indexOf(cls, at);
    return index == 0 ? LaneSet{} : slots_[index - 1].lanes;
  }
  std::uint32_t newSlotDiffs(std::uint32_t cls, std::uint32_t at);
  void freeSlotDiffs(std::uint32_t cls, std::uint32_t at);
  void eraseValue(std::uint32_t lane, std::uint32_t cls, std::uint32_t at);
  std::uint32_t addDiff(std::uint32_t lane, std::uint32_t cls,
                        std::uint32_t at);
  void dropDiff(std::uint32_t lane, std::uint32_t pos);
  void writeDef(std::uint32_t cls, std::uint32_t slot, const LaneSet& after,
                std::uint32_t defs);
  void writeDefLanes(std::uint32_t cls, std::uint32_t slot,
                     const LaneSet& after, std::uint32_t defs);

  // `lane`'s value at a location: its diff there, else `golden`.
  std::uint64_t laneBits(std::uint32_t lane, std::uint32_t cls,
                         std::uint32_t at, std::uint64_t golden) const;
  std::uint64_t goldenBits(std::uint32_t cls, std::uint32_t slot) const {
    return cls == 0   ? static_cast<std::uint64_t>(golden_.gp[slot])
           : cls == 1 ? std::bit_cast<std::uint64_t>(golden_.fp[slot])
                      : golden_.pr[slot];
  }
  void setBits(std::uint32_t lane, std::uint32_t cls, std::uint32_t at,
               std::uint64_t bits, std::uint64_t golden);
  // Gives plans[plan] a free slot at its first flip.
  void arm(std::uint32_t plan, std::uint64_t insns);
  // Applies `lane`'s next flip to the def of `u`.
  void flip(std::uint32_t lane, const MicroOp& u, const FrameBase& base);
  void decide(std::uint32_t lane, LaneEnd end, std::uint64_t insns,
              bool corrupt = false);
  void dropLanes(const LaneSet& dying);
  // A lane's memory op accessed `address`.  Every level's line holds the
  // smallest one, so an access inside golden's smallest line (`goldenLine`,
  // golden's address >> lineShift) touches golden's line at every level;
  // the first access outside it starts the lane's cycle bound, as its
  // cache sees another line from here on.  An access outside it to a line
  // golden's last level lacks may be one of the lane's cold misses.
  void noteLine(std::uint32_t lane, std::uint64_t address,
                std::uint64_t goldenLine) {
    if ((address >> golden_.prog.lineShift()) == goldenLine) {
      return;
    }
    Lane& l = lanes_[lane];
    if (!l.diverged) {
      l.diverged = true;
      l.boundStart = golden_.cycles;
      l.warmBefore = warm_;
      l.bundlesBefore = bundles_;
      l.missesBefore = golden_.caches.memoryAccesses();
    }
    if (!goldenHolds(address)) {
      ++l.ownCold;
    }
  }
  // Whether golden's last level holds the line of `address`, when it
  // keeps the arena: then it holds exactly the lines of golden's memory
  // accesses, which `resident_` marks up to `residentSynced_`.  (When it
  // can evict, the answer is unused: the cold penalty is 0.)
  bool goldenHolds(std::uint64_t address) {
    const std::vector<std::uint64_t>& log = golden_.caches.memoryAccessLog();
    for (; residentSynced_ < log.size(); ++residentSynced_) {
      const std::uint64_t line = residentLine(log[residentSynced_]);
      resident_[line >> 6] |= 1ULL << (line & 63);
    }
    const std::uint64_t line = residentLine(address);
    return ((resident_[line >> 6] >> (line & 63)) & 1) != 0;
  }
  // The index of an arena address's last-level line.
  std::uint64_t residentLine(std::uint64_t address) const {
    return (address >> residentShift_) -
           (ir::Program::kGlobalBase >> residentShift_);
  }
  // The most cycles the lane can have run from the block where its bound
  // started up to the last charged block (see decide()).
  std::uint64_t cycleBound(const Lane& l) const;
  void noteReconverged(std::uint32_t lane);

  const GoldenView golden_;
  // By slot (begin() sizes lanes_): the lane, its state, lane ops and
  // golden instructions at its first flip; the free slots.
  std::vector<Lane> lanes_;
  std::array<State, kMaxLanes> state_{};
  std::array<std::uint64_t, kMaxLanes> laneOps_{};
  std::array<std::uint64_t, kMaxLanes> injectedAt_{};
  std::vector<std::uint32_t> freeLanes_;
  // The stream's plans (begin()): plans_[order_[pending_]] is the next to
  // take a slot; laneOf_ maps a plan's index to its slot (kNoLane while it
  // has none: not armed yet, deferred or decided).
  const std::vector<const FaultPlan*>* plans_ = nullptr;
  const std::vector<std::uint32_t>* order_ = nullptr;
  std::size_t pending_ = 0;
  std::vector<std::uint32_t> laneOf_;
  std::vector<std::uint32_t> deferred_;
  std::vector<LaneVerdict>* verdicts_ = nullptr;
  std::uint64_t goldenInsns_ = 0;
  // By absolute arena slot: 0, or 1 + the index of the slot's SlotDiffs.
  std::vector<std::uint32_t> regIndex_[3];
  std::vector<SlotDiffs> slots_;
  std::vector<std::uint32_t> freeSlots_;
  // By memory word index, the same for the words whose memAny_ bit (one per
  // arena word) is set.
  WordMap memIndex_;
  std::vector<std::uint64_t> memAny_;
  std::uint64_t memWords_ = 0;
  // The armed lanes' later flips as a min-heap on the ordinal: (ordinal,
  // plan index); a decided plan's flips are dropped as they come up.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> events_;
  // step() scratch, reused from step to step: the batch, a store's
  // accesses, and the def's packed values (copied into the slot's).
  Batch batch_;
  std::array<LaneAccess, kMaxLanes> accesses_;
  std::array<std::uint64_t, kMaxLanes> defValues_;
  // writeDefLanes' key positions (swapped with the slot's, so both keep
  // their allocations).
  std::vector<std::uint32_t> defKeyPos_;
  // What capture() kept of the golden op step() follows.
  std::uint64_t goldenUse_[3] = {};
  std::uint64_t goldenStoreWord_ = 0;
  // Over the charged blocks: the sum of their warmCycles, and of their
  // memory bundles.
  std::uint64_t warm_ = 0;
  std::uint64_t bundles_ = 0;
  // A bit per arena line of the last level (log2 of its size:
  // residentShift_) for goldenHolds().
  std::vector<std::uint64_t> resident_;
  std::size_t residentSynced_ = 0;
  std::uint32_t residentShift_ = 0;
  std::uint64_t laneSteps_ = 0;
  OpcodeCounts opLaneOps_{};
  std::size_t diffs_ = 0;    // diffs over all lanes
  std::size_t open_ = 0;     // plans of the stream not decided or deferred
};

}  // namespace casted::sim
