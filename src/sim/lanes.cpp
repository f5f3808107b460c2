#include "sim/lanes.h"

#include <algorithm>
#include <functional>

namespace casted::sim {

namespace {

using ir::Opcode;

// `word` after a store of `width` bytes of `value` at `at` (inside it).
std::uint64_t storedWord(std::uint64_t word, std::uint64_t at,
                         std::uint32_t width, std::uint64_t value) {
  if (width == 8) {
    return value;
  }
  const std::uint32_t shift = 8 * static_cast<std::uint32_t>(at & 7);
  return (word & ~(0xFFULL << shift)) | ((value & 0xFF) << shift);
}

// Lanes address the bytes of a memory word by shifting, which matches
// memory order only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

}  // namespace

const char* laneEndName(LaneEnd end) {
  static constexpr const char* kNames[kLaneEndCount] = {
      "detected", "exception", "halt", "reconverged", "control", "timing"};
  return kNames[static_cast<std::size_t>(end)];
}

// The kernels' access for one lane: the op's register operands by
// position, gathered before the kernel runs, and the lane's view of
// memory, golden's overlaid with its word diffs.  It writes nothing;
// step() commits what it captured.
struct Lanes::Access {
  const Lanes& lanes;
  std::uint32_t lane;
  std::uint64_t use[3] = {};  // bits of the register operands a, b, c
  std::uint64_t def = 0;      // bits of the op's result
  std::uint64_t address = 0;  // of a load or store
  std::uint64_t stored = 0;   // value of a store

  template <int I>
  std::int64_t g(const MicroOp&, kernel::Use<I>) const {
    return static_cast<std::int64_t>(use[I]);
  }
  template <int I>
  double f(const MicroOp&, kernel::Use<I>) const {
    return std::bit_cast<double>(use[I]);
  }
  template <int I>
  std::uint8_t p(const MicroOp&, kernel::Use<I>) const {
    return static_cast<std::uint8_t>(use[I]);
  }
  void setG(const MicroOp&, std::int64_t value) {
    def = static_cast<std::uint64_t>(value);
  }
  void setF(const MicroOp&, double value) {
    def = std::bit_cast<std::uint64_t>(value);
  }
  void setP(const MicroOp&, std::uint8_t value) { def = value; }
  TrapKind load(std::uint32_t, std::uint64_t at, std::uint32_t width,
                std::uint64_t& value) {
    address = at;
    const TrapKind trap = lanes.golden_.memory.accessTrap(at, width);
    if (trap == TrapKind::kNone) {
      const std::uint64_t word =
          lanes.laneBits(lane, kWordClass, wordAt(at),
                         lanes.golden_.memory.peekWord(at & ~7ULL));
      value = width == 8 ? word : (word >> (8 * (at & 7))) & 0xFF;
    }
    return trap;
  }
  TrapKind store(std::uint32_t, std::uint64_t at, std::uint32_t width,
                 std::uint64_t value) {
    address = at;
    stored = value;
    return lanes.golden_.memory.accessTrap(at, width);
  }
};

void Lanes::begin(const std::vector<const FaultPlan*>& plans,
                  const std::vector<std::uint32_t>& order,
                  std::vector<LaneVerdict>& out, std::uint64_t goldenInsns) {
  if (open_ != 0) {
    // The last stream was abandoned midway: its sets are not empty.
    for (std::uint32_t c = 0; c < 3; ++c) {
      std::fill(regIndex_[c].begin(), regIndex_[c].end(), 0);
    }
    freeSlots_.clear();
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      slots_[i].lanes = LaneSet{};
      slots_[i].values.clear();
      slots_[i].keyPos.clear();
      freeSlots_.push_back(i);
    }
    memIndex_.clear();
    std::fill(memAny_.begin(), memAny_.end(), 0);
    for (Lane& l : lanes_) {
      l.keys.clear();
    }
    diffs_ = 0;
  }
  lanes_.resize(kMaxLanes);
  plans_ = &plans;
  order_ = &order;
  pending_ = 0;
  verdicts_ = &out;
  goldenInsns_ = goldenInsns;
  laneOf_.assign(plans.size(), kNoLane);
  deferred_.clear();
  events_.clear();
  state_.fill(State::kFree);
  // Slot 0 is taken first.
  freeLanes_.resize(kMaxLanes);
  for (std::uint32_t i = 0; i < kMaxLanes; ++i) {
    freeLanes_[i] = static_cast<std::uint32_t>(kMaxLanes - 1 - i);
  }
  open_ = order.size();
  warm_ = 0;
  bundles_ = 0;
  laneSteps_ = 0;
  opLaneOps_.fill(0);
  const std::uint64_t words =
      (golden_.memory.arenaEnd() - ir::Program::kGlobalBase + 7) / 8;
  if (words != memWords_) {
    memWords_ = words;
    memAny_.assign((memWords_ + 63) / 64, 0);
  }
  residentShift_ = static_cast<std::uint32_t>(std::countr_zero(
      golden_.prog.cacheConfig().levels.back().blockBytes));
  resident_.assign(residentLine(golden_.memory.arenaEnd() - 1) / 64 + 1, 0);
  residentSynced_ = 0;
  syncArenas();  // the frames the prefix left
}

inline std::uint64_t Lanes::laneBits(std::uint32_t lane, std::uint32_t cls,
                                     std::uint32_t at,
                                     std::uint64_t golden) const {
  if (const std::uint32_t index = indexOf(cls, at); index != 0) {
    const SlotDiffs& d = slots_[index - 1];
    if (d.lanes.test(lane)) {
      return d.values[d.lanes.rank(lane)];
    }
  }
  return golden;
}

void Lanes::setIndex(std::uint32_t cls, std::uint32_t at,
                     std::uint32_t index) {
  if (cls != kWordClass) {
    regIndex_[cls][at] = index;
    return;
  }
  const std::uint64_t bit = 1ULL << (at & 63);
  if (index != 0) {
    memIndex_.put(at, index);
    memAny_[at >> 6] |= bit;
  } else {
    memIndex_.erase(at);
    memAny_[at >> 6] &= ~bit;
  }
}

// Gives a location a SlotDiffs, recycled if one is free; returns its
// index + 1.
std::uint32_t Lanes::newSlotDiffs(std::uint32_t cls, std::uint32_t at) {
  std::uint32_t index = 0;
  if (freeSlots_.empty()) {
    slots_.emplace_back();
    index = static_cast<std::uint32_t>(slots_.size());
  } else {
    index = freeSlots_.back() + 1;
    freeSlots_.pop_back();
  }
  setIndex(cls, at, index);
  return index;
}

void Lanes::freeSlotDiffs(std::uint32_t cls, std::uint32_t at) {
  const std::uint32_t index = indexOf(cls, at);
  slots_[index - 1].lanes = LaneSet{};
  slots_[index - 1].values.clear();
  slots_[index - 1].keyPos.clear();
  freeSlots_.push_back(index - 1);
  setIndex(cls, at, 0);
}

// Takes `lane`'s value out of the location's packed values, and frees the
// location's SlotDiffs with its last lane.
void Lanes::eraseValue(std::uint32_t lane, std::uint32_t cls,
                       std::uint32_t at) {
  SlotDiffs& d = slots_[indexOf(cls, at) - 1];
  const std::uint32_t rank = d.lanes.rank(lane);
  d.values.erase(d.values.begin() + rank);
  d.keyPos.erase(d.keyPos.begin() + rank);
  d.lanes.reset(lane);
  if (!d.lanes.any()) {
    freeSlotDiffs(cls, at);
  }
}

// A diff of `lane` appeared: its key joins the lane's list, at the
// position returned (the caller keeps it in the location's keyPos).
inline std::uint32_t Lanes::addDiff(std::uint32_t lane, std::uint32_t cls,
                                    std::uint32_t at) {
  std::vector<std::uint64_t>& keys = lanes_[lane].keys;
  keys.push_back(key(cls, at));
  ++diffs_;
  return static_cast<std::uint32_t>(keys.size() - 1);
}

// The diff whose key sits at `pos` in `lane`'s list died: the back key
// fills the hole, and its location's keyPos follows it.
void Lanes::dropDiff(std::uint32_t lane, std::uint32_t pos) {
  std::vector<std::uint64_t>& keys = lanes_[lane].keys;
  CASTED_CHECK(pos < keys.size()) << "lane diff has no such location";
  const std::uint64_t moved = keys.back();
  keys.pop_back();
  --diffs_;
  if (pos == keys.size()) {
    return;
  }
  keys[pos] = moved;
  SlotDiffs& d = slots_[indexOf(static_cast<std::uint32_t>(moved >> 32),
                                static_cast<std::uint32_t>(moved)) -
                        1];
  d.keyPos[d.lanes.rank(lane)] = pos;
}

// Records one lane's value at a location, as a diff iff it differs from
// the golden stream's value there, `golden`.
void Lanes::setBits(std::uint32_t lane, std::uint32_t cls, std::uint32_t at,
                    std::uint64_t bits, std::uint64_t golden) {
  std::uint32_t index = indexOf(cls, at);
  if (bits != golden) {
    if (index == 0) {
      index = newSlotDiffs(cls, at);
    }
    SlotDiffs& d = slots_[index - 1];
    const std::uint32_t rank = d.lanes.rank(lane);
    if (d.lanes.test(lane)) {
      d.values[rank] = bits;
      return;
    }
    d.values.insert(d.values.begin() + rank, bits);
    d.keyPos.insert(d.keyPos.begin() + rank, addDiff(lane, cls, at));
    d.lanes.set(lane);
  } else if (index != 0 && slots_[index - 1].lanes.test(lane)) {
    const SlotDiffs& d = slots_[index - 1];
    const std::uint32_t pos = d.keyPos[d.lanes.rank(lane)];
    eraseValue(lane, cls, at);
    dropDiff(lane, pos);
  }
}

// The lane's cache equals golden's up to its bound's start, and golden's
// path is its path, so the blocks charged since then cost it at most their
// warmCycles plus the cold penalty for each bundle that misses in the last
// level: a bundle's accesses overlap, so it pays the penalty at most once.
// When the last level keeps the arena, no line it holds ever leaves it, so
// a bundle misses there only on a line golden's last level lacked at the
// bound's start.  The lane touches such a line either where golden does,
// and golden's first touch is one of its last-level misses since then, or
// off golden's line, where noteLine found it missing from golden's last
// level (ownCold) or golden had missed it since then.  So the bundles that
// pay are at most the bundles charged and at most those cold lines.  A
// last level that can evict has no cold penalty: its warmCycles charge
// every bundle the largest latency.
std::uint64_t Lanes::cycleBound(const Lane& l) const {
  const std::uint64_t cold =
      golden_.caches.memoryAccesses() - l.missesBefore + l.ownCold;
  const std::uint64_t bundles = bundles_ - l.bundlesBefore;
  return warm_ - l.warmBefore +
         golden_.prog.coldPenalty() * std::min(bundles, cold);
}

// Ends a lane: writes its verdict and frees its slot (dropLanes() tears
// down whatever diffs it has left).  An exact decision of a lane whose
// address once differed stands only if its cycle bound kept it under the
// watchdog until now; otherwise the lane falls back as `timing`, and its
// whole re-run decides it.
void Lanes::decide(std::uint32_t lane, LaneEnd end, std::uint64_t insns,
                   bool corrupt) {
  Lane& l = lanes_[lane];
  LaneVerdict& v = (*verdicts_)[l.index];
  v.end = end;
  v.diverged = l.diverged;
  if (!isFallback(end) && l.diverged &&
      l.boundStart + cycleBound(l) > golden_.maxCycles) {
    v.end = LaneEnd::kFallbackTiming;
  }
  v.corrupt = corrupt;
  v.dynamicInsns = insns;
  v.laneOps = laneOps_[lane];
  v.injectedAt = injectedAt_[lane];
  // The slot is free for the next plan to flip.
  state_[lane] = State::kFree;
  laneOf_[l.index] = kNoLane;
  freeLanes_.push_back(lane);
  --open_;
}

// Tears down every diff of the decided lanes in `dying`: each location
// they differ at drops all of them in one pass over its packed values,
// however many of them end together (the lanes a check fires for share
// most of their locations).
void Lanes::dropLanes(const LaneSet& dying) {
  dying.forEach([&](std::uint32_t lane) {
    std::vector<std::uint64_t>& keys = lanes_[lane].keys;
    for (const std::uint64_t k : keys) {
      const auto cls = static_cast<std::uint32_t>(k >> 32);
      const auto at = static_cast<std::uint32_t>(k);
      const std::uint32_t index = indexOf(cls, at);
      if (index == 0) {
        continue;  // an earlier lane's pass freed it
      }
      SlotDiffs& d = slots_[index - 1];
      const LaneSet kept = d.lanes.minus(dying);
      if (kept == d.lanes) {
        continue;  // an earlier lane's pass dropped them here
      }
      if (!kept.any()) {
        freeSlotDiffs(cls, at);
        continue;
      }
      // Slide each run of kept values down over the dropped ones.
      std::uint32_t out = 0;
      std::uint32_t from = 0;
      const auto slide = [&](std::uint32_t to) {
        std::copy(d.values.begin() + from, d.values.begin() + to,
                  d.values.begin() + out);
        std::copy(d.keyPos.begin() + from, d.keyPos.begin() + to,
                  d.keyPos.begin() + out);
        out += to - from;
      };
      d.lanes.minus(kept).forEach([&](std::uint32_t gone) {
        const std::uint32_t rank = d.lanes.rank(gone);
        slide(rank);
        from = rank + 1;
      });
      slide(static_cast<std::uint32_t>(d.values.size()));
      d.values.resize(out);
      d.keyPos.resize(out);
      d.lanes = kept;
    }
    diffs_ -= keys.size();
    keys.clear();
  });
}

// A live lane whose diffs all died with no flip pending is the golden run
// from here on.  If none of its accesses left golden's line, its cycles
// were golden's all along and the watchdog admits golden, so it is decided
// at once: benign, after golden's instruction count.  Otherwise its cycle
// bound keeps growing until golden's end, which decides it.
inline void Lanes::noteReconverged(std::uint32_t lane) {
  const Lane& l = lanes_[lane];
  if (state_[lane] != State::kLive || !l.keys.empty() ||
      l.cursor != l.plan->points.size()) {
    return;
  }
  if (l.diverged) {
    state_[lane] = State::kReconverged;
  } else {
    decide(lane, LaneEnd::kReconverged, goldenInsns_);  // no diffs to drop
  }
}

// The def of a step's op: `after` names the evaluated lanes whose result
// differs from golden's, and the first `defs` of defValues_ are their
// results in lane order.  They become the slot's packed values, and the
// lanes that no longer differ leave the slot.
[[gnu::always_inline]] inline void Lanes::writeDef(std::uint32_t cls,
                                                   std::uint32_t slot,
                                                   const LaneSet& after,
                                                   std::uint32_t defs) {
  const std::uint32_t index = regIndex_[cls][slot];
  if (index == 0 ? !after.any() : slots_[index - 1].lanes == after) {
    // Values changed, no diff appeared or died.
    if (index != 0) {
      slots_[index - 1].values.assign(defValues_.data(),
                                      defValues_.data() + defs);
    }
    return;
  }
  writeDefLanes(cls, slot, after, defs);
}

// writeDef when diffs appear or die: one walk over both lane sets in lane
// order.  The lanes staying keep their key positions, the new ones get
// theirs, and the dying ones leave their lists (which moves no key of this
// slot).
void Lanes::writeDefLanes(std::uint32_t cls, std::uint32_t slot,
                          const LaneSet& after, std::uint32_t defs) {
  std::uint32_t index = regIndex_[cls][slot];
  const LaneSet before = index == 0 ? LaneSet{} : slots_[index - 1].lanes;
  const std::uint32_t* keyPos =
      index == 0 ? nullptr : slots_[index - 1].keyPos.data();
  std::uint32_t beforeRank = 0;
  LaneSet either = before;
  either |= after;
  defKeyPos_.clear();
  either.forEach([&](std::uint32_t lane) {
    const bool was = before.test(lane);
    if (!after.test(lane)) {
      dropDiff(lane, keyPos[beforeRank]);
    } else {
      defKeyPos_.push_back(was ? keyPos[beforeRank]
                               : addDiff(lane, cls, slot));
    }
    beforeRank += was ? 1 : 0;
  });
  if (defs != 0) {
    if (index == 0) {
      index = newSlotDiffs(cls, slot);
    }
    slots_[index - 1].lanes = after;
    slots_[index - 1].values.assign(defValues_.data(),
                                    defValues_.data() + defs);
    slots_[index - 1].keyPos.swap(defKeyPos_);
  } else if (index != 0) {
    freeSlotDiffs(cls, slot);
  }
  before.minus(after).forEach(
      [&](std::uint32_t lane) { noteReconverged(lane); });
}

// Every use slot's lanes are touched, so walking the touched lanes in
// order walks each slot's packed values in order too: a lane's operand is
// at its rank, the slot's cursor.  Compiled per opcode: the loop holds no
// opcode switch, and gathers only the operands kOp's kernel reads (the
// others' gathers are dead code in this instantiation).
template <ir::Opcode kOp>
[[gnu::noinline]] void Lanes::evalLanes(const MicroOp& u,
                                        std::uint32_t node) {
  if constexpr (kernel::isControl(kOp)) {
    CASTED_UNREACHABLE("a control op reached the lane kernels");
  } else {
    Batch& b = batch_;
    // Locals: the stores below could alias members and the batch.
    const std::uint64_t golden[3] = {goldenUse_[0], goldenUse_[1],
                                     goldenUse_[2]};
    const bool hasDef = b.hasDef;
    const std::uint64_t goldenDef = b.goldenDef;
    std::uint32_t cursor[3] = {};
    std::uint32_t evaluated = 0;
    std::uint32_t defs = 0;
    std::size_t accesses = 0;
    bool ends = false;
    for (std::size_t w = 0; w < LaneSet::kWords; ++w) {
      if (b.touched.w[w] == 0) {
        b.detected.w[w] = 0;
        b.trapped.w[w] = 0;
        b.differs.w[w] = 0;
        continue;
      }
      const std::uint64_t useWord[3] = {b.useLanes[0]->w[w],
                                        b.useLanes[1]->w[w],
                                        b.useLanes[2]->w[w]};
      std::uint64_t detectedBits = 0;
      std::uint64_t trappedBits = 0;
      std::uint64_t differsBits = 0;
      for (std::uint64_t bits = b.touched.w[w]; bits != 0; bits &= bits - 1) {
        const std::uint64_t mask = bits & (0 - bits);
        const auto lane =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        Access access{*this, lane};
#pragma GCC unroll 3
        for (int i = 0; i < 3; ++i) {
          const bool laneDiffers = (useWord[i] & mask) != 0;
          access.use[i] = laneDiffers ? b.useValues[i][cursor[i]] : golden[i];
          cursor[i] += laneDiffers ? 1 : 0;
        }
        ++laneOps_[lane];
        ++evaluated;
        const OpEval eval = opKernel<kOp>(u, node, access);
        if (eval.status != OpStatus::kOk) [[unlikely]] {
          (eval.status == OpStatus::kDetect ? detectedBits : trappedBits) |=
              mask;
          continue;
        }
        if (hasDef && access.def != goldenDef) {
          differsBits |= mask;
          defValues_[defs++] = access.def;
        }
        if constexpr (isMemOp(kOp)) {
          noteLine(lane, access.address, b.goldenLine);
        }
        if constexpr (isStoreOp(kOp)) {
          accesses_[accesses++] = {lane, access.address, access.stored};
        }
      }
      b.detected.w[w] = detectedBits;
      b.trapped.w[w] = trappedBits;
      b.differs.w[w] = differsBits;
      ends |= (detectedBits | trappedBits) != 0;
    }
    b.ends = ends;
    b.evaluated = evaluated;
    b.defs = defs;
    b.accesses = accesses;
  }
}

// One batch per touched op, after golden ran it: golden's operands (from
// capture()) and its result once, then the opcode's lane loop
// (evalLanes<kOp>, one dispatch per batch), which counts each lane's op,
// gathers its operands by rank from the slots' packed values, runs the
// opcode's kernel, packs its def and (memory ops) notes its line; then the
// decisions, the def and a store's words are committed.
bool Lanes::step(const MicroOp& u, std::uint32_t node,
                 const FrameBase& base, std::uint64_t insns) {
  static const LaneSet kNone;
  const std::uint32_t field[3] = {u.a, u.b, u.c};
  Batch& b = batch_;
  b.touched = LaneSet{};
  for (int i = 0; i < 3; ++i) {
    b.useLanes[i] = &kNone;
    b.useValues[i] = nullptr;
    const std::uint32_t cls = u.useClass[i];
    if (cls == MicroOp::kNoUse) {
      continue;
    }
    const std::uint32_t slot = slotBase(base, cls) + field[i];
    if (const std::uint32_t index = regIndex_[cls][slot]; index != 0) {
      b.useLanes[i] = &slots_[index - 1].lanes;
      b.useValues[i] = slots_[index - 1].values.data();
      b.touched |= *b.useLanes[i];
    }
  }
  if (u.op == Opcode::kBrCond) {
    // Golden predicates are 0/1, so a differing one takes the other edge.
    b.touched.forEach([&](std::uint32_t lane) {
      decide(lane, LaneEnd::kFallbackControl, insns);
    });
    dropLanes(b.touched);
    return open_ == 0;
  }
  b.hasDef = u.defCount == 1 && u.op != Opcode::kCall;
  const std::uint32_t defSlot = slotBase(base, u.defClass) + u.def;
  if (b.hasDef) {
    if (const std::uint32_t index = regIndex_[u.defClass][defSlot]) {
      b.touched |= slots_[index - 1].lanes;
    }
  }
  // Golden has run the op: its result is in its def slot, its address in
  // the frame's address slot of the op.
  b.goldenDef = b.hasDef ? goldenBits(u.defClass, defSlot) : 0;
  const bool memoryOp = isMemOp(u.op);
  const std::uint64_t goldenAddress =
      memoryOp ? golden_.addr[base.addr + node] : 0;
  const std::uint64_t goldenWord = goldenAddress & ~7ULL;
  b.goldenLine = goldenAddress >> golden_.prog.lineShift();
  if (memoryOp) {
    b.touched |= lanesAt(kWordClass, wordAt(goldenWord));
  }

  withOpcode(u.op, [&](auto op) { evalLanes<decltype(op)::value>(u, node); });
  ++laneSteps_;
  opLaneOps_[static_cast<std::size_t>(u.op)] += b.evaluated;
  if (b.ends) [[unlikely]] {
    b.detected.forEach([&](std::uint32_t lane) {
      decide(lane, LaneEnd::kDetected, insns);
    });
    b.trapped.forEach([&](std::uint32_t lane) {
      decide(lane, LaneEnd::kException, insns);
    });
    LaneSet ended = b.detected;
    ended |= b.trapped;
    dropLanes(ended);
  }
  if (b.hasDef) {
    writeDef(u.defClass, defSlot, b.differs, b.defs);
  }
  if (!isStoreOp(u.op)) {
    return open_ == 0;
  }
  const std::uint32_t width = u.op == Opcode::kStoreB ? 1 : 8;
  for (std::size_t k = 0; k < b.accesses; ++k) {
    const LaneAccess& r = accesses_[k];
    // Golden memory holds golden's store already.  After both stores, the
    // lane keeps its own bytes at golden's address (golden's word before
    // the store, unless the lane differs there or wrote there too), and
    // its word at its own address holds what it wrote.
    const std::uint64_t laneWordAddr = r.address & ~7ULL;
    const std::uint64_t words[2] = {laneWordAddr, goldenWord};
    for (int w = 0; w < (laneWordAddr == goldenWord ? 1 : 2); ++w) {
      const std::uint64_t word = words[w];
      const std::uint32_t at = wordAt(word);
      const std::uint64_t golden = golden_.memory.peekWord(word);
      std::uint64_t laneValue =
          laneBits(r.lane, kWordClass, at,
                   word == goldenWord ? goldenStoreWord_ : golden);
      if (word == laneWordAddr) {
        laneValue = storedWord(laneValue, r.address, width, r.stored);
      }
      setBits(r.lane, kWordClass, at, laneValue, golden);
    }
    noteReconverged(r.lane);
  }
  return open_ == 0;
}

void Lanes::arm(std::uint32_t plan, std::uint64_t insns) {
  const std::uint32_t lane = freeLanes_.back();
  freeLanes_.pop_back();
  Lane& l = lanes_[lane];  // keeps the allocation of `keys`, left empty
  l.plan = (*plans_)[plan];
  l.index = plan;
  l.cursor = 0;
  l.diverged = false;
  l.boundStart = 0;
  l.warmBefore = 0;
  l.bundlesBefore = 0;
  l.missesBefore = 0;
  l.ownCold = 0;
  state_[lane] = State::kLive;
  laneOps_[lane] = 0;
  injectedAt_[lane] = insns;
  laneOf_[plan] = lane;
}

void Lanes::flip(std::uint32_t lane, const MicroOp& u, const FrameBase& base) {
  Lane& l = lanes_[lane];
  const FaultPoint& point = l.plan->points[l.cursor++];
  if (l.cursor < l.plan->points.size()) {
    events_.emplace_back(l.plan->points[l.cursor].ordinal, l.index);
    std::push_heap(events_.begin(), events_.end(), std::greater<>());
  }
  const DecodedReg target = faultTarget(u, point, golden_.prog.pool().data());
  const std::uint32_t slot = slotBase(base, target.cls) + target.slot;
  const std::uint64_t golden = goldenBits(target.cls, slot);
  setBits(lane, target.cls, slot,
          flipBits(target.cls, laneBits(lane, target.cls, slot, golden),
                   point.bit),
          golden);
  noteReconverged(lane);
}

// The plans whose first flip is here take free slots, in first-ordinal
// order, or are deferred; then every armed lane with a flip here flips.
std::uint64_t Lanes::onDef(const MicroOp& u, const FrameBase& base,
                           std::uint64_t ordinal, std::uint64_t insns) {
  const auto firstOrdinal = [&](std::size_t at) {
    return (*plans_)[(*order_)[at]]->points[0].ordinal;
  };
  for (; pending_ < order_->size() && firstOrdinal(pending_) == ordinal;
       ++pending_) {
    const std::uint32_t plan = (*order_)[pending_];
    if (freeLanes_.empty()) {
      deferred_.push_back(plan);
      --open_;
      continue;
    }
    arm(plan, insns);
    events_.emplace_back(ordinal, plan);
    std::push_heap(events_.begin(), events_.end(), std::greater<>());
  }
  while (!events_.empty() && events_.front().first == ordinal) {
    const std::uint32_t lane = laneOf_[events_.front().second];
    std::pop_heap(events_.begin(), events_.end(), std::greater<>());
    events_.pop_back();
    if (lane != kNoLane) {
      flip(lane, u, base);
    }
  }
  const std::uint64_t next = events_.empty() ? kNoFault : events_.front().first;
  return pending_ < order_->size() ? std::min(next, firstOrdinal(pending_))
                                   : next;
}

// A lane that differs at either end of a move takes its own value across.
void Lanes::moveDiffs(ir::Opcode op, const DecodedReg* from,
                      const FrameBase& src, const DecodedReg* to,
                      const FrameBase& dst, std::uint32_t count) {
  LaneSet touched;
  for (std::uint32_t i = 0; i < count; ++i) {
    touched |= lanesAt(from[i].cls, slotBase(src, from[i].cls) + from[i].slot);
    touched |= lanesAt(to[i].cls, slotBase(dst, to[i].cls) + to[i].slot);
  }
  if (!touched.any()) {
    return;
  }
  ++laneSteps_;
  opLaneOps_[static_cast<std::size_t>(op)] += touched.count();
  touched.forEach([&](std::uint32_t lane) {
    ++laneOps_[lane];
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t source = slotBase(src, from[i].cls) + from[i].slot;
      const std::uint32_t slot = slotBase(dst, to[i].cls) + to[i].slot;
      const std::uint64_t bits = laneBits(lane, from[i].cls, source,
                                          goldenBits(from[i].cls, source));
      // As the interpreter's writeBits: a predicate register holds 0 or 1.
      setBits(lane, to[i].cls, slot, to[i].cls == 2 && bits != 0 ? 1 : bits,
              goldenBits(to[i].cls, slot));
    }
    noteReconverged(lane);
  });
}

// The popped frame's slots are dead (the next push zeroes them), so no lane
// keeps a diff there: a new frame never inherits one.
void Lanes::dropFrame(const FrameBase& base) {
  const std::size_t tops[3] = {golden_.gp.size(), golden_.fp.size(),
                               golden_.pr.size()};
  LaneSet touched;
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (std::size_t s = slotBase(base, c); s < tops[c]; ++s) {
      const auto slot = static_cast<std::uint32_t>(s);
      if (regIndex_[c][slot] == 0) {
        continue;
      }
      const SlotDiffs& d = slots_[regIndex_[c][slot] - 1];
      const LaneSet lanes = d.lanes;
      lanes.forEach([&](std::uint32_t lane) {
        dropDiff(lane, d.keyPos[lanes.rank(lane)]);
      });
      touched |= lanes;
      freeSlotDiffs(c, slot);
    }
  }
  touched.forEach([&](std::uint32_t lane) { noteReconverged(lane); });
}

// Whether the lane's output symbol, golden's overlaid with its word diffs,
// differs from golden's.
void Lanes::finish(std::optional<std::uint32_t> exitSlot,
                   std::int64_t exitCode, std::uint64_t insns) {
  const std::uint64_t begin = golden_.prog.outputAddress();
  const std::uint64_t end = begin + golden_.prog.outputSize();
  // A plan whose first flip lies past the run's last def never flipped.
  for (; pending_ < order_->size(); ++pending_) {
    LaneVerdict& v = (*verdicts_)[(*order_)[pending_]];
    v.end = LaneEnd::kHalted;
    v.dynamicInsns = insns;
    --open_;
  }
  LaneSet ended;
  for (std::uint32_t lane = 0; lane < kMaxLanes; ++lane) {
    if (state_[lane] == State::kFree) {
      continue;
    }
    ended.set(lane);
    if (state_[lane] == State::kReconverged) {
      decide(lane, LaneEnd::kReconverged, insns);
      continue;
    }
    // Corrupt iff the exit code, or the output symbol overlaid with the
    // lane's word diffs, differs from golden's.
    bool corrupt = exitSlot.has_value() &&
                   static_cast<std::int64_t>(laneBits(
                       lane, 0, *exitSlot, goldenBits(0, *exitSlot))) !=
                       exitCode;
    for (const std::uint64_t k : lanes_[lane].keys) {
      if ((k >> 32) != kWordClass) {
        continue;
      }
      const auto at = static_cast<std::uint32_t>(k);
      const std::uint64_t word = wordAddress(at);
      const std::uint64_t golden = golden_.memory.peekWord(word);
      const std::uint64_t bits = laneBits(lane, kWordClass, at, golden);
      for (std::uint64_t byte = 0; byte < 8; ++byte) {
        const std::uint64_t address = word + byte;
        corrupt |= address >= begin && address < end &&
                   ((bits ^ golden) >> (8 * byte) & 0xFF) != 0;
      }
    }
    decide(lane, LaneEnd::kHalted, insns, corrupt);
  }
  dropLanes(ended);
}

}  // namespace casted::sim
