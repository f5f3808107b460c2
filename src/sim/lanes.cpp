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

// evalOp's access for one lane: the op's register operands, gathered
// before the call, and the lane's view of memory, golden's overlaid with
// its word diffs.  It writes nothing; step() commits what it captured.
struct Lanes::Access {
  const Lanes& lanes;
  const MicroOp& u;
  std::uint32_t lane;
  std::uint64_t use[3] = {};  // bits of the register operands a, b, c
  std::uint64_t def = 0;      // bits of the op's result
  std::uint64_t address = 0;  // of a load or store
  std::uint64_t stored = 0;   // value of a store

  // evalOp reads a register only as one of the op's declared uses a, b, c
  // (MicroOp::useClass), so class and slot name the operand.
  std::uint64_t operand(std::uint32_t cls, std::uint32_t slot) const {
    if (u.useClass[0] == cls && u.a == slot) {
      return use[0];
    }
    return u.useClass[1] == cls && u.b == slot ? use[1] : use[2];
  }
  std::int64_t g(std::uint32_t slot) const {
    return static_cast<std::int64_t>(operand(0, slot));
  }
  double f(std::uint32_t slot) const {
    return std::bit_cast<double>(operand(1, slot));
  }
  std::uint8_t p(std::uint32_t slot) const {
    return static_cast<std::uint8_t>(operand(2, slot));
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
                  std::vector<LaneVerdict>& out) {
  if (open_ != 0) {
    // The last window was abandoned midway: its sets are not empty.
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
    diffs_ = 0;
  }
  verdicts_ = &out;
  lanes_.resize(plans.size());
  words_ = (plans.size() + 63) / 64;
  events_.clear();
  for (std::uint32_t i = 0; i < plans.size(); ++i) {
    Lane& l = lanes_[i];  // keeps the allocation of `keys`
    l.plan = plans[i];
    l.cursor = 0;
    l.diverged = false;
    l.boundStart = 0;
    l.worstBefore = 0;
    l.keys.clear();
    state_[i] = State::kDormant;
    laneOps_[i] = 0;
    injectedAt_[i] = 0;
    events_.emplace_back(plans[i]->points[0].ordinal, i);
  }
  std::make_heap(events_.begin(), events_.end(), std::greater<>());
  open_ = plans.size();
  worst_ = 0;
  laneSteps_ = 0;
  const std::uint64_t words =
      (golden_.memory.arenaEnd() - ir::Program::kGlobalBase + 7) / 8;
  if (words != memWords_) {
    memWords_ = words;
    memAny_.assign((memWords_ + 63) / 64, 0);
  }
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

// Ends a lane.  An exact decision of a lane whose address once differed
// stands only if its cycle bound kept it under the watchdog until now.
void Lanes::decide(std::uint32_t lane, LaneEnd end, std::uint64_t insns,
                   bool corrupt) {
  Lane& l = lanes_[lane];
  if (!isFallback(end) && l.diverged &&
      l.boundStart + (worst_ - l.worstBefore) > golden_.maxCycles) {
    end = LaneEnd::kFallbackTiming;
  }
  LaneVerdict& v = (*verdicts_)[lane];
  v.end = end;
  v.corrupt = corrupt;
  v.dynamicInsns = insns;
  v.laneOps = laneOps_[lane];
  v.injectedAt = injectedAt_[lane];
  for (const std::uint64_t k : l.keys) {
    eraseValue(lane, static_cast<std::uint32_t>(k >> 32),
               static_cast<std::uint32_t>(k));
  }
  diffs_ -= l.keys.size();
  l.keys.clear();
  state_[lane] = State::kDone;
  --open_;
}

// A live lane whose diffs all died with no flip pending is the golden run
// from here on; it waits for the stream's end, which decides it.
inline void Lanes::noteReconverged(std::uint32_t lane) {
  if (state_[lane] == State::kLive && lanes_[lane].keys.empty() &&
      lanes_[lane].cursor == lanes_[lane].plan->points.size()) {
    state_[lane] = State::kReconverged;
  }
}

// The def of a step's op: `after` names the evaluated lanes whose result
// differs from golden's, and defValues_ holds their results in lane order.
// It becomes the slot's packed values, and the lanes that no longer
// differ leave the slot.
[[gnu::always_inline]] inline void Lanes::writeDef(std::uint32_t cls,
                                                   std::uint32_t slot,
                                                   const LaneSet& after) {
  const std::uint32_t index = regIndex_[cls][slot];
  if (index == 0 ? !after.any() : slots_[index - 1].lanes == after) {
    // Values changed, no diff appeared or died.
    if (index != 0) {
      slots_[index - 1].values.swap(defValues_);
    }
    return;
  }
  writeDefLanes(cls, slot, after);
}

// writeDef when diffs appear or die: one walk over both lane sets in lane
// order.  The lanes staying keep their key positions, the new ones get
// theirs, and the dying ones leave their lists (which moves no key of this
// slot).
void Lanes::writeDefLanes(std::uint32_t cls, std::uint32_t slot,
                          const LaneSet& after) {
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
  if (!defValues_.empty()) {
    if (index == 0) {
      index = newSlotDiffs(cls, slot);
    }
    slots_[index - 1].lanes = after;
    slots_[index - 1].values.swap(defValues_);
    slots_[index - 1].keyPos.swap(defKeyPos_);
  } else if (index != 0) {
    freeSlotDiffs(cls, slot);
  }
  before.minus(after).forEach(
      [&](std::uint32_t lane) { noteReconverged(lane); });
}

// One batch per touched op, after golden ran it: golden's operands (from
// capture()) and its result once, then one pass over the touched lanes in
// lane order that counts each lane's op, gathers its operands by rank from
// the slots' packed values, evaluates it through evalOp and packs its def;
// then the decisions, the def and (for memory ops) the addresses and
// stored words are committed.
bool Lanes::step(const MicroOp& u, std::uint32_t node,
                 const FrameBase& base, std::uint64_t insns) {
  static const LaneSet kNone;
  const std::uint32_t field[3] = {u.a, u.b, u.c};
  const LaneSet* useLanes[3] = {&kNone, &kNone, &kNone};
  const std::uint64_t* useValues[3] = {};
  LaneSet touched;
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t cls = u.useClass[i];
    if (cls == MicroOp::kNoUse) {
      continue;
    }
    const std::uint32_t slot = slotBase(base, cls) + field[i];
    if (const std::uint32_t index = regIndex_[cls][slot]; index != 0) {
      useLanes[i] = &slots_[index - 1].lanes;
      useValues[i] = slots_[index - 1].values.data();
      touched |= *useLanes[i];
    }
  }
  if (u.op == Opcode::kBrCond) {
    // Golden predicates are 0/1, so a differing one takes the other edge.
    touched.forEach([&](std::uint32_t lane) {
      decide(lane, LaneEnd::kFallbackControl, insns);
    });
    return open_ == 0;
  }
  const bool hasDef = u.defCount == 1 && u.op != Opcode::kCall;
  const std::uint32_t defSlot = slotBase(base, u.defClass) + u.def;
  if (hasDef) {
    if (const std::uint32_t index = regIndex_[u.defClass][defSlot]) {
      touched |= slots_[index - 1].lanes;
    }
  }
  // Golden has run the op: its result is in its def slot, its address in
  // the frame's address slot of the op.
  const std::uint64_t goldenDef = hasDef ? goldenBits(u.defClass, defSlot) : 0;
  const bool memoryOp = isMemOp(u.op);
  const std::uint64_t goldenAddress =
      memoryOp ? golden_.addr[base.addr + node] : 0;
  const std::uint64_t goldenWord = goldenAddress & ~7ULL;
  if (memoryOp) {
    touched |= lanesAt(kWordClass, wordAt(goldenWord));
  }

  // Every use slot's lanes are touched, so walking the touched lanes in
  // order walks each slot's packed values in order too: a lane's operand
  // is at its rank, the slot's cursor.
  std::uint32_t cursor[3] = {};
  LaneSet detected, trapped, differs;
  bool ends = false;  // some lane detected or trapped
  std::size_t accesses = 0;
  defValues_.clear();
  for (std::size_t w = 0; w < words_; ++w) {
    if (touched.w[w] == 0) {
      continue;
    }
    const std::uint64_t useWord[3] = {useLanes[0]->w[w], useLanes[1]->w[w],
                                      useLanes[2]->w[w]};
    std::uint64_t detectedBits = 0;
    std::uint64_t trappedBits = 0;
    std::uint64_t differsBits = 0;
    for (std::uint64_t bits = touched.w[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t mask = bits & (0 - bits);
      const auto lane =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      std::uint64_t use[3] = {};
#pragma GCC unroll 3
      for (int i = 0; i < 3; ++i) {
        const bool laneDiffers = (useWord[i] & mask) != 0;
        use[i] = laneDiffers ? useValues[i][cursor[i]] : goldenUse_[i];
        cursor[i] += laneDiffers ? 1 : 0;
      }
      ++laneOps_[lane];
      Access access{*this, u, lane, {use[0], use[1], use[2]}};
      const OpEval eval = evalOp(u, node, access);
      if (eval.status != OpStatus::kOk) [[unlikely]] {
        (eval.status == OpStatus::kDetect ? detectedBits : trappedBits) |=
            mask;
        continue;
      }
      if (hasDef && access.def != goldenDef) {
        differsBits |= mask;
        defValues_.push_back(access.def);
      }
      if (memoryOp) {
        accesses_[accesses++] = {lane, access.address, access.stored};
      }
    }
    detected.w[w] = detectedBits;
    trapped.w[w] = trappedBits;
    differs.w[w] = differsBits;
    ends |= (detectedBits | trappedBits) != 0;
  }
  ++laneSteps_;
  if (ends) [[unlikely]] {
    detected.forEach([&](std::uint32_t lane) {
      decide(lane, LaneEnd::kDetected, insns);
    });
    trapped.forEach([&](std::uint32_t lane) {
      decide(lane, LaneEnd::kException, insns);
    });
  }
  if (hasDef) {
    writeDef(u.defClass, defSlot, differs);
  }
  if (!memoryOp) {
    return open_ == 0;
  }
  // Every level's line holds the smallest one, so an access inside golden's
  // smallest line touches golden's line at every level.
  const std::uint32_t lineShift = golden_.prog.lineShift();
  const bool storeOp = isStoreOp(u.op);
  const std::uint32_t width = u.op == Opcode::kLoadB || u.op == Opcode::kStoreB
                                  ? 1
                                  : 8;
  for (std::size_t k = 0; k < accesses; ++k) {
    const LaneAccess& r = accesses_[k];
    Lane& l = lanes_[r.lane];
    if (!l.diverged &&
        (r.address >> lineShift) != (goldenAddress >> lineShift)) {
      // Its cache sees another line from here on: its cycles get a bound.
      l.diverged = true;
      l.boundStart = golden_.cycles;
      l.worstBefore = worst_;
    }
    if (!storeOp) {
      continue;
    }
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

std::uint64_t Lanes::onDef(const MicroOp& u, const FrameBase& base,
                           std::uint64_t ordinal, std::uint64_t insns) {
  while (!events_.empty() && events_.front().first == ordinal) {
    const std::uint32_t lane = events_.front().second;
    std::pop_heap(events_.begin(), events_.end(), std::greater<>());
    events_.pop_back();
    Lane& l = lanes_[lane];
    const FaultPoint& point = l.plan->points[l.cursor++];
    if (state_[lane] == State::kDone) {
      continue;
    }
    if (state_[lane] == State::kDormant) {
      state_[lane] = State::kLive;
      injectedAt_[lane] = insns;
    }
    if (l.cursor < l.plan->points.size()) {
      events_.emplace_back(l.plan->points[l.cursor].ordinal, lane);
      std::push_heap(events_.begin(), events_.end(), std::greater<>());
    }
    const DecodedReg target =
        faultTarget(u, point, golden_.prog.pool().data());
    const std::uint32_t slot = slotBase(base, target.cls) + target.slot;
    const std::uint64_t golden = goldenBits(target.cls, slot);
    setBits(lane, target.cls, slot,
            flipBits(target.cls, laneBits(lane, target.cls, slot, golden),
                     point.bit),
            golden);
    noteReconverged(lane);
  }
  return events_.empty() ? kNoFault : events_.front().first;
}

// A lane that differs at either end of a move takes its own value across.
void Lanes::moveDiffs(const DecodedReg* from, const FrameBase& src,
                      const DecodedReg* to, const FrameBase& dst,
                      std::uint32_t count) {
  LaneSet touched;
  for (std::uint32_t i = 0; i < count; ++i) {
    touched |= lanesAt(from[i].cls, slotBase(src, from[i].cls) + from[i].slot);
    touched |= lanesAt(to[i].cls, slotBase(dst, to[i].cls) + to[i].slot);
  }
  if (!touched.any()) {
    return;
  }
  ++laneSteps_;
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
  for (std::uint32_t lane = 0; lane < lanes_.size(); ++lane) {
    if (state_[lane] == State::kDone) {
      continue;
    }
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
}

}  // namespace casted::sim
