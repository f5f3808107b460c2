#include "sim/lanes.h"

#include <algorithm>
#include <functional>

namespace casted::sim {

namespace {

using ir::Opcode;

// A lane op whose cost exceeds this many plain ops makes the rerun cheaper:
// the measured cost of a lane op over a plain golden op (EXPERIMENTS.md,
// "Lockstep lanes").  kLaneOpGrace lane ops are free of the budget, so a
// short-lived lane (a flip that a check catches a few ops later) is never
// sent back for its first dense burst.  Without the grace, 63% of the
// Fig. 9 lanes fell back and the campaign ran 23% slower; 64 to 1024
// measured alike (EXPERIMENTS.md, "The budget's grace").
constexpr std::uint64_t kLaneOpCost = 3;
constexpr std::uint64_t kLaneOpGrace = 256;

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
      "detected", "exception", "halt",  "reconverged",
      "control",  "timing",    "budget"};
  return kNames[static_cast<std::size_t>(end)];
}

// evalOp's access for one lane, or for golden itself (kGolden): the lane's
// values, golden's overlaid with its diffs, and its view of memory.  It
// writes nothing; step() commits what it captured.
struct Lanes::Access {
  const Lanes& lanes;
  std::uint32_t lane;
  FrameBase base;
  std::uint64_t def = 0;      // bits of the op's result
  std::uint64_t address = 0;  // of a load or store
  std::uint64_t stored = 0;   // value of a store

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
    const TrapKind trap = lanes.golden_.memory.accessTrap(at, width);
    if (trap == TrapKind::kNone) {
      const std::uint64_t word = lanes.laneWord(lane, at & ~7ULL);
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
      std::fill(regMask_[c].begin(), regMask_[c].end(), LaneSet{});
      std::fill(regAny_[c].begin(), regAny_[c].end(), 0);
    }
    memIndex_.clear();
    memSets_.clear();
    freeSets_.clear();
    std::fill(memAny_.begin(), memAny_.end(), 0);
    diffs_ = 0;
  }
  verdicts_ = &out;
  lanes_.resize(plans.size());
  events_.clear();
  for (std::uint32_t i = 0; i < plans.size(); ++i) {
    DiffMap diff = std::move(lanes_[i].diff);  // keeps its allocation
    diff.clear();
    lanes_[i] = Lane{};
    lanes_[i].plan = plans[i];
    lanes_[i].diff = std::move(diff);
    events_.emplace_back(plans[i]->points[0].ordinal, i);
  }
  std::make_heap(events_.begin(), events_.end(), std::greater<>());
  open_ = plans.size();
  worst_ = 0;
  const std::uint64_t words =
      (golden_.memory.arenaEnd() - ir::Program::kGlobalBase + 7) / 8;
  if (words != memWords_) {
    memWords_ = words;
    memAny_.assign((memWords_ + 63) / 64, 0);
  }
  syncArenas();  // the frames the prefix left
}

inline std::uint64_t Lanes::goldenBits(std::uint32_t cls,
                                       std::uint32_t slot) const {
  return cls == 0   ? static_cast<std::uint64_t>(golden_.gp[slot])
         : cls == 1 ? std::bit_cast<std::uint64_t>(golden_.fp[slot])
                    : golden_.pr[slot];
}

inline std::uint64_t Lanes::laneBits(std::uint32_t lane, std::uint32_t cls,
                                     std::uint32_t slot) const {
  return lane != kGolden && regMask_[cls][slot].test(lane)
             ? lanes_[lane].diff.at(DiffMap::regKey(cls, slot))
             : goldenBits(cls, slot);
}

const LaneSet* Lanes::wordLanes(std::uint64_t word) const {
  const std::uint64_t index = (word - ir::Program::kGlobalBase) >> 3;
  if (((memAny_[index >> 6] >> (index & 63)) & 1) == 0) {
    return nullptr;
  }
  return &memSets_[memIndex_.at(word)];
}

bool Lanes::hasWord(std::uint32_t lane, std::uint64_t word) const {
  const LaneSet* set = wordLanes(word);
  return set != nullptr && set->test(lane);
}

// Adds or removes `lane` from the lanes of `word`.
void Lanes::markWord(std::uint32_t lane, std::uint64_t word, bool differs) {
  const std::uint64_t index = (word - ir::Program::kGlobalBase) >> 3;
  std::uint64_t& bits = memAny_[index >> 6];
  const std::uint64_t bit = 1ULL << (index & 63);
  if (differs) {
    if ((bits & bit) == 0) {
      std::uint32_t set = static_cast<std::uint32_t>(memSets_.size());
      if (freeSets_.empty()) {
        memSets_.emplace_back();
      } else {
        set = freeSets_.back();
        freeSets_.pop_back();
      }
      memIndex_.put(word, set);
      bits |= bit;
    }
    memSets_[memIndex_.at(word)].set(lane);
  } else if ((bits & bit) != 0) {
    const std::uint32_t set = static_cast<std::uint32_t>(memIndex_.at(word));
    memSets_[set].reset(lane);
    if (!memSets_[set].any()) {
      memIndex_.erase(word);
      freeSets_.push_back(set);
      bits &= ~bit;
    }
  }
}

std::uint64_t Lanes::laneWord(std::uint32_t lane, std::uint64_t word) const {
  return lane != kGolden && hasWord(lane, word)
             ? lanes_[lane].diff.at(DiffMap::wordKey(word))
             : golden_.memory.peekWord(word);
}

// Records the lane's value of a register, as a diff iff it differs from
// the golden stream's value there, `golden`.
inline void Lanes::setReg(std::uint32_t lane, std::uint32_t cls,
                          std::uint32_t slot, std::uint64_t bits,
                          std::uint64_t golden) {
  LaneSet& mask = regMask_[cls][slot];
  const std::uint64_t key = DiffMap::regKey(cls, slot);
  if (bits != golden) {
    diffs_ += lanes_[lane].diff.put(key, bits) ? 1 : 0;
    mask.set(lane);
    regAny_[cls][slot] = 1;
  } else if (mask.test(lane)) {
    lanes_[lane].diff.erase(key);
    --diffs_;
    mask.reset(lane);
    regAny_[cls][slot] = mask.any() ? 1 : 0;
  }
}

// The same for an aligned memory word.
void Lanes::setWord(std::uint32_t lane, std::uint64_t word,
                    std::uint64_t bits, std::uint64_t golden) {
  const std::uint64_t key = DiffMap::wordKey(word);
  if (bits != golden) {
    diffs_ += lanes_[lane].diff.put(key, bits) ? 1 : 0;
    markWord(lane, word, true);
  } else if (hasWord(lane, word)) {
    lanes_[lane].diff.erase(key);
    --diffs_;
    markWord(lane, word, false);
  }
}

// Counts one op of lane work; false when the lane ran out of budget (and
// was sent back).
inline bool Lanes::chargeLaneOp(std::uint32_t lane, std::uint64_t insns) {
  Lane& l = lanes_[lane];
  ++l.laneOps;
  if (l.laneOps > kLaneOpGrace &&
      l.laneOps * kLaneOpCost > insns - l.injectedAt) {
    decide(lane, LaneEnd::kFallbackBudget, insns);
    return false;
  }
  return true;
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
  v.laneOps = l.laneOps;
  v.injectedAt = l.injectedAt;
  diffs_ -= l.diff.size();
  l.diff.drain([&](std::uint64_t key, std::uint64_t) {
    if (DiffMap::isWordKey(key)) {
      markWord(lane, key & ((1ULL << 60) - 1), false);
    } else {
      const std::uint32_t cls = static_cast<std::uint32_t>(key >> 60);
      const std::uint32_t slot = static_cast<std::uint32_t>(key);
      regMask_[cls][slot].reset(lane);
      regAny_[cls][slot] = regMask_[cls][slot].any() ? 1 : 0;
    }
  });
  l.state = State::kDone;
  --open_;
}

// A live lane whose diffs all died with no flip pending is the golden run
// from here on; it waits for the stream's end, which decides it.
inline void Lanes::noteReconverged(std::uint32_t lane) {
  Lane& l = lanes_[lane];
  if (l.state == State::kLive && l.diff.empty() &&
      l.cursor == l.plan->points.size()) {
    l.state = State::kReconverged;
  }
}

bool Lanes::step(const MicroOp& u, std::uint32_t node,
                 const FrameBase& base, std::uint64_t insns) {
  LaneSet touched;
  const std::uint32_t field[3] = {u.a, u.b, u.c};
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t cls = u.useClass[i];
    if (cls != MicroOp::kNoUse) {
      touched |= regMask_[cls][slotBase(base, cls) + field[i]];
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
    touched |= regMask_[u.defClass][defSlot];
  }
  Access golden{*this, kGolden, base};
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
  // Every level's line holds the smallest one, so an access inside golden's
  // smallest line touches golden's line at every level.
  const std::uint32_t lineShift = golden_.prog.lineShift();
  if (memoryOp) {
    if (const LaneSet* set = wordLanes(goldenWord)) {
      touched |= *set;
    }
  }

  touched.forEach([&](std::uint32_t lane) {
    if (!chargeLaneOp(lane, insns)) {
      return;
    }
    Access access{*this, lane, base};
    const OpEval eval = evalOp(u, node, access);
    if (eval.status == OpStatus::kDetect) {
      decide(lane, LaneEnd::kDetected, insns);
      return;
    }
    if (eval.status == OpStatus::kTrap) {
      decide(lane, LaneEnd::kException, insns);
      return;
    }
    Lane& l = lanes_[lane];
    if (memoryOp && !l.diverged &&
        (access.address >> lineShift) != (golden.address >> lineShift)) {
      // Its cache sees another line from here on: its cycles get a bound.
      l.diverged = true;
      l.boundStart = golden_.cycles;
      l.worstBefore = worst_;
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
        std::uint64_t goldenValue = golden_.memory.peekWord(word);
        if (word == goldenWord) {
          goldenValue = storedWord(goldenValue, golden.address, width,
                                   golden.stored);
        }
        setWord(lane, word, laneValue, goldenValue);
      }
    }
    noteReconverged(lane);
  });
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
    if (l.state == State::kDone) {
      continue;
    }
    if (l.state == State::kDormant) {
      l.state = State::kLive;
      l.injectedAt = insns;
    }
    if (l.cursor < l.plan->points.size()) {
      events_.emplace_back(l.plan->points[l.cursor].ordinal, lane);
      std::push_heap(events_.begin(), events_.end(), std::greater<>());
    }
    const DecodedReg target =
        faultTarget(u, point, golden_.prog.pool().data());
    const std::uint32_t slot = slotBase(base, target.cls) + target.slot;
    setReg(lane, target.cls, slot,
           flipBits(target.cls, laneBits(lane, target.cls, slot), point.bit),
           goldenBits(target.cls, slot));
    noteReconverged(lane);
  }
  return events_.empty() ? kNoFault : events_.front().first;
}

// A lane that differs at either end of a move takes its own value across.
void Lanes::moveDiffs(const DecodedReg* from, const FrameBase& src,
                      const DecodedReg* to, const FrameBase& dst,
                      std::uint32_t count, std::uint64_t insns) {
  LaneSet touched;
  for (std::uint32_t i = 0; i < count; ++i) {
    touched |=
        regMask_[from[i].cls][slotBase(src, from[i].cls) + from[i].slot];
    touched |= regMask_[to[i].cls][slotBase(dst, to[i].cls) + to[i].slot];
  }
  touched.forEach([&](std::uint32_t lane) {
    if (!chargeLaneOp(lane, insns)) {
      return;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t slot = slotBase(dst, to[i].cls) + to[i].slot;
      const std::uint64_t bits = laneBits(
          lane, from[i].cls, slotBase(src, from[i].cls) + from[i].slot);
      // As the interpreter's writeBits: a predicate register holds 0 or 1.
      setReg(lane, to[i].cls, slot, to[i].cls == 2 && bits != 0 ? 1 : bits,
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
    for (std::size_t slot = slotBase(base, c); slot < tops[c]; ++slot) {
      if (regAny_[c][slot] == 0) {
        continue;
      }
      const std::uint64_t key =
          DiffMap::regKey(c, static_cast<std::uint32_t>(slot));
      regMask_[c][slot].forEach([&](std::uint32_t lane) {
        lanes_[lane].diff.erase(key);
        --diffs_;
      });
      touched |= regMask_[c][slot];
      regMask_[c][slot] = LaneSet{};
      regAny_[c][slot] = 0;
    }
  }
  touched.forEach([&](std::uint32_t lane) { noteReconverged(lane); });
}

// Whether the lane's output symbol, golden's overlaid with its words,
// differs from golden's.
void Lanes::finish(std::optional<std::uint32_t> exitSlot,
                   std::int64_t exitCode, std::uint64_t insns) {
  const std::uint64_t begin = golden_.prog.outputAddress();
  const std::uint64_t end = begin + golden_.prog.outputSize();
  for (std::uint32_t lane = 0; lane < lanes_.size(); ++lane) {
    const Lane& l = lanes_[lane];
    if (l.state == State::kDone) {
      continue;
    }
    if (l.state == State::kReconverged) {
      decide(lane, LaneEnd::kReconverged, insns);
      continue;
    }
    // Corrupt iff the exit code, or the output symbol overlaid with the
    // lane's words, differs from golden's.
    bool corrupt =
        exitSlot.has_value() &&
        static_cast<std::int64_t>(laneBits(lane, 0, *exitSlot)) != exitCode;
    l.diff.forEach([&](std::uint64_t key, std::uint64_t bits) {
      if (!DiffMap::isWordKey(key)) {
        return;
      }
      const std::uint64_t word = key & ((1ULL << 60) - 1);
      const std::uint64_t golden = golden_.memory.peekWord(word);
      for (std::uint64_t byte = 0; byte < 8; ++byte) {
        const std::uint64_t at = word + byte;
        corrupt |= at >= begin && at < end &&
                   ((bits ^ golden) >> (8 * byte) & 0xFF) != 0;
      }
    });
    decide(lane, LaneEnd::kHalted, insns, corrupt);
  }
}

}  // namespace casted::sim
