// The decoded execution engine: a one-time per-program decode pass that
// flattens each function into dense micro-op arrays so the hot trial loop of
// the fault campaign never touches ir::Instruction again.
//
// What the decode resolves statically (all of which the reference walk in
// simulator.cpp re-derives on every visit):
//   * operands — frame-slot offsets held inline in the micro-op (the IR
//     stores defs/uses in per-instruction heap vectors);
//   * branch targets — block indices, ready to index the block array;
//   * per-block timing — the schedule length plus the block's
//     sched::memoryPlan (which memory ops overlap their misses), the same
//     plan the reference walk charges from;
//   * call/ret marshalling — operand lists resolved into a shared pool so a
//     call copies register bits caller→callee frame without RawValue boxing.
//
// A DecodedProgram is immutable and self-contained (it copies the global
// image, the output symbol's range and the cache geometry), so
// fault::runCampaign builds it once and shares it read-only across all
// worker threads.
//
// Equivalence contract: for every program, schedule, machine and fault plan,
// runDecoded() must produce a RunResult field-for-field identical to the
// reference walk — cycles, stalls, instruction/def counts, cache hit/miss
// counts, trap kind, exit code and output snapshot.
// tests/engine_differential_test.cpp enforces this over random programs and
// random fault plans; when the two engines disagree, the reference walk is
// the oracle and the decoded engine is wrong.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/machine_config.h"
#include "ir/function.h"
#include "sched/schedule.h"
#include "sim/run_result.h"

namespace casted::sim {

struct SimOptions;
struct FaultPlan;

// A register operand resolved to its frame slot (used for the variable-arity
// operand lists of calls and returns, and for fault-injection targets).
struct DecodedReg {
  std::uint8_t cls = 0;  // raw ir::RegClass
  std::uint32_t slot = 0;
};

// One decoded instruction.  Fixed-arity operands live inline; kCall/kRet
// index the DecodedProgram operand pool.  Field usage by opcode:
//   * fixed arity: def/a/b/c are frame slots, imm the immediate (kFMovImm
//     keeps its double bit-cast into imm);
//   * kBr/kBrCond: t1 = taken target, t2 = not-taken target;
//   * kCall: t1 = callee function index, a = pool offset of the argument
//     list, b = argument count, c = pool offset of the return-def list,
//     defCount = return-def count;
//   * kRet: a = pool offset of the returned-value list, b = its count.
// useClass[i] is the raw ir::RegClass of a/b/c when that field is a
// register the op reads, else kNoUse (immediates, targets, pool fields,
// and kHalt's exit code, which the lockstep lanes read at the halt).  Only
// the lockstep lanes look at it, to find the ops that read a differing
// register; it fills what was padding.
struct MicroOp {
  static constexpr std::uint8_t kNoUse = 3;

  ir::Opcode op = ir::Opcode::kNop;
  std::uint8_t defClass = 0;   // raw ir::RegClass of defs[0] (defCount == 1)
  std::uint16_t defCount = 0;
  std::uint32_t def = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t t1 = 0;
  std::uint32_t t2 = 0;
  std::uint8_t useClass[3] = {kNoUse, kNoUse, kNoUse};
  std::int64_t imm = 0;
};
static_assert(sizeof(MicroOp) == 40, "MicroOp grew past its padding");

// Static per-block data: the micro-op range plus the timing summary, the
// schedule length and the block's cache-access plan (sched::memoryPlan).
// warmCycles bounds what one execution of the block can cost when every
// line it accesses is in the last level: schedLength + bundles x (the
// largest level latency - the base latency).  When the last level can
// evict an arena line it bounds the block whatever the cache state: each
// bundle is then charged the largest latency CacheHierarchy::access can
// return (DecodedProgram::coldPenalty is 0).
struct DecodedBlock {
  std::uint32_t firstOp = 0;
  std::uint32_t opCount = 0;
  std::uint32_t schedLength = 0;   // BlockSchedule::length
  std::uint32_t warmCycles = 0;
  sched::MemoryPlan plan;
};

struct DecodedFunction {
  std::string name;
  std::vector<MicroOp> ops;           // blocks flattened back to back
  std::vector<DecodedBlock> blocks;
  std::vector<DecodedReg> params;
  std::uint32_t regCount[3] = {0, 0, 0};  // frame slots per register class
  // Memory-op address slots per frame: the largest block's op count, so
  // a memory op records its address at its node.
  std::uint32_t addrSlots = 0;
};

// The immutable product of the decode pass.  Build once, run many times,
// share freely across threads.
class DecodedProgram {
 public:
  // `schedule` must have been produced from `program` with `config`, exactly
  // as for sim::simulate.
  static DecodedProgram build(const ir::Program& program,
                              const sched::ProgramSchedule& schedule,
                              const arch::MachineConfig& config);

  const std::vector<DecodedFunction>& functions() const { return funcs_; }
  const std::vector<DecodedReg>& pool() const { return pool_; }
  std::uint32_t entryFunction() const { return entry_; }
  // The range of the sim::kOutputSymbol global a run snapshots (size 0
  // when the program has none).
  std::uint64_t outputAddress() const { return outputAddress_; }
  std::uint64_t outputSize() const { return outputSize_; }
  const std::vector<std::uint8_t>& globalImage() const { return globalImage_; }
  const arch::CacheConfig& cacheConfig() const { return cacheConfig_; }
  std::uint32_t memBaseLatency() const { return memBaseLatency_; }
  // log2 of the smallest line size in the hierarchy: two addresses that
  // agree above it touch the same line at every level.
  std::uint32_t lineShift() const { return lineShift_; }
  // Whether the last level holds every line of the arena (the globals and
  // the heap) at once: no set receives more of the arena's lines than it
  // has ways, so a line, once filled, is never evicted.
  bool lastLevelKeepsArena() const { return keepsArena_; }
  // When the last level keeps the arena, what a bundle can pay beyond its
  // share of warmCycles for a line it misses there (the largest latency
  // CacheHierarchy::access can return - the largest level latency); else 0.
  std::uint32_t coldPenalty() const { return coldPenalty_; }

 private:
  DecodedProgram() = default;

  std::vector<DecodedFunction> funcs_;
  std::vector<DecodedReg> pool_;
  std::uint32_t entry_ = 0;
  std::uint64_t outputAddress_ = 0;
  std::uint64_t outputSize_ = 0;
  std::vector<std::uint8_t> globalImage_;
  arch::CacheConfig cacheConfig_;
  std::uint32_t memBaseLatency_ = 1;
  std::uint32_t lineShift_ = 0;
  bool keepsArena_ = false;
  std::uint32_t coldPenalty_ = 0;
};

// An opaque snapshot of a DecodedRunner's complete golden mid-run state:
// register arenas, call-stack frames, per-block scratch and run statistics,
// plus a mark in the runner's undo-logged memory and cache model.  Saved
// while the runner is paused at a dynamic def ordinal
// (DecodedRunner::runToDef) with no fault plan armed, and restored any
// number of times; restore cost is O(state touched since the save), not
// O(heap).  A checkpoint is bound to the runner that saved it and is
// invalidated by the runner's next saveCheckpoint(), begin(), run() or
// runLockstep() (enforced with a generation check).
class ArchCheckpoint {
 public:
  ArchCheckpoint();
  ~ArchCheckpoint();
  ArchCheckpoint(ArchCheckpoint&&) noexcept;
  ArchCheckpoint& operator=(ArchCheckpoint&&) noexcept;

  ArchCheckpoint(const ArchCheckpoint&) = delete;
  ArchCheckpoint& operator=(const ArchCheckpoint&) = delete;

  // Opaque payload, defined (and only complete) inside decoded.cpp.
  struct Data;

 private:
  friend class DecodedRunner;
  std::unique_ptr<Data> data_;
};

// How a lockstep lane ended (DecodedRunner::runLockstep).  The first four
// are exact decisions; the fallbacks leave the plan to a whole re-run from
// its stream's golden-prefix checkpoint.  A lane never times out on
// golden's addresses, because the watchdog admits the golden run; a lane
// whose addresses left golden's lines falls back as `timing` when its
// cycle bound passes the watchdog, whatever end it reached.
enum class LaneEnd : std::uint8_t {
  kDetected,         // a check read a differing operand and fired
  kException,        // the lane trapped on its own values
  kHalted,           // the run ended with the lane's diffs still live
  kReconverged,      // every diff died and no flip was pending
  kFallbackControl,  // a branch predicate differed
  kFallbackTiming,   // the lane's cycle bound exceeded the watchdog
};
inline constexpr std::size_t kLaneEndCount = 6;

const char* laneEndName(LaneEnd end);

inline bool isFallback(LaneEnd end) {
  return end >= LaneEnd::kFallbackControl;
}

// One plan's verdict.  For a decided lane, the faulty run of its plan would
// have ended as `end` says after exactly `dynamicInsns` instructions, with
// an exit code or output different from the golden run's iff `corrupt`
// (kHalted only; a reconverged lane ends as the golden run did, after
// golden's instruction count, whether it was decided at golden's end or,
// never having left golden's lines, where it reconverged).  A control
// fallback's `dynamicInsns` is the stream's count when it fell back (a
// timing fallback's, where it reached its end), and `rerun` is its plan's
// faulty run, field for field the whole run(options-with-plan).
struct LaneVerdict {
  LaneEnd end = LaneEnd::kReconverged;
  bool corrupt = false;
  bool diverged = false;         // an access left golden's line: bound live
  std::uint64_t dynamicInsns = 0;
  std::uint64_t laneOps = 0;     // ops this lane evaluated on its own values
  std::uint64_t injectedAt = 0;  // golden instructions at its first flip
  RunResult rerun;               // fallbacks only
};

// A count per opcode, indexed by ir::Opcode.
using OpcodeCounts =
    std::array<std::uint64_t, static_cast<std::size_t>(ir::Opcode::kOpcodeCount)>;

// The golden streams one runLockstep call ran, summed over them: the
// streams and the plans deferred from one to the next; the golden
// instructions in all, and before each stream's first flip (the whole run
// when that flip lies past the run's last def); the lane steps, golden ops
// (a flagged op, or a move of call arguments or returned values) that
// evaluated some lane; and the lane ops by the opcode of their step (the
// steps' batch widths), which sum to the lanes' LaneVerdict::laneOps.
struct LockstepStream {
  std::uint64_t streams = 0;
  std::uint64_t deferred = 0;
  std::uint64_t insns = 0;
  std::uint64_t prefixInsns = 0;
  std::uint64_t laneSteps = 0;
  OpcodeCounts laneOps{};
};

// A reusable execution context over one DecodedProgram: the memory image,
// cache hierarchy and register arenas are allocated once and recycled
// between runs in O(state the previous run touched) — the memory and cache
// undo logs rewound to run start — rather than O(arena size).  This is
// what makes the campaign's trial loop fast: a Monte Carlo trial executes
// ~10^4 instructions, while rebuilding megabytes of image and cache sets
// per trial costs as much as running them.  Each campaign worker owns one
// runner; a runner is single-threaded, the shared DecodedProgram read-only.
//
// A runner has three kinds of run — whole (run), stepwise (begin ...
// finish) and lockstep (runLockstep) — with one lifecycle: each starts by
// resetting the context and pushing the entry frame, and ends when a halt,
// an entry return (exit code 0), a check, a trap or the watchdog stops it.
class DecodedRunner {
 public:
  explicit DecodedRunner(const DecodedProgram& program);
  ~DecodedRunner();

  DecodedRunner(const DecodedRunner&) = delete;
  DecodedRunner& operator=(const DecodedRunner&) = delete;

  // Executes the program once under `options`.  Every run starts from the
  // same architectural state as a fresh context (the equivalence contract
  // holds run by run, regardless of what ran before).
  RunResult run(const SimOptions& options);

  // ---- Stepwise execution (checkpoint-and-diverge injection) ----
  //
  // A run driven in pieces instead of whole (runLockstep re-runs its
  // fallbacks this way):
  //
  //   runner.begin(options);                 // options.faultPlan must be null
  //   runner.runToDef(d);                    // golden prefix, once per def
  //   runner.saveCheckpoint(cp);
  //   for (each site at d) {
  //     runner.restoreCheckpoint(cp);
  //     runner.injectAtPause(plan);          // plan.points[0].ordinal == d
  //     RunResult faulty = runner.finish();
  //   }
  //
  // The pause point sits inside the def bookkeeping of the instruction that
  // produced dynamic def ordinal `d`: after its execution and def-count /
  // def-trace accounting, immediately before the fault-injection check —
  // exactly where a FaultPlan targeting `d` takes effect.  A finished run
  // yields a RunResult field-for-field identical to run(options-with-plan);
  // tests/engine_differential_test.cpp and the driver oracle tests enforce
  // this.

  // Starts a stepwise run.  `options.faultPlan` and `options.defTrace` must
  // be null (faults enter via injectAtPause; a def trace cannot be rewound).
  void begin(const SimOptions& options);

  // Advances to the pause point of def ordinal `ordinal` (>= the current
  // position).  Returns true when paused there; false when the run finished
  // first (its result is then available via finish()).
  bool runToDef(std::uint64_t ordinal);

  // The def ordinal of the current pause point.  Only valid while paused.
  std::uint64_t pausedOrdinal() const;

  // Snapshot / restore of the paused state.  save overwrites `out` (and
  // invalidates any previous checkpoint of this runner) and throws
  // FatalError once injectAtPause armed a plan: a checkpoint is a golden
  // state.  restore requires the runner's latest checkpoint and disarms
  // the plan.
  void saveCheckpoint(ArchCheckpoint& out);
  void restoreCheckpoint(const ArchCheckpoint& checkpoint);

  // Injects `plan` while paused; plan.points[0].ordinal must equal
  // pausedOrdinal() (later points fire during finish()).  `plan` must
  // outlive the run.
  void injectAtPause(const FaultPlan& plan);

  // Runs the paused (or already finished) stepwise run to completion and
  // returns its result.  Each call adds one run to the trace's
  // sim.decoded.* counters, and what it executed since begin() or the last
  // restoreCheckpoint(): a restored run's checkpointed prefix counts once,
  // where it ran, not again in every run restored from it.
  RunResult finish();

  // ---- Lockstep lanes (DESIGN.md §10, "Lockstep lanes") ----
  //
  // Decides any number of fault plans, in any order, against as few golden
  // streams as the lane slots allow: each stream is the fault-free run
  // under `options` (faultPlan and defTrace null; maxCycles is the
  // watchdog every plan runs under, and must admit the fault-free run: a
  // golden stream that times out throws FatalError), and `goldenInsns` is
  // that run's instruction count (GoldenProfile::result); a stream that
  // reaches the end with another count throws FatalError.  A stream runs
  // the prefix with the plain interpreter up to its first plan's first
  // flip and saves a checkpoint there.  From there, in first-ordinal order
  // (ties by index), each plan takes one of kMaxLanes lane slots at its
  // first flip and frees it when decided; a plan that finds every slot
  // taken is deferred to a further stream, which starts from reset.  A
  // lane holds only its pending flips and the registers and aligned memory
  // words where its values differ from the golden run's; an op costs lane
  // work only when it reads a differing value, and a stream stops once
  // every plan it holds is decided or deferred.  An undiverged lane that
  // reconverges is decided where it does.  verdicts[i] receives plans[i]'s
  // verdict; a decided verdict matches a whole run(options-with-plan) in
  // exit kind, instruction count and output/exit-code agreement.  After
  // each stream the runner re-runs that stream's fallen-back lanes from
  // its checkpoint, in injection order (ties by index), rolling the
  // checkpoint forward to a later ordinal first; each re-run runs to its
  // natural end and counts in sim.decoded.* what it ran past the
  // checkpoint it restored.  Ends the runner's stepwise run (begin() again
  // before runToDef).
  static constexpr std::size_t kMaxLanes = 256;
  LockstepStream runLockstep(const SimOptions& options,
                             const std::vector<const FaultPlan*>& plans,
                             std::vector<LaneVerdict>& verdicts,
                             std::uint64_t goldenInsns);

  // The decoded interpreter itself (decoded.cpp).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

// DecodedRunner(program).run(options): one run in a fresh context.
// `options.faultPlan`, `maxCycles` and `defTrace` behave exactly as in the
// reference engine; `options.engine` is ignored (this IS the decoded
// engine).
RunResult runDecoded(const DecodedProgram& program, const SimOptions& options);

}  // namespace casted::sim
