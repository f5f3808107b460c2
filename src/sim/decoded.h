// The decoded execution engine: a one-time per-program decode pass that
// flattens each function into dense micro-op arrays so the hot trial loop of
// the fault campaign never touches ir::Instruction again.
//
// What the decode resolves statically (all of which the reference walk in
// simulator.cpp re-derives on every visit):
//   * operands — frame-slot offsets held inline in the micro-op (the IR
//     stores defs/uses in per-instruction heap vectors);
//   * branch targets — block indices, ready to index the block array;
//   * per-block timing — the schedule length plus the cycle-sorted memory
//     bundle plan (which memory ops overlap their misses), precomputed from
//     the static VLIW schedule;
//   * call/ret marshalling — operand lists resolved into a shared pool so a
//     call copies register bits caller→callee frame without RawValue boxing.
//
// A DecodedProgram is immutable and self-contained (it copies the global
// image, symbol table and cache geometry), so fault::runCampaign builds it
// once and shares it read-only across all worker threads.
//
// Equivalence contract: for every program, schedule, machine and fault plan,
// runDecoded() must produce a RunResult field-for-field identical to the
// reference walk — cycles, stalls, instruction/def counts, cache hit/miss
// counts, trap kind, exit code and output snapshot.
// tests/engine_differential_test.cpp enforces this over random programs and
// random fault plans; when the two engines disagree, the reference walk is
// the oracle and the decoded engine is wrong.
#pragma once

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

// Static per-block data: the micro-op range plus the precomputed timing
// summary (schedule length, cycle-sorted memory plan and its same-cycle
// bundle partition).  worstCycles bounds what one execution of the block
// can cost whatever the cache state: schedLength + bundleCount x (the
// largest latency CacheHierarchy::access can return - the base latency).
struct DecodedBlock {
  std::uint32_t firstOp = 0;
  std::uint32_t opCount = 0;
  std::uint32_t schedLength = 0;   // BlockSchedule::length
  std::uint32_t planFirst = 0;     // into DecodedFunction::memPlan
  std::uint32_t planCount = 0;
  std::uint32_t bundleFirst = 0;   // into DecodedFunction::bundleSizes
  std::uint32_t bundleCount = 0;
  std::uint32_t worstCycles = 0;
};

struct DecodedFunction {
  std::string name;
  std::vector<MicroOp> ops;           // blocks flattened back to back
  std::vector<DecodedBlock> blocks;
  // Memory-op node indices in the exact cache-access order of the reference
  // walk (sorted by issue cycle with the reference's own comparator), and
  // the sizes of the same-cycle bundles partitioning that order.
  std::vector<std::uint32_t> memPlan;
  std::vector<std::uint32_t> bundleSizes;
  std::vector<DecodedReg> params;
  std::uint32_t regCount[3] = {0, 0, 0};  // frame slots per register class
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
  const std::vector<ir::GlobalSymbol>& symbols() const { return symbols_; }
  const std::vector<std::uint8_t>& globalImage() const { return globalImage_; }
  const arch::CacheConfig& cacheConfig() const { return cacheConfig_; }
  std::uint32_t memBaseLatency() const { return memBaseLatency_; }
  std::size_t maxBlockInsns() const { return maxBlockInsns_; }

 private:
  DecodedProgram() = default;

  std::vector<DecodedFunction> funcs_;
  std::vector<DecodedReg> pool_;
  std::uint32_t entry_ = 0;
  std::vector<ir::GlobalSymbol> symbols_;
  std::vector<std::uint8_t> globalImage_;
  arch::CacheConfig cacheConfig_;
  std::uint32_t memBaseLatency_ = 1;
  std::size_t maxBlockInsns_ = 0;
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

// How a lockstep lane ended (DecodedRunner::runLockstep).  The first five
// are exact decisions; the fallbacks leave the plan to a stepwise run.
enum class LaneEnd : std::uint8_t {
  kDetected,         // a check read a differing operand and fired
  kException,        // the lane trapped on its own values
  kHalted,           // the run ended with the lane's diffs still live
  kReconverged,      // every diff died and no flip was pending
  kTimeout,          // the golden stream's watchdog expired
  kFallbackControl,  // a branch predicate differed
  kFallbackTiming,   // the lane's cycle bound exceeded the watchdog
  kFallbackBudget,   // the lane cost more lane ops than its budget
};
inline constexpr std::size_t kLaneEndCount = 8;

const char* laneEndName(LaneEnd end);

inline bool isFallback(LaneEnd end) {
  return end >= LaneEnd::kFallbackControl;
}

// One lane's verdict.  For a decided lane, the faulty run of its plan would
// have ended as `end` says after exactly `dynamicInsns` instructions, with
// an exit code or output different from the golden run's iff `corrupt`
// (kHalted only; a reconverged lane ends as the golden run did).
struct LaneVerdict {
  LaneEnd end = LaneEnd::kReconverged;
  bool corrupt = false;
  std::uint64_t dynamicInsns = 0;
  std::uint64_t laneOps = 0;  // ops this lane evaluated on its own values
};

// A reusable execution context over one DecodedProgram: the memory image,
// cache hierarchy and register arenas are allocated once and recycled
// between runs in O(state the previous run touched) — the memory and cache
// undo logs rewound to run start — rather than O(arena size).  This is
// what makes the campaign's trial loop fast: a Monte Carlo trial executes
// ~10^4 instructions, while rebuilding megabytes of image and way arrays
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
  // The injection drivers drive a run in pieces instead of whole:
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
  // returns its result.  Each call adds the run to the trace's
  // sim.decoded.* counters, as run() does.
  RunResult finish();

  // ---- Lockstep lanes (DESIGN.md §10, "Lockstep lanes") ----
  //
  // Decides up to kMaxLanes fault plans against ONE golden stream: the
  // fault-free run under `options` (faultPlan and defTrace null; maxCycles
  // is the watchdog every plan runs under).  Each plan is a lane that holds
  // only its pending flips and the registers and aligned memory words where
  // its values differ from the golden run's; an op costs lane work only
  // when it reads a differing value.  verdicts[i] receives plans[i]'s
  // verdict; a decided verdict matches a whole run(options-with-plan) in
  // exit kind, instruction count and output/exit-code agreement.  Ends the
  // runner's stepwise run (begin() again before runToDef).
  static constexpr std::size_t kMaxLanes = 256;
  void runLockstep(const SimOptions& options,
                   const std::vector<const FaultPlan*>& plans,
                   std::vector<LaneVerdict>& verdicts);

  // The decoded interpreter itself (decoded.cpp).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

// DecodedRunner(program).run(options): one run in a fresh context.
// `options.faultPlan`, `maxCycles`, `heapBytes`, `maxCallDepth` and
// `outputSymbol` behave exactly as in the reference engine;
// `options.engine` is ignored (this IS the decoded engine).
RunResult runDecoded(const DecodedProgram& program, const SimOptions& options);

}  // namespace casted::sim
