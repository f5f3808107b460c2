// Shared plumbing of the two injection drivers (campaign.cpp and
// exhaustive.cpp): the golden run, the per-worker executor every faulty run
// goes through, and the one worker loop over fault sites.
//
// Everything here is an implementation detail of the fault library —
// callers use runCampaign / enumerateFaultSpace.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.h"
#include "sim/decoded.h"
#include "sim/simulator.h"
#include "support/trace.h"

namespace casted::fault::detail {

// One fault-free run under `simOptions` with the plan stripped, on the
// decoded engine when `decoded` is non-null and on the reference engine
// otherwise; `trace`, when non-null, receives the def-site trace (golden
// runs are the only place a trace is legal).
sim::RunResult runGolden(const ir::Program& program,
                         const sched::ProgramSchedule& schedule,
                         const arch::MachineConfig& config,
                         const sim::SimOptions& simOptions,
                         const sim::DecodedProgram* decoded,
                         std::vector<sim::DefSite>* trace = nullptr);

// Wraps a fault-free run into a GoldenProfile, checking it halted cleanly
// and executed at least one def.
GoldenProfile toProfile(sim::RunResult result);

// Resolves a requested worker count: 0 means one per hardware thread, and
// no driver spawns more workers than it has work items.
std::uint32_t resolveThreads(std::uint32_t requested, std::uint64_t workItems);

// Runs `body(workerIndex)` on `threads` workers.  threads <= 1 runs inline
// on the calling thread (exceptions propagate naturally); otherwise each
// worker's first exception is captured and the first one rethrown after the
// join.
void runWorkerPool(std::uint32_t threads,
                   const std::function<void(std::uint32_t)>& body);

// One trial's verdict: what the campaign report needs of a faulty run.
struct TrialVerdict {
  Outcome outcome = Outcome::kBenign;
  std::uint64_t dynamicInsns = 0;
};

// The one way a driver executes a faulty run.  Each worker owns one, and
// it is exactly one of three strategies, fixed at construction:
//   * decoded engine, InjectionMode::kCheckpointed — checkpoint-and-diverge
//     over a stepwise DecodedRunner.  The first run() replays the golden
//     prefix up to the plan's injection ordinal and snapshots there; later
//     runs at the SAME ordinal restore the snapshot (O(state the faulty
//     suffix touched)) instead of re-executing the prefix, and a LARGER
//     ordinal rolls the snapshot forward.  Ordinals must therefore be
//     non-decreasing across run() calls.  Every faulty suffix runs to its
//     natural end.  runWindow() decides a window of plans as lockstep lanes
//     of one golden stream on the same runner;
//   * decoded engine, InjectionMode::kFull — a whole DecodedRunner::run;
//   * reference engine (either mode) — a whole sim::simulate.
//
// Bit-identity contract: run(plan) returns a RunResult field-for-field
// identical to a fresh full run under `armedOptions` with `plan` attached,
// and runWindow() the classification and instruction count of such runs.
class SiteExecutor {
 public:
  // `armedOptions` is the worker's ready-to-run configuration (watchdog
  // applied, faultPlan and defTrace null).  The program, schedule, config
  // and `decoded` (null for the reference engine) must outlive the
  // executor.
  SiteExecutor(const ir::Program& program,
               const sched::ProgramSchedule& schedule,
               const arch::MachineConfig& config,
               const sim::DecodedProgram* decoded, InjectionMode mode,
               const sim::SimOptions& armedOptions);

  // Executes one faulty run for `plan` (points[0] is the injection point;
  // later points fire downstream).  `plan` only needs to live for the call.
  sim::RunResult run(const sim::FaultPlan& plan);

  // Decides every plan of `window` (sorted by injection ordinal, at most
  // sim::DecodedRunner::kMaxLanes plans) into out[i], classified against
  // `golden`.  The checkpointed strategy runs the window as lockstep lanes
  // (DecodedRunner::runLockstep) and re-runs the lanes lockstep cannot
  // decide exactly through run(), in ordinal order, after the stream; it
  // counts the lanes as "fault.campaign.lockstep.*".  The others run each
  // plan whole.  Must not be interleaved with run() calls that expect the
  // previous checkpoint.
  void runWindow(std::span<const sim::FaultPlan> window,
                 const GoldenProfile& golden, std::vector<TrialVerdict>& out);

 private:
  sim::RunResult resume(const sim::FaultPlan& plan);

  const ir::Program& program_;
  const sched::ProgramSchedule& schedule_;
  const arch::MachineConfig& config_;
  sim::SimOptions options_;
  std::optional<sim::DecodedRunner> runner_;  // empty: reference engine
  bool checkpointed_ = false;
  sim::ArchCheckpoint checkpoint_;
  bool started_ = false;
  std::uint64_t ordinal_ = 0;  // ordinal of the live checkpoint
  std::vector<const sim::FaultPlan*> lanePlans_;  // runWindow scratch
  std::vector<sim::LaneVerdict> laneVerdicts_;
};

// The fault-site loop both drivers run through.  Construction does the
// shared preamble inside a "fault.<driver>" trace scope that lives as long
// as the loop: engine selection (decode once, shared read-only by every
// worker), the golden run ("fault.<driver>.golden"), and the armed worker
// options (watchdog at golden.cycles * timeoutFactor).  run() then hands N
// work items, in chunks, to a pool of workers over an atomic cursor, each
// worker with its own SiteExecutor and accumulator.
class FaultSiteLoop {
 public:
  // `driver` names the trace scopes, counters and heartbeat ("campaign",
  // "exhaustive").  `defTrace`, when non-null, receives the golden run's
  // def-site trace.  `decoded`, when given, must have been built from
  // exactly (program, schedule, config) and outlive the loop.
  FaultSiteLoop(std::string_view driver, const ir::Program& program,
                const sched::ProgramSchedule& schedule,
                const arch::MachineConfig& config,
                const sim::SimOptions& simOptions, InjectionMode mode,
                std::uint64_t timeoutFactor, std::uint32_t threads,
                const sim::DecodedProgram* decoded,
                std::vector<sim::DefSite>* defTrace = nullptr);

  FaultSiteLoop(const FaultSiteLoop&) = delete;
  FaultSiteLoop& operator=(const FaultSiteLoop&) = delete;

  const GoldenProfile& golden() const { return golden_; }

  // Calls visit(accumulator, first, last, executor) once for every chunk
  // [first, last) of consecutive items in [0, items) and returns the
  // per-worker accumulators, each started from `init`.  Chunks are as even
  // as possible, at most `maxChunk` items, and as few as lets every worker
  // claim one (300 items, 1 worker, maxChunk 256: two chunks of 150).  A
  // worker claims chunks in ascending order, so a stream sorted by
  // injection ordinal reaches every executor non-decreasing.  Items
  // completed per worker are counted as "fault.<driver>.<unit>" and
  // "fault.<driver>.worker<w>.<unit>", and CASTED_PROGRESS=N prints a
  // heartbeat every N seconds.  Which worker ran which chunk varies from
  // run to run, so the caller's merge must not depend on it.
  template <typename Accumulator, typename Visit>
  std::vector<Accumulator> run(std::uint64_t items, std::uint64_t maxChunk,
                               std::string_view unit, const Accumulator& init,
                               Visit visit) {
    const std::uint64_t chunk = evenChunk(items, maxChunk);
    std::vector<Accumulator> partial(
        resolveThreads(threads_, (items + chunk - 1) / chunk), init);
    runChunks(items, chunk, unit, static_cast<std::uint32_t>(partial.size()),
              [&](std::uint32_t w, std::uint64_t first, std::uint64_t last,
                  SiteExecutor& executor) {
                visit(partial[w], first, last, executor);
              });
    return partial;
  }

 private:
  using ChunkVisit = std::function<void(std::uint32_t, std::uint64_t,
                                        std::uint64_t, SiteExecutor&)>;
  void runChunks(std::uint64_t items, std::uint64_t chunk,
                 std::string_view unit, std::uint32_t threads,
                 const ChunkVisit& visit);
  // The chunk size run() splits `items` into (see there).
  std::uint64_t evenChunk(std::uint64_t items, std::uint64_t maxChunk) const;
  // "fault.<driver><suffix>" while a trace session is active, else empty:
  // the disabled path builds no names (an inactive Scope ignores its name).
  std::string traceName(std::string_view suffix) const;

  std::string driver_;
  trace::Scope scope_;  // "fault.<driver>", open for the loop's lifetime
  const ir::Program& program_;
  const sched::ProgramSchedule& schedule_;
  const arch::MachineConfig& config_;
  InjectionMode mode_;
  std::uint32_t threads_;
  std::optional<sim::DecodedProgram> ownedDecode_;
  const sim::DecodedProgram* decoded_ = nullptr;  // null: reference engine
  GoldenProfile golden_;
  sim::SimOptions armedOptions_;
};

}  // namespace casted::fault::detail
