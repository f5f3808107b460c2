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

// The one way a driver decides fault sites: a window of plans at a time.
// Each worker owns one executor, and it is exactly one of three strategies,
// fixed at construction:
//   * decoded engine, InjectionMode::kCheckpointed — the window runs as
//     lockstep lanes of as few golden streams as the lane slots allow
//     (DecodedRunner::runLockstep), which also re-runs the lanes it cannot
//     decide exactly from their stream's golden-prefix checkpoint; the
//     executor classifies each verdict;
//   * decoded engine, InjectionMode::kFull — a whole DecodedRunner::run per
//     plan;
//   * reference engine (either mode) — a whole sim::simulate per plan.
//
// Bit-identity contract: runWindow() yields the classification and
// instruction count of a fresh full run under `armedOptions` with each plan
// attached.
class SiteExecutor {
 public:
  // `armedOptions` is the worker's ready-to-run configuration (watchdog
  // applied, faultPlan and defTrace null).  The lockstep lanes are counted
  // as "<lockstepCounters><name>", e.g. "fault.campaign.lockstep.lanes";
  // "diverged" counts the lanes whose cycle bound went live (an access
  // left golden's line), "streams" the golden streams, "deferred" the
  // plans moved to a later stream of their window, "stream_insns" adds the
  // golden streams' instructions, "prefix_insns" the part before each
  // stream's first flip, "fallback_insns.<reason>"
  // what those fallbacks ran past their injection point (a timing check
  // up to where it stopped), "fallback_outcome.<reason>.<outcome>" how
  // they ended, and "timing_safe" the timing checks that stopped at their
  // safe point.
  // The program, schedule, config and `decoded` (null for the reference
  // engine) must outlive the executor.
  SiteExecutor(const ir::Program& program,
               const sched::ProgramSchedule& schedule,
               const arch::MachineConfig& config,
               const sim::DecodedProgram* decoded, InjectionMode mode,
               const sim::SimOptions& armedOptions,
               std::string lockstepCounters);

  // Decides every plan of `window` (any number, in any order; points[0] is
  // each plan's injection point, later points fire downstream) into
  // out[i], classified against `golden`.  No state carries over from one
  // call to the next.
  void runWindow(std::span<const sim::FaultPlan> window,
                 const GoldenProfile& golden, std::vector<TrialVerdict>& out);

 private:
  const ir::Program& program_;
  const sched::ProgramSchedule& schedule_;
  const arch::MachineConfig& config_;
  sim::SimOptions options_;
  std::optional<sim::DecodedRunner> runner_;  // empty: reference engine
  bool checkpointed_ = false;
  std::string lockstepCounters_;
  // runWindow scratch, reused for its allocations only.
  std::vector<const sim::FaultPlan*> lanePlans_;
  std::vector<sim::LaneVerdict> laneVerdicts_;
};

// The fault-site loop both drivers run through.  Construction does the
// shared preamble inside a "fault.<driver>" trace scope that lives as long
// as the loop: engine selection (decode once, shared read-only by every
// worker), the golden run ("fault.<driver>.golden"), and the armed worker
// options (watchdog at golden.cycles * timeoutFactor, which must admit the
// golden run: a factor of 0 or an overflowing product throws FatalError).
// run() then hands N work items, in chunks, to a pool of workers over an
// atomic cursor, each worker with its own SiteExecutor and accumulator.
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
  // claim one (300 items, no cap: one chunk of 300 on 1 worker, four of 75
  // on 4; maxChunk 256 on 1 worker: two of 150).  Items
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
