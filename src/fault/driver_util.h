// Shared plumbing of the two injection drivers (campaign.cpp and
// exhaustive.cpp): engine selection, golden profiling, worker-pool
// scaffolding, and the checkpoint-and-diverge sweep that both drivers run
// their faulty executions through in InjectionMode::kCheckpointed.
//
// Everything here is an implementation detail of the fault library —
// callers use runCampaign / enumerateFaultSpace.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/campaign.h"
#include "sim/decoded.h"
#include "sim/simulator.h"

namespace casted::fault::detail {

// The per-driver engine decision: with the decoded engine, reuse the
// caller's decode or build (and own) one; with the reference engine, run
// without a decode.  `decoded` is null exactly when the reference engine
// was requested.
struct EngineChoice {
  std::optional<sim::DecodedProgram> owned;
  const sim::DecodedProgram* decoded = nullptr;
};

EngineChoice chooseEngine(const ir::Program& program,
                          const sched::ProgramSchedule& schedule,
                          const arch::MachineConfig& config,
                          const sim::SimOptions& simOptions,
                          const sim::DecodedProgram* decoded);

// One fault-free run under `simOptions` with the plan stripped, on whichever
// engine `choice` selected; `trace`, when non-null, receives the def-site
// trace (golden runs are the only place a trace is legal).
sim::RunResult runGolden(const ir::Program& program,
                         const sched::ProgramSchedule& schedule,
                         const arch::MachineConfig& config,
                         const sim::SimOptions& simOptions,
                         const EngineChoice& choice,
                         std::vector<sim::DefSite>* trace = nullptr);

// Wraps a fault-free run into a GoldenProfile, checking it halted cleanly
// and executed at least one def.
GoldenProfile toProfile(sim::RunResult result);

// Resolves a requested worker count: 0 means one per hardware thread, and
// no driver spawns more workers than it has work items.
std::uint32_t resolveThreads(std::uint32_t requested, std::uint64_t workItems);

// Progress heartbeat for the injection drivers.  Workers tick add() once
// per completed work item; while the pool runs, a monitor thread prints a
// heartbeat line with completion, rate and ETA to stderr every interval:
//
//   [casted] campaign trials: 4500/30000 (15.0%) | 1234.5/s | ETA 20.7s
//
// Activation: the driver option (CampaignOptions::progress /
// ExhaustiveOptions::progress) turns it on at the default interval; the
// CASTED_PROGRESS env var overrides both ways (0 forces it off, N > 0
// forces it on with an N-second interval).  stderr only — the meter never
// feeds back into a report, so determinism is untouched.
class ProgressMeter {
 public:
  // `label` names the work unit in the heartbeat line (e.g. "campaign
  // trials"); `total` is the work-item count ETA is computed against.
  ProgressMeter(std::string label, std::uint64_t total, bool enabledOption);

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  // One relaxed atomic add — cheap enough to tick unconditionally from the
  // trial loop.
  void add(std::uint64_t n = 1) {
    done_.fetch_add(n, std::memory_order_relaxed);
  }

  bool active() const { return active_; }

 private:
  friend class PoolMonitor;

  std::string label_;
  std::uint64_t total_ = 0;
  std::uint32_t intervalSeconds_ = 0;
  bool active_ = false;
  std::atomic<std::uint64_t> done_{0};
};

// Runs `body(workerIndex)` on `threads` workers.  threads <= 1 runs inline
// on the calling thread (exceptions propagate naturally); otherwise each
// worker's first exception is captured and the first one rethrown after the
// join, exactly like the historical per-driver pools.  When `progress` is
// non-null and active, a monitor thread prints its heartbeat for the
// duration of the pool (including the inline threads <= 1 path, where long
// serial sweeps need the heartbeat most).
void runWorkerPool(std::uint32_t threads,
                   const std::function<void(std::uint32_t)>& body,
                   ProgressMeter* progress = nullptr);

// The checkpoint-and-diverge execution strategy, shared by both drivers.
//
// A sweep owns one DecodedRunner and drives it stepwise: the first run()
// replays the golden prefix up to the plan's injection ordinal and
// snapshots there; subsequent runs at the SAME ordinal restore the
// snapshot (O(state the faulty suffix touched)) instead of re-executing
// the prefix, and a LARGER ordinal rolls the snapshot forward.  Ordinals
// must therefore be non-decreasing across run() calls — both drivers
// arrange their work streams that way (enumeration is ordinal-major by
// construction; the campaign sorts each worker's trial stream).  Every
// faulty suffix runs to its natural end.
//
// Bit-identity contract: run(plan) returns a RunResult field-for-field
// identical to a fresh full run under `armedOptions` with `plan` attached.
class CheckpointSweep {
 public:
  // `armedOptions` is the worker's ready-to-run configuration (watchdog
  // applied, faultPlan and defTrace null); `decoded` must outlive the
  // sweep.
  CheckpointSweep(const sim::DecodedProgram& decoded,
                  const sim::SimOptions& armedOptions);

  // Executes one faulty run for `plan` (points[0] is the injection point;
  // later points fire downstream).  `plan` only needs to live for the call.
  sim::RunResult run(const sim::FaultPlan& plan);

 private:
  sim::DecodedRunner runner_;
  sim::ArchCheckpoint checkpoint_;
  sim::SimOptions options_;
  bool started_ = false;
  std::uint64_t ordinal_ = 0;  // ordinal of the live checkpoint
};

}  // namespace casted::fault::detail
