#include "fault/driver_util.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "ir/opcode.h"
#include "support/check.h"
#include "support/env.h"

namespace casted::fault::detail {

sim::RunResult runGolden(const ir::Program& program,
                         const sched::ProgramSchedule& schedule,
                         const arch::MachineConfig& config,
                         const sim::SimOptions& simOptions,
                         const sim::DecodedProgram* decoded,
                         std::vector<sim::DefSite>* trace) {
  sim::SimOptions goldenOptions = simOptions;
  goldenOptions.faultPlan = nullptr;
  goldenOptions.defTrace = trace;
  return decoded != nullptr
             ? sim::runDecoded(*decoded, goldenOptions)
             : sim::simulate(program, schedule, config, goldenOptions);
}

GoldenProfile toProfile(sim::RunResult result) {
  GoldenProfile profile;
  profile.result = std::move(result);
  CASTED_CHECK(profile.result.exit == sim::ExitKind::kHalted)
      << "golden run did not halt cleanly ("
      << sim::exitKindName(profile.result.exit) << ")";
  profile.defInsns = profile.result.stats.dynamicDefInsns;
  profile.cycles = profile.result.stats.cycles;
  CASTED_CHECK(profile.defInsns > 0) << "program executed no instructions";
  return profile;
}

std::uint32_t resolveThreads(std::uint32_t requested,
                             std::uint64_t workItems) {
  std::uint32_t threads = requested;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      threads, std::max<std::uint64_t>(workItems, 1)));
}

namespace {

// Progress heartbeat for one run of the fault-site loop.  Workers tick
// add() once per completed work item; while the meter lives and
// CASTED_PROGRESS=N (N > 0) is set, a monitor thread prints completion,
// rate and ETA to stderr every N seconds:
//
//   [casted] campaign trials: 4500/30000 (15.0%) | 1234.5/s | ETA 20.7s
//
// The destructor stops and joins the monitor on every exit path, including
// a rethrown worker exception.  stderr only — the meter never feeds back
// into a report, so determinism is untouched.
class ProgressMeter {
 public:
  ProgressMeter(std::string label, std::uint64_t total)
      : label_(std::move(label)),
        total_(total),
        // Parsed with the validated helper, so CASTED_PROGRESS=junk dies
        // loudly instead of silently disabling the heartbeat.
        interval_(envU32("CASTED_PROGRESS", 0)) {
    if (interval_.count() > 0) {
      start_ = std::chrono::steady_clock::now();
      thread_ = std::thread([this] { loop(); });
    }
  }

  ~ProgressMeter() {
    if (!thread_.joinable()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  // One relaxed atomic add — cheap enough to tick unconditionally from the
  // worker loop, once per chunk.
  void add(std::uint64_t items) {
    done_.fetch_add(items, std::memory_order_relaxed);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, interval_, [this] { return stop_; })) {
      printHeartbeat();
    }
  }

  void printHeartbeat() const {
    const std::uint64_t done = done_.load(std::memory_order_relaxed);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed
                                      : 0.0;
    const double pct =
        total_ == 0 ? 100.0
                    : 100.0 * static_cast<double>(done) /
                          static_cast<double>(total_);
    if (rate > 0.0 && done < total_) {
      const double eta = static_cast<double>(total_ - done) / rate;
      std::fprintf(stderr,
                   "[casted] %s: %llu/%llu (%.1f%%) | %.1f/s | ETA %.1fs\n",
                   label_.c_str(), static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total_), pct, rate, eta);
    } else {
      std::fprintf(stderr, "[casted] %s: %llu/%llu (%.1f%%) | %.1f/s\n",
                   label_.c_str(), static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total_), pct, rate);
    }
    std::fflush(stderr);
  }

  std::string label_;
  std::uint64_t total_ = 0;
  std::chrono::seconds interval_;
  std::atomic<std::uint64_t> done_{0};
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // last: it uses every member above
};

}  // namespace

void runWorkerPool(std::uint32_t threads,
                   const std::function<void(std::uint32_t)>& body) {
  if (threads <= 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::uint32_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      try {
        body(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

SiteExecutor::SiteExecutor(const ir::Program& program,
                           const sched::ProgramSchedule& schedule,
                           const arch::MachineConfig& config,
                           const sim::DecodedProgram* decoded,
                           InjectionMode mode,
                           const sim::SimOptions& armedOptions,
                           std::string lockstepCounters)
    : program_(program),
      schedule_(schedule),
      config_(config),
      options_(armedOptions),
      checkpointed_(decoded != nullptr &&
                    mode == InjectionMode::kCheckpointed),
      lockstepCounters_(std::move(lockstepCounters)) {
  CASTED_CHECK(options_.faultPlan == nullptr && options_.defTrace == nullptr)
      << "executor options must arrive with no plan and no trace";
  if (decoded != nullptr) {
    runner_.emplace(*decoded);
  }
}

void SiteExecutor::runWindow(std::span<const sim::FaultPlan> window,
                             const GoldenProfile& golden,
                             std::vector<TrialVerdict>& out) {
  out.resize(window.size());
  const auto verdictOf = [&](const sim::RunResult& faulty) {
    return TrialVerdict{classify(faulty, golden), faulty.stats.dynamicInsns};
  };
  // An exact lane end as the whole run's verdict.
  const auto exactVerdict = [](sim::LaneEnd end, const sim::LaneVerdict& lane) {
    switch (end) {
      case sim::LaneEnd::kDetected:
        return TrialVerdict{Outcome::kDetected, lane.dynamicInsns};
      case sim::LaneEnd::kException:
        return TrialVerdict{Outcome::kException, lane.dynamicInsns};
      default:  // kHalted, kReconverged
        return TrialVerdict{
            lane.corrupt ? Outcome::kDataCorrupt : Outcome::kBenign,
            lane.dynamicInsns};
    }
  };
  if (!checkpointed_) {
    for (std::size_t i = 0; i < window.size(); ++i) {
      options_.faultPlan = &window[i];
      out[i] = verdictOf(
          runner_.has_value()
              ? runner_->run(options_)
              : sim::simulate(program_, schedule_, config_, options_));
    }
    options_.faultPlan = nullptr;
    return;
  }
  lanePlans_.clear();
  for (const sim::FaultPlan& plan : window) {
    lanePlans_.push_back(&plan);
  }
  const sim::LockstepStream stream = runner_->runLockstep(
      options_, lanePlans_, laneVerdicts_, golden.result.stats.dynamicInsns);
  std::array<std::int64_t, sim::kLaneEndCount> ends = {};
  std::array<std::int64_t, sim::kLaneEndCount> laneOps = {};
  // Per fallback reason, the instructions the fallbacks ran past their
  // injection point, and how they ended; the timing checks that stopped at
  // their safe point.
  std::array<std::int64_t, sim::kLaneEndCount> fallbackInsns = {};
  std::array<std::array<std::int64_t, kOutcomeCount>, sim::kLaneEndCount>
      fallbackOutcomes = {};
  std::int64_t timingSafe = 0;
  std::int64_t diverged = 0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const sim::LaneVerdict& lane = laneVerdicts_[i];
    const auto e = static_cast<std::size_t>(lane.end);
    laneOps[e] += static_cast<std::int64_t>(lane.laneOps);
    ++ends[e];
    diverged += lane.diverged ? 1 : 0;
    if (!sim::isFallback(lane.end)) {
      out[i] = exactVerdict(lane.end, lane);
      continue;
    }
    out[i] = lane.safe ? exactVerdict(lane.reached, lane)
                       : verdictOf(lane.rerun);
    timingSafe += lane.safe ? 1 : 0;
    fallbackInsns[e] += static_cast<std::int64_t>(
        lane.rerun.stats.dynamicInsns - lane.injectedAt);
    ++fallbackOutcomes[e][static_cast<std::size_t>(out[i].outcome)];
  }
  if (trace::enabled()) {
    const std::string& prefix = lockstepCounters_;
    trace::counterAdd(prefix + "windows");
    trace::counterAdd(prefix + "streams",
                      static_cast<std::int64_t>(stream.streams));
    trace::counterAdd(prefix + "deferred",
                      static_cast<std::int64_t>(stream.deferred));
    trace::counterAdd(prefix + "lanes",
                      static_cast<std::int64_t>(window.size()));
    trace::counterAdd(prefix + "diverged", diverged);
    trace::counterAdd(prefix + "lane_ops",
                      std::accumulate(laneOps.begin(), laneOps.end(),
                                      std::int64_t{0}));
    trace::counterAdd(prefix + "lane_steps",
                      static_cast<std::int64_t>(stream.laneSteps));
    // The same lane ops by the opcode of their step; only the opcodes that
    // evaluated some lane get a counter.
    for (std::size_t op = 0; op < stream.laneOps.size(); ++op) {
      if (stream.laneOps[op] != 0) {
        trace::counterAdd(
            prefix + "lane_ops.op." +
                ir::opcodeInfo(static_cast<ir::Opcode>(op)).name,
            static_cast<std::int64_t>(stream.laneOps[op]));
      }
    }
    trace::counterAdd(prefix + "stream_insns",
                      static_cast<std::int64_t>(stream.insns));
    trace::counterAdd(prefix + "prefix_insns",
                      static_cast<std::int64_t>(stream.prefixInsns));
    trace::counterAdd(prefix + "timing_safe", timingSafe);
    for (std::size_t e = 0; e < sim::kLaneEndCount; ++e) {
      const auto end = static_cast<sim::LaneEnd>(e);
      const std::string name = sim::laneEndName(end);
      trace::counterAdd(prefix + "lane_ops." + name, laneOps[e]);
      if (!sim::isFallback(end)) {
        trace::counterAdd(prefix + "decided." + name, ends[e]);
        continue;
      }
      trace::counterAdd(prefix + "fallback." + name, ends[e]);
      trace::counterAdd(prefix + "fallback_insns." + name, fallbackInsns[e]);
      for (std::size_t o = 0; o < kOutcomeCount; ++o) {
        trace::counterAdd(prefix + "fallback_outcome." + name + "." +
                              outcomeName(static_cast<Outcome>(o)),
                          fallbackOutcomes[e][o]);
      }
    }
  }
}

FaultSiteLoop::FaultSiteLoop(std::string_view driver,
                             const ir::Program& program,
                             const sched::ProgramSchedule& schedule,
                             const arch::MachineConfig& config,
                             const sim::SimOptions& simOptions,
                             InjectionMode mode, std::uint64_t timeoutFactor,
                             std::uint32_t threads,
                             const sim::DecodedProgram* decoded,
                             std::vector<sim::DefSite>* defTrace)
    : driver_(driver),
      scope_(traceName("")),
      program_(program),
      schedule_(schedule),
      config_(config),
      mode_(mode),
      threads_(threads) {
  // A caller-supplied decode (e.g. core::CompiledProgram's) is reused
  // as-is; the reference engine never touches a decode.
  if (simOptions.engine == sim::Engine::kDecoded) {
    if (decoded == nullptr) {
      decoded = &ownedDecode_.emplace(
          sim::DecodedProgram::build(program, schedule, config));
    }
    decoded_ = decoded;
  }
  {
    const trace::Scope scope(traceName(".golden"));
    golden_ = toProfile(
        runGolden(program, schedule, config, simOptions, decoded_, defTrace));
  }
  // The watchdog must admit the golden run, so that a faulty run on
  // golden's addresses never times out (the lockstep lanes rely on it).
  CASTED_CHECK(timeoutFactor > 0 && golden_.cycles <= ~0ULL / timeoutFactor)
      << "timeoutFactor " << timeoutFactor << " times the golden run's "
      << golden_.cycles << " cycles is no watchdog";
  armedOptions_ = simOptions;
  armedOptions_.maxCycles = golden_.cycles * timeoutFactor;
  armedOptions_.faultPlan = nullptr;
  armedOptions_.defTrace = nullptr;
}

std::string FaultSiteLoop::traceName(std::string_view suffix) const {
  return trace::enabled() ? "fault." + driver_ + std::string(suffix)
                          : std::string();
}

std::uint64_t FaultSiteLoop::evenChunk(std::uint64_t items,
                                       std::uint64_t maxChunk) const {
  CASTED_CHECK(maxChunk > 0) << "empty chunks";
  const std::uint64_t workers = resolveThreads(threads_, items);
  const std::uint64_t perWorker = std::clamp<std::uint64_t>(
      (items + workers - 1) / workers, 1, maxChunk);
  const std::uint64_t chunks = std::max<std::uint64_t>(
      (items + perWorker - 1) / perWorker, 1);
  return std::max<std::uint64_t>((items + chunks - 1) / chunks, 1);
}

void FaultSiteLoop::runChunks(std::uint64_t items, std::uint64_t chunk,
                              std::string_view unit, std::uint32_t threads,
                              const ChunkVisit& visit) {
  CASTED_CHECK(chunk > 0) << "empty chunks";
  std::atomic<std::uint64_t> cursor{0};
  ProgressMeter meter(driver_ + " " + std::string(unit), items);
  runWorkerPool(threads, [&](std::uint32_t w) {
    const trace::Scope workerScope(traceName(".worker"));
    SiteExecutor executor(program_, schedule_, config_, decoded_, mode_,
                          armedOptions_, "fault." + driver_ + ".lockstep.");
    std::uint64_t done = 0;
    for (std::uint64_t first =
             cursor.fetch_add(chunk, std::memory_order_relaxed);
         first < items;
         first = cursor.fetch_add(chunk, std::memory_order_relaxed)) {
      const std::uint64_t last = std::min(items, first + chunk);
      visit(w, first, last, executor);
      done += last - first;
      meter.add(last - first);
    }
    // Per-worker totals alongside the worker's duration scope: the pair
    // gives a per-worker rate in the trace viewer.
    if (trace::enabled()) {
      const std::string suffix = "." + std::string(unit);
      trace::counterAdd(traceName(suffix), static_cast<std::int64_t>(done));
      trace::counterAdd(traceName(".worker" + std::to_string(w) + suffix),
                        static_cast<std::int64_t>(done));
    }
  });
}

}  // namespace casted::fault::detail
