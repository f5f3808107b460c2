#include "fault/driver_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <utility>

#include "support/check.h"
#include "support/env.h"

namespace casted::fault::detail {

EngineChoice chooseEngine(const ir::Program& program,
                          const sched::ProgramSchedule& schedule,
                          const arch::MachineConfig& config,
                          const sim::SimOptions& simOptions,
                          const sim::DecodedProgram* decoded) {
  EngineChoice choice;
  if (simOptions.engine == sim::Engine::kDecoded) {
    if (decoded == nullptr) {
      choice.owned.emplace(
          sim::DecodedProgram::build(program, schedule, config));
      choice.decoded = &*choice.owned;
    } else {
      choice.decoded = decoded;
    }
  }
  return choice;
}

sim::RunResult runGolden(const ir::Program& program,
                         const sched::ProgramSchedule& schedule,
                         const arch::MachineConfig& config,
                         const sim::SimOptions& simOptions,
                         const EngineChoice& choice,
                         std::vector<sim::DefSite>* trace) {
  sim::SimOptions goldenOptions = simOptions;
  goldenOptions.faultPlan = nullptr;
  goldenOptions.defTrace = trace;
  return choice.decoded != nullptr
             ? sim::runDecoded(*choice.decoded, goldenOptions)
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

constexpr std::uint32_t kDefaultHeartbeatSeconds = 5;

}  // namespace

ProgressMeter::ProgressMeter(std::string label, std::uint64_t total,
                             bool enabledOption)
    : label_(std::move(label)), total_(total) {
  // CASTED_PROGRESS overrides the driver option both ways: 0 forces the
  // heartbeat off, N > 0 forces it on every N seconds.  Parsed with the
  // validated helper, so CASTED_PROGRESS=junk dies loudly instead of
  // silently disabling the heartbeat.
  const std::uint32_t interval =
      envU32("CASTED_PROGRESS",
             enabledOption ? kDefaultHeartbeatSeconds : 0);
  intervalSeconds_ = interval;
  active_ = interval > 0;
}

// RAII heartbeat monitor around one worker-pool run: a thread that wakes
// every interval and prints the meter's state to stderr, stopped (and
// joined) by the destructor on every exit path, including a rethrown worker
// exception.
class PoolMonitor {
 public:
  explicit PoolMonitor(ProgressMeter* meter) : meter_(meter) {
    if (meter_ == nullptr || !meter_->active()) {
      return;
    }
    start_ = std::chrono::steady_clock::now();
    thread_ = std::thread([this] { loop(); });
  }

  ~PoolMonitor() {
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

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::seconds(meter_->intervalSeconds_),
                         [this] { return stop_; })) {
      printHeartbeat();
    }
  }

  void printHeartbeat() const {
    const std::uint64_t done =
        meter_->done_.load(std::memory_order_relaxed);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed
                                      : 0.0;
    const std::uint64_t total = meter_->total_;
    const double pct =
        total == 0 ? 100.0
                   : 100.0 * static_cast<double>(done) /
                         static_cast<double>(total);
    if (rate > 0.0 && done < total) {
      const double eta = static_cast<double>(total - done) / rate;
      std::fprintf(stderr,
                   "[casted] %s: %llu/%llu (%.1f%%) | %.1f/s | ETA %.1fs\n",
                   meter_->label_.c_str(),
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total), pct, rate, eta);
    } else {
      std::fprintf(stderr, "[casted] %s: %llu/%llu (%.1f%%) | %.1f/s\n",
                   meter_->label_.c_str(),
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total), pct, rate);
    }
    std::fflush(stderr);
  }

  ProgressMeter* meter_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

void runWorkerPool(std::uint32_t threads,
                   const std::function<void(std::uint32_t)>& body,
                   ProgressMeter* progress) {
  const PoolMonitor monitor(progress);
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

CheckpointSweep::CheckpointSweep(const sim::DecodedProgram& decoded,
                                 const sim::SimOptions& armedOptions)
    : runner_(decoded), options_(armedOptions) {
  CASTED_CHECK(options_.faultPlan == nullptr && options_.defTrace == nullptr)
      << "sweep options must arrive with no plan and no trace";
}

sim::RunResult CheckpointSweep::run(const sim::FaultPlan& plan) {
  CASTED_CHECK(!plan.points.empty()) << "empty fault plan";
  const std::uint64_t target = plan.points[0].ordinal;
  if (!started_) {
    runner_.begin(options_);
    const bool paused = runner_.runToDef(target);
    CASTED_CHECK(paused) << "injection ordinal " << target
                         << " beyond the golden run";
    runner_.saveCheckpoint(checkpoint_);
    started_ = true;
  } else if (target > ordinal_) {
    // Roll the snapshot forward along the golden prefix: resume from the
    // old checkpoint (undoing whatever the previous faulty suffix touched)
    // and re-snapshot at the new ordinal.
    runner_.restoreCheckpoint(checkpoint_);
    const bool paused = runner_.runToDef(target);
    CASTED_CHECK(paused) << "injection ordinal " << target
                         << " beyond the golden run";
    runner_.saveCheckpoint(checkpoint_);
  } else {
    CASTED_CHECK(target == ordinal_)
        << "sweep ordinals must be non-decreasing (got " << target
        << " after " << ordinal_ << ")";
    runner_.restoreCheckpoint(checkpoint_);
  }
  ordinal_ = target;
  runner_.injectAtPause(plan);
  return runner_.finish();
}

}  // namespace casted::fault::detail
