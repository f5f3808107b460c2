// Figure 9: fault coverage for all benchmarks at issue-width 2, delay 2.
//
// Monte Carlo methodology as in §IV-C: random dynamic instruction, random
// output register, random bit; the error-detection binaries are injected at
// the ORIGINAL binary's error rate (one error per N_orig dynamic
// instructions, i.e. ~2.4 expected flips for a 2.4x binary).  Outcomes are
// the paper's five classes.  Paper default is 300 trials (CASTED_TRIALS).
//
// With a trace session active (CASTED_TRACE=<path>), each point also prints
// how its lockstep lanes ended (DESIGN.md §10): decided by decision, fallen
// back by reason, and the lane ops they cost.  The trace file carries the
// same split per point as fig9.<benchmark>.<scheme>.lockstep.* counters.
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "fault/campaign.h"
#include "support/trace.h"

namespace {

using Counters = std::vector<std::pair<std::string, std::int64_t>>;

constexpr std::string_view kLockstepPrefix = "fault.campaign.lockstep.";

// The fault.campaign.lockstep.* counters, without the prefix.
Counters lockstepCounters() {
  Counters out;
  for (const auto& [name, value] : casted::trace::counterSnapshot()) {
    if (name.starts_with(kLockstepPrefix)) {
      out.emplace_back(name.substr(kLockstepPrefix.size()), value);
    }
  }
  return out;
}

// Prints, and records as fig9.<point>.lockstep.* counters, what one
// campaign added to the lockstep counters since `before`.
void reportLockstep(const std::string& point, const Counters& before) {
  std::string line;
  for (const auto& [name, value] : lockstepCounters()) {
    std::int64_t delta = value;
    for (const auto& [key, old] : before) {
      if (key == name) {
        delta -= old;
      }
    }
    casted::trace::counterAdd("fig9." + point + ".lockstep." + name, delta);
    if (delta != 0) {
      line += " " + name + "=" + std::to_string(delta);
    }
  }
  std::printf("lockstep %s:%s\n", point.c_str(), line.c_str());
}

}  // namespace

int main() {
  using namespace casted;
  benchutil::printHeader(
      "fig9_fault_coverage — outcome distribution, issue 2 / delay 2",
      "Fig. 9 (fault coverage, all benchmarks)");

  const std::uint32_t scale = benchutil::envU32("CASTED_SCALE", 1);
  const std::uint32_t trials = benchutil::envU32("CASTED_TRIALS", 300);
  // Campaign worker threads; the report is bit-identical for any value.
  const std::uint32_t threads = benchutil::envU32("CASTED_THREADS", 0);
  const arch::MachineConfig machine = arch::makePaperMachine(2, 2);

  std::printf("trials per point: %u (paper: 300)\n\n", trials);

  CsvWriter csv({"benchmark", "scheme", "benign", "detected", "exception",
                 "data_corrupt", "timeout"});
  for (const workloads::Workload& wl : workloads::makeAllWorkloads(scale)) {
    std::printf("--- %s ---\n", wl.name.c_str());
    TextTable table({"scheme", "benign", "detected", "exception",
                     "data-corrupt", "timeout"});
    core::PipelineOptions pipelineOptions;
    pipelineOptions.verifyAfterPasses = false;

    // Profile NOED first: its dynamic length sets the fixed error rate.
    const core::CompiledProgram noed = core::compile(
        wl.program, machine, passes::Scheme::kNoed, pipelineOptions);
    const sim::RunResult noedGolden = core::run(noed);
    const std::uint64_t originalDefInsns =
        noedGolden.stats.dynamicDefInsns;

    for (passes::Scheme scheme : passes::kAllSchemes) {
      const core::CompiledProgram bin =
          core::compile(wl.program, machine, scheme, pipelineOptions);
      fault::CampaignOptions options;
      options.trials = trials;
      options.threads = threads;
      options.seed = 0xCA57ED + static_cast<std::uint64_t>(scheme);
      options.originalDefInsns = originalDefInsns;
      const Counters lockstepBefore =
          trace::enabled() ? lockstepCounters() : Counters{};
      const fault::CoverageReport report = core::campaign(bin, options);
      if (trace::enabled()) {
        reportLockstep(wl.name + "." + schemeName(scheme), lockstepBefore);
      }
      table.addRow(
          {schemeName(scheme),
           formatPercent(report.fraction(fault::Outcome::kBenign)),
           formatPercent(report.fraction(fault::Outcome::kDetected)),
           formatPercent(report.fraction(fault::Outcome::kException)),
           formatPercent(report.fraction(fault::Outcome::kDataCorrupt)),
           formatPercent(report.fraction(fault::Outcome::kTimeout))});
      csv.addRow({wl.name, schemeName(scheme),
                  formatFixed(report.fraction(fault::Outcome::kBenign), 4),
                  formatFixed(report.fraction(fault::Outcome::kDetected), 4),
                  formatFixed(report.fraction(fault::Outcome::kException), 4),
                  formatFixed(report.fraction(fault::Outcome::kDataCorrupt), 4),
                  formatFixed(report.fraction(fault::Outcome::kTimeout), 4)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf(
      "Expected shape (paper §IV-C): protected schemes show little or no\n"
      "silent data corruption; most non-benign outcomes are detections or\n"
      "exceptions; encoders (cjpeg, h263enc) mask more errors.\n");
  csv.writeFile("fig9.csv");
  std::printf("wrote fig9.csv\n");
  trace::setMetadata("bench", "fig9_fault_coverage");
  trace::setMetadata("trials", std::to_string(trials));
  if (trace::writeReport()) {
    std::printf("wrote trace %s\n", trace::outputPath().c_str());
  }
  return 0;
}
