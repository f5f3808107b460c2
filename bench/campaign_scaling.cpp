// Micro-bench: engine and thread scaling of the Monte Carlo fault campaign.
//
// Axis 1 — engine: the same single-threaded campaign runs kEngineRuns times
// on the reference IR-walking interpreter and on the decoded micro-op
// engine; reports the median wall time and its sample stddev, dynamic
// instructions per second at the median, and the decoded/reference
// speedup of the medians.  The result is written to BENCH_sim_engine.json
// (override the path with CASTED_BENCH_JSON).
//
// Axis 2 — threads: the decoded-engine campaign at 1, 2, 4, ... workers.
//
// Both axes are gates: the bench exits non-zero when any campaign's report
// (outcome counts and dynamic instructions) differs from the decoded
// engine's first one — the report is defined by (seed, trials) alone,
// never by the engine, the thread count or the repetition.
//
//   CASTED_SCALE / CASTED_TRIALS as usual; CASTED_MAX_THREADS caps the sweep.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fault/campaign.h"
#include "support/trace.h"

using namespace casted;

namespace {

// Timed campaigns per engine; each engine row is their median.
constexpr int kEngineRuns = 5;

bool sameReport(const fault::CoverageReport& a,
                const fault::CoverageReport& b) {
  return a.counts == b.counts && a.dynamicInsns == b.dynamicInsns;
}

struct EngineSample {
  sim::Engine engine = sim::Engine::kDecoded;
  double wallMs = 0.0;        // median of kEngineRuns
  double wallMsStddev = 0.0;  // sample stddev of the same runs
  double insnsPerSec = 0.0;   // at the median
  fault::CoverageReport report;  // the first run's
  bool repeatable = true;     // every run reported `report`
};

double elapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

EngineSample measure(const core::CompiledProgram& bin, sim::Engine engine,
                     std::uint32_t trials) {
  fault::CampaignOptions options;
  options.trials = trials;
  options.threads = 1;
  options.simOptions.engine = engine;
  EngineSample sample;
  sample.engine = engine;
  std::vector<double> wallMs;
  for (int run = 0; run < kEngineRuns; ++run) {
    const auto start = std::chrono::steady_clock::now();
    const fault::CoverageReport report = core::campaign(bin, options);
    wallMs.push_back(elapsedMs(start));
    if (run == 0) {
      sample.report = report;
    }
    sample.repeatable = sample.repeatable && sameReport(report, sample.report);
  }
  sample.wallMsStddev = summarize(wallMs).stddev;
  std::sort(wallMs.begin(), wallMs.end());
  sample.wallMs = wallMs[wallMs.size() / 2];
  sample.insnsPerSec = sample.wallMs <= 0.0
                           ? 0.0
                           : static_cast<double>(sample.report.dynamicInsns) /
                                 (sample.wallMs / 1000.0);
  return sample;
}

void writeJson(const std::string& path, const std::string& workload,
               std::uint32_t trials, const EngineSample& reference,
               const EngineSample& decoded, bool identical) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("(could not write %s)\n", path.c_str());
    return;
  }
  const double speedup =
      decoded.wallMs <= 0.0 ? 0.0 : reference.wallMs / decoded.wallMs;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"campaign_scaling\",\n");
  std::fprintf(out, "  \"workload\": \"%s\",\n", workload.c_str());
  std::fprintf(out, "  \"scheme\": \"casted\",\n");
  std::fprintf(out, "  \"trials\": %u,\n", trials);
  std::fprintf(out, "  \"threads\": 1,\n");
  std::fprintf(out, "  \"runs\": %d,\n", kEngineRuns);
  std::fprintf(out, "  \"engines\": {\n");
  const EngineSample* samples[2] = {&reference, &decoded};
  for (int i = 0; i < 2; ++i) {
    const EngineSample& s = *samples[i];
    std::fprintf(out, "    \"%s\": {\n", sim::engineName(s.engine));
    std::fprintf(out, "      \"wall_ms\": %.3f,\n", s.wallMs);
    std::fprintf(out, "      \"wall_ms_stddev\": %.3f,\n", s.wallMsStddev);
    std::fprintf(out, "      \"dynamic_insns\": %llu,\n",
                 static_cast<unsigned long long>(s.report.dynamicInsns));
    std::fprintf(out, "      \"insns_per_sec\": %.0f\n", s.insnsPerSec);
    std::fprintf(out, "    }%s\n", i == 0 ? "," : "");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"decoded_speedup\": %.3f,\n", speedup);
  std::fprintf(out, "  \"counts_identical\": %s\n",
               identical ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main() {
  benchutil::printHeader(
      "campaign_scaling — fault-campaign engine + thread scaling",
      "infrastructure for Figs. 9/10 (deterministic parallel campaign)");

  const std::uint32_t scale = benchutil::envU32("CASTED_SCALE", 1);
  const std::uint32_t trials = benchutil::envU32("CASTED_TRIALS", 300);
  // Sweep to the core count, but always at least 4 so the counts-identical
  // column is exercised even on single-core CI boxes.
  const std::uint32_t maxThreads = benchutil::envU32(
      "CASTED_MAX_THREADS",
      std::max(4u, std::thread::hardware_concurrency()));
  const char* jsonEnv = std::getenv("CASTED_BENCH_JSON");
  const std::string jsonPath =
      (jsonEnv != nullptr && *jsonEnv != '\0') ? jsonEnv
                                               : "BENCH_sim_engine.json";

  const workloads::Workload wl = workloads::makeH263dec(scale);
  const arch::MachineConfig machine = arch::makePaperMachine(2, 2);
  core::PipelineOptions pipelineOptions;
  pipelineOptions.verifyAfterPasses = false;
  const core::CompiledProgram bin = core::compile(
      wl.program, machine, passes::Scheme::kCasted, pipelineOptions);

  std::printf("%s, %u trials, CASTED scheme\n\n", wl.name.c_str(), trials);

  // ---- Axis 1: engine (single-threaded) ------------------------------
  const EngineSample reference =
      measure(bin, sim::Engine::kReference, trials);
  const EngineSample decoded = measure(bin, sim::Engine::kDecoded, trials);

  TextTable engineTable({"engine", "median wall ms", "stddev ms", "Minsns/s",
                         "speedup", "counts identical"});
  bool identical = true;
  for (const EngineSample* s : {&reference, &decoded}) {
    const bool same = s->repeatable && sameReport(s->report, decoded.report);
    identical = identical && same;
    engineTable.addRow(
        {sim::engineName(s->engine), formatFixed(s->wallMs, 1),
         formatFixed(s->wallMsStddev, 1),
         formatFixed(s->insnsPerSec / 1e6, 1),
         formatFixed(reference.wallMs / std::max(s->wallMs, 1e-9), 2),
         same ? "yes" : "NO (bug!)"});
  }
  std::printf("%d runs per engine\n%s\n", kEngineRuns,
              engineTable.render().c_str());
  writeJson(jsonPath, wl.name, trials, reference, decoded, identical);

  // ---- Axis 2: threads (decoded engine) ------------------------------
  std::printf("\n");
  TextTable table({"threads", "wall ms", "speedup", "counts identical"});
  double serialMs = 0.0;
  for (std::uint32_t threads = 1; threads <= maxThreads; threads *= 2) {
    fault::CampaignOptions options;
    options.trials = trials;
    options.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const fault::CoverageReport report = core::campaign(bin, options);
    const double ms = elapsedMs(start);
    if (threads == 1) {
      serialMs = ms;
    }
    const bool same = sameReport(report, decoded.report);
    identical = identical && same;
    table.addRow({std::to_string(threads), formatFixed(ms, 1),
                  formatFixed(serialMs / ms, 2), same ? "yes" : "NO (bug!)"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading: the decoded engine should run the same campaign several\n"
      "times faster than the reference interpreter at identical counts;\n"
      "thread speedup should be near-linear until the core count (the\n"
      "trials are embarrassingly parallel); the counts column must say yes\n"
      "everywhere — the campaign's report is defined by (seed, trials)\n"
      "alone, never by the engine or the thread count.\n");

  // Export the trace session (active only under CASTED_TRACE or an explicit
  // trace::enable); run metadata identifies this sweep in the viewer.
  trace::setMetadata("bench", "campaign_scaling");
  trace::setMetadata("workload", wl.name);
  trace::setMetadata("trials", std::to_string(trials));
  trace::setMetadata("max_threads", std::to_string(maxThreads));
  trace::setMetadata("engine", "reference+decoded");
  trace::setMetadata("injection_mode",
                     fault::injectionModeName(fault::CampaignOptions{}.mode));
  if (trace::writeReport()) {
    std::printf("wrote trace %s\n", trace::outputPath().c_str());
  }
  if (!identical) {
    std::printf("FAIL: a campaign report differs across engines, threads "
                "or runs\n");
    return 1;
  }
  return 0;
}
