// Ground-truth audit: how much does Monte Carlo sampling error matter, and
// how much does lockstep injection cost to answer exactly?
//
// For every scheme, enumerates the complete fault-site space of one
// workload TWICE — once re-running every site from program start
// (InjectionMode::kFull, the oracle) and once with each def's sites as one
// window of lockstep lanes whose fallbacks restore a golden-prefix
// checkpoint (kCheckpointed) — and reports wall time, sites/second and the
// speedup, verifying the two reports are equal field for field.  Then the
// usual audit: the exact SDC probability next to the sampled campaign's
// estimate and its 99% Wilson interval, plus the static ProtectionLint's
// gap count.  The "in99" column must read "yes" everywhere: it is the
// convergence contract tests/exhaustive_ground_truth_test.cpp enforces,
// evaluated here on a full workload instead of the test-sized ones.  Lint soundness means
// a scheme with no lint gaps has exact SDC 0.  The audit exits non-zero,
// naming the scheme, when its two reports differ, its estimate falls
// outside the interval, or the lint misses an SDC.
//
// Timing and identity results are written to BENCH_ground_truth.json
// (override the path with CASTED_BENCH_JSON).
//
//   CASTED_THREADS=0 ./build/bench/ground_truth_audit [workload]
//
// CASTED_SCALE (default 1) and CASTED_TRIALS (default 300) set the workload
// scale and the Monte Carlo trial count.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

#include "fault/exhaustive.h"
#include "passes/protection_lint.h"
#include "support/trace.h"

using namespace casted;

namespace {

struct ModeSample {
  double wallMs = 0.0;
  double sitesPerSec = 0.0;
  fault::GroundTruthReport report;
};

ModeSample measure(const core::CompiledProgram& bin, fault::InjectionMode mode,
                   std::uint32_t threads) {
  fault::ExhaustiveOptions options;
  options.threads = threads;
  options.mode = mode;
  const auto start = std::chrono::steady_clock::now();
  ModeSample sample;
  sample.report = core::groundTruth(bin, options);
  sample.wallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  sample.sitesPerSec =
      sample.wallMs <= 0.0
          ? 0.0
          : static_cast<double>(sample.report.sites) / (sample.wallMs / 1000.0);
  return sample;
}

struct SchemeRow {
  std::string scheme;
  ModeSample full;
  ModeSample checkpointed;
  bool identical = false;
  bool in99 = false;
  bool lintSound = false;
};

void writeJson(const std::string& path, const std::string& workload,
               std::uint32_t scale, std::uint32_t threads,
               const std::vector<SchemeRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("(could not write %s)\n", path.c_str());
    return;
  }
  double fullMs = 0.0;
  double checkpointedMs = 0.0;
  bool allIdentical = true;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"ground_truth_audit\",\n");
  std::fprintf(out, "  \"workload\": \"%s\",\n", workload.c_str());
  std::fprintf(out, "  \"scale\": %u,\n", scale);
  std::fprintf(out, "  \"threads\": %u,\n", threads);
  std::fprintf(out, "  \"schemes\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SchemeRow& row = rows[i];
    fullMs += row.full.wallMs;
    checkpointedMs += row.checkpointed.wallMs;
    allIdentical = allIdentical && row.identical;
    const double speedup = row.checkpointed.wallMs <= 0.0
                               ? 0.0
                               : row.full.wallMs / row.checkpointed.wallMs;
    std::fprintf(out, "    \"%s\": {\n", row.scheme.c_str());
    std::fprintf(out, "      \"sites\": %llu,\n",
                 static_cast<unsigned long long>(row.full.report.sites));
    std::fprintf(out,
                 "      \"full\": {\"wall_ms\": %.3f, "
                 "\"sites_per_sec\": %.0f},\n",
                 row.full.wallMs, row.full.sitesPerSec);
    std::fprintf(out,
                 "      \"checkpointed\": {\"wall_ms\": %.3f, "
                 "\"sites_per_sec\": %.0f},\n",
                 row.checkpointed.wallMs, row.checkpointed.sitesPerSec);
    std::fprintf(out, "      \"speedup\": %.3f,\n", speedup);
    std::fprintf(out, "      \"reports_identical\": %s\n",
                 row.identical ? "true" : "false");
    std::fprintf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"total_full_ms\": %.3f,\n", fullMs);
  std::fprintf(out, "  \"total_checkpointed_ms\": %.3f,\n", checkpointedMs);
  std::fprintf(out, "  \"total_speedup\": %.3f,\n",
               checkpointedMs <= 0.0 ? 0.0 : fullMs / checkpointedMs);
  std::fprintf(out, "  \"reports_identical\": %s\n",
               allIdentical ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "parser";
  const std::uint32_t scale = benchutil::envU32("CASTED_SCALE", 1);
  const std::uint32_t trials = benchutil::envU32("CASTED_TRIALS", 300);
  const std::uint32_t threads = benchutil::envU32("CASTED_THREADS", 0);
  const char* jsonEnv = std::getenv("CASTED_BENCH_JSON");
  const std::string jsonPath =
      (jsonEnv != nullptr && *jsonEnv != '\0') ? jsonEnv
                                               : "BENCH_ground_truth.json";

  benchutil::printHeader(
      "ground-truth audit: exhaustive enumeration vs Monte Carlo vs lint",
      "the sampling methodology behind Fig. 9/10 (paper SIV-C)");

  const workloads::Workload wl = workloads::makeWorkload(name, scale);
  const arch::MachineConfig machine = arch::makePaperMachine(2, 2);
  std::printf("workload %s (scale %u), %u MC trials, one flip per trial\n\n",
              wl.name.c_str(), scale, trials);

  std::vector<SchemeRow> rows;
  TextTable timing({"scheme", "sites", "full ms", "ckpt ms", "Ksites/s full",
                    "Ksites/s ckpt", "speedup", "identical"});
  TextTable table({"scheme", "sites", "exact-sdc", "lint-gaps", "mc-sdc",
                   "wilson99", "in99"});
  for (const passes::Scheme scheme : passes::kAllSchemes) {
    const core::CompiledProgram bin =
        core::compile(wl.program, machine, scheme);

    SchemeRow row;
    row.scheme = passes::schemeName(scheme);
    row.full = measure(bin, fault::InjectionMode::kFull, threads);
    row.checkpointed =
        measure(bin, fault::InjectionMode::kCheckpointed, threads);
    row.identical = row.full.report == row.checkpointed.report;
    timing.addRow(
        {row.scheme, std::to_string(row.full.report.sites),
         formatFixed(row.full.wallMs, 1), formatFixed(row.checkpointed.wallMs, 1),
         formatFixed(row.full.sitesPerSec / 1e3, 1),
         formatFixed(row.checkpointed.sitesPerSec / 1e3, 1),
         formatFixed(row.full.wallMs /
                         std::max(row.checkpointed.wallMs, 1e-9), 2),
         row.identical ? "yes" : "NO (bug!)"});

    const fault::GroundTruthReport& truth = row.checkpointed.report;
    const double exact =
        truth.mcProbabilityOf(fault::Outcome::kDataCorrupt);

    fault::CampaignOptions mc;
    mc.trials = trials;
    mc.threads = threads;
    mc.originalDefInsns = 0;  // one flip per trial: the measure `truth` states
    const fault::CoverageReport report = core::campaign(bin, mc);
    const std::uint64_t sdc =
        report.counts[static_cast<int>(fault::Outcome::kDataCorrupt)];
    const ProportionInterval interval = wilsonInterval(sdc, report.trials);

    const passes::ProtectionLintResult lint =
        passes::lintProtection(bin.program, scheme);
    row.in99 = interval.contains(exact);
    row.lintSound = lint.gaps() > 0 || exact == 0.0;
    table.addRow({row.scheme, std::to_string(truth.sites),
                  formatPercent(exact), std::to_string(lint.gaps()),
                  formatPercent(report.fraction(fault::Outcome::kDataCorrupt)),
                  "[" + formatPercent(interval.low) + ", " +
                      formatPercent(interval.high) + "]",
                  row.in99 ? "yes" : "NO"});
    rows.push_back(std::move(row));
  }
  std::printf("%s\n", timing.render().c_str());
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "exact-sdc is free of sampling error; mc-sdc at %u trials must land\n"
      "inside its own Wilson interval around it.  lint-gaps counts def sites\n"
      "the static analysis cannot prove protected — every site outside that\n"
      "set contributes zero to exact-sdc by the soundness contract.\n"
      "The timing table compares full re-execution per site against\n"
      "lockstep windows (%llu defs each, fallbacks from a golden-prefix\n"
      "checkpoint); 'identical' certifies the two reports are equal field\n"
      "for field.  The audit exits non-zero when they differ, when in99\n"
      "reads NO, or when a scheme without lint gaps has nonzero exact-sdc.\n",
      trials, static_cast<unsigned long long>(fault::kOrdinalsPerWindow));
  writeJson(jsonPath, wl.name, scale, threads, rows);

  // Export the trace session (active only under CASTED_TRACE or an explicit
  // trace::enable); run metadata identifies this audit in the viewer.
  trace::setMetadata("bench", "ground_truth_audit");
  trace::setMetadata("workload", wl.name);
  trace::setMetadata("scale", std::to_string(scale));
  trace::setMetadata("threads", std::to_string(threads));
  trace::setMetadata("engine",
                     sim::engineName(sim::SimOptions{}.engine));
  trace::setMetadata("injection_mode", "full+checkpointed(lockstep)");
  if (trace::writeReport()) {
    std::printf("wrote trace %s\n", trace::outputPath().c_str());
  }
  int status = 0;
  auto fail = [&status](const SchemeRow& row, const char* what) {
    std::fprintf(stderr, "ground_truth_audit: %s %s\n", row.scheme.c_str(),
                 what);
    status = 1;
  };
  for (const SchemeRow& row : rows) {
    if (!row.identical) {
      fail(row, "full and checkpointed reports differ");
    }
    if (!row.in99) {
      fail(row, "Monte Carlo SDC estimate lies outside the 99% Wilson "
                "interval around exact SDC");
    }
    if (!row.lintSound) {
      fail(row, "has nonzero exact SDC but no lint gaps");
    }
  }
  return status;
}
