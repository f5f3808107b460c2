// Figures 6 & 7: performance of SCED / DCED / CASTED normalized to NOED for
// every benchmark, issue widths 1-4 x inter-cluster delays 1-4.
//
// Also prints the paper's §IV-B headline aggregates: the SCED / DCED /
// CASTED slowdown ranges and averages, and CASTED's best improvement over
// the better fixed scheme.  A CSV (fig6_7.csv) is written next to the
// binary for plotting.
//
// Exits 1, naming each such point on stderr, when CASTED is slower than the
// better of SCED and DCED at any of the 112 points (the figures' shape
// claim, EXPERIMENTS.md).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

int main() {
  using namespace casted;
  benchutil::printHeader(
      "fig6_7_performance — slowdown vs NOED across configurations",
      "Figs. 6 and 7 (performance, all benchmarks, issue 1-4, delay 1-4)");

  const std::uint32_t scale = benchutil::envU32("CASTED_SCALE", 1);
  const std::vector<workloads::Workload> suite =
      workloads::makeAllWorkloads(scale);

  CsvWriter csv({"benchmark", "issue", "delay", "scheme", "cycles",
                 "slowdown"});
  std::vector<double> scedAll;
  std::vector<double> dcedAll;
  std::vector<double> castedAll;
  double bestImprovement = 0.0;
  std::string bestImprovementWhere;
  std::vector<std::string> castedSlower;

  for (const workloads::Workload& wl : suite) {
    std::printf("--- %s (%s) ---\n", wl.name.c_str(), wl.suite.c_str());
    TextTable table({"issue", "delay", "SCED", "DCED", "CASTED",
                     "CASTED vs best fixed"});
    for (std::uint32_t iw = 1; iw <= 4; ++iw) {
      for (std::uint32_t delay = 1; delay <= 4; ++delay) {
        const arch::MachineConfig machine =
            arch::makePaperMachine(iw, delay);
        const double noed = static_cast<double>(benchutil::runCycles(
            wl.program, machine, passes::Scheme::kNoed));
        auto slowdown = [&](passes::Scheme scheme) {
          const std::uint64_t cycles =
              benchutil::runCycles(wl.program, machine, scheme);
          csv.addRow({wl.name, std::to_string(iw), std::to_string(delay),
                      schemeName(scheme), std::to_string(cycles),
                      formatFixed(static_cast<double>(cycles) / noed, 4)});
          return static_cast<double>(cycles) / noed;
        };
        const double sced = slowdown(passes::Scheme::kSced);
        const double dced = slowdown(passes::Scheme::kDced);
        const double casted = slowdown(passes::Scheme::kCasted);
        scedAll.push_back(sced);
        dcedAll.push_back(dced);
        castedAll.push_back(casted);
        const double bestFixed = std::min(sced, dced);
        const double improvement = (bestFixed - casted) / bestFixed;
        const std::string point = wl.name + " issue " + std::to_string(iw) +
                                  " delay " + std::to_string(delay);
        if (improvement > bestImprovement) {
          bestImprovement = improvement;
          bestImprovementWhere = point;
        }
        if (casted > bestFixed) {
          castedSlower.push_back(point);
        }
        table.addRow({std::to_string(iw), std::to_string(delay),
                      formatFixed(sced, 2), formatFixed(dced, 2),
                      formatFixed(casted, 2), formatPercent(improvement)});
      }
      table.addSeparator();
    }
    std::printf("%s\n", table.render().c_str());
  }

  const SampleSummary sced = summarize(scedAll);
  const SampleSummary dced = summarize(dcedAll);
  const SampleSummary casted = summarize(castedAll);

  std::printf("=== §IV-B headline aggregates (paper values in brackets) ===\n");
  TextTable summary({"scheme", "min", "max", "mean", "paper min..max (mean)"});
  summary.addRow({"SCED", formatFixed(sced.min, 2), formatFixed(sced.max, 2),
                  formatFixed(sced.mean, 2), "1.34..2.22 (1.70)"});
  summary.addRow({"DCED", formatFixed(dced.min, 2), formatFixed(dced.max, 2),
                  formatFixed(dced.mean, 2), "1.31..3.32 (2.10)"});
  summary.addRow({"CASTED", formatFixed(casted.min, 2),
                  formatFixed(casted.max, 2), formatFixed(casted.mean, 2),
                  "1.19..2.10 (1.58)"});
  std::printf("%s\n", summary.render().c_str());
  std::printf("CASTED best win over best fixed scheme: %s at %s "
              "(paper: up to 21.2%%, cjpeg issue 2 delay 3)\n",
              formatPercent(bestImprovement).c_str(),
              bestImprovementWhere.c_str());
  std::printf("CASTED mean slowdown reduction: %s vs SCED, %s vs DCED "
              "(paper: 7.5%% and 24.7%%)\n",
              formatPercent((sced.mean - casted.mean) / sced.mean).c_str(),
              formatPercent((dced.mean - casted.mean) / dced.mean).c_str());

  csv.writeFile("fig6_7.csv");
  std::printf("\nwrote fig6_7.csv\n");
  for (const std::string& point : castedSlower) {
    std::fprintf(stderr,
                 "CASTED is slower than the better of SCED and DCED at %s\n",
                 point.c_str());
  }
  return castedSlower.empty() ? 0 : 1;
}
