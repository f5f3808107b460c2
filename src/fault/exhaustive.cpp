#include "fault/exhaustive.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "fault/driver_util.h"
#include "support/check.h"
#include "support/statistics.h"
#include "support/table.h"
#include "support/trace.h"

namespace casted::fault {
namespace {

// One enumerated static def-producing instruction, resolved from the golden
// trace: identity plus the per-def enumeration shape shared by all of its
// dynamic executions.
struct StaticSite {
  sim::DefSite site;
  ir::InsnId insn = ir::kInvalidInsn;
  std::string text;
  std::uint32_t defCount = 0;
  std::uint32_t sitesPerExecution = 0;  // sum over defs of bitsOf(def)
  std::uint64_t executions = 0;
  // Monte Carlo weight of (whichDef % defCount == d), in quarters: the
  // sampler draws whichDef uniformly in [0, 4), so for defCount == 3 the
  // weights are non-uniform (2/4, 1/4, 1/4).
  std::uint32_t defQuarters[4] = {0, 0, 0, 0};
  // Effective bit sites for each def: predicate registers collapse all 64
  // bit draws onto one flip.
  std::uint32_t bitsOf[4] = {0, 0, 0, 0};
};

std::uint32_t effectiveBits(ir::RegClass cls) {
  return cls == ir::RegClass::kPr ? 1u : 64u;
}

// Per-worker tally for one static instruction.  Monte Carlo mass is kept
// exact, in units of 1 / (defInsns * 256): a site's weight is
// (1 / defInsns) * (defQuarters / 4) * (1 / 64 or, for a predicate, 1), so
// every site adds defQuarters * (64 or 1) units.  Integer sums do not
// depend on the order workers add them in, so neither do the report's
// doubles nor the ranking sorted by them.
struct Tally {
  std::array<std::uint64_t, kOutcomeCount> counts = {};
  std::array<std::uint64_t, kOutcomeCount> massUnits = {};
};

}  // namespace

const SiteOutcome* GroundTruthReport::find(ir::FuncId func,
                                           ir::InsnId insn) const {
  for (const SiteOutcome& entry : perInsn) {
    if (entry.func == func && entry.insn == insn) {
      return &entry;
    }
  }
  return nullptr;
}

std::string GroundTruthReport::toString(std::size_t topInsns) const {
  std::ostringstream out;
  out << "exhaustive ground truth: " << sites << " sites over " << defInsns
      << " dynamic def instructions\n";
  TextTable outcomes({"outcome", "sites", "site fraction", "MC probability"});
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    const Outcome outcome = static_cast<Outcome>(i);
    outcomes.addRow({outcomeName(outcome), std::to_string(counts[i]),
                     formatPercent(fraction(outcome)),
                     formatPercent(mcProbability[i])});
  }
  out << outcomes.render();
  if (!perInsn.empty() && topInsns > 0) {
    out << "\nworst static instructions by SDC probability mass:\n";
    TextTable worst({"func", "block", "instruction", "execs", "SDC sites",
                     "SDC mass"});
    std::size_t shown = 0;
    for (const SiteOutcome& entry : perInsn) {
      if (shown++ >= topInsns || entry.sdcSites() == 0) {
        break;
      }
      worst.addRow({std::to_string(entry.func), std::to_string(entry.block),
                    entry.text, std::to_string(entry.executions),
                    std::to_string(entry.sdcSites()),
                    formatPercent(entry.sdcMass())});
    }
    out << worst.render();
  }
  return out.str();
}

GroundTruthReport enumerateFaultSpace(const ir::Program& program,
                                      const sched::ProgramSchedule& schedule,
                                      const arch::MachineConfig& config,
                                      const ExhaustiveOptions& options,
                                      const sim::DecodedProgram* decoded) {
  // Golden run with the def-site trace attached: one DefSite per ordinal.
  std::vector<sim::DefSite> defTrace;
  detail::FaultSiteLoop loop("exhaustive", program, schedule, config,
                             options.simOptions, options.mode,
                             options.timeoutFactor, options.threads, decoded,
                             &defTrace);
  const GoldenProfile& golden = loop.golden();
  CASTED_CHECK(defTrace.size() == golden.defInsns)
      << "def trace length " << defTrace.size() << " != def count "
      << golden.defInsns;

  // Resolve the trace into the static site table and the per-ordinal index.
  std::map<std::array<std::uint32_t, 3>, std::uint32_t> staticIndex;
  std::vector<StaticSite> statics;
  std::vector<std::uint32_t> ordinalStatic(defTrace.size());
  for (std::size_t ordinal = 0; ordinal < defTrace.size(); ++ordinal) {
    const sim::DefSite& site = defTrace[ordinal];
    const std::array<std::uint32_t, 3> key = {site.func, site.block,
                                              site.node};
    auto [it, inserted] =
        staticIndex.emplace(key, static_cast<std::uint32_t>(statics.size()));
    if (inserted) {
      const ir::Instruction& insn =
          program.function(site.func).block(site.block).insns()[site.node];
      CASTED_CHECK(!insn.defs.empty() && insn.defs.size() <= 4)
          << "traced def site with " << insn.defs.size() << " defs";
      StaticSite entry;
      entry.site = site;
      entry.insn = insn.id;
      entry.text = insn.toString();
      entry.defCount = static_cast<std::uint32_t>(insn.defs.size());
      for (std::uint32_t d = 0; d < entry.defCount; ++d) {
        entry.bitsOf[d] = effectiveBits(insn.defs[d].cls);
        entry.sitesPerExecution += entry.bitsOf[d];
      }
      for (std::uint32_t w = 0; w < 4; ++w) {
        ++entry.defQuarters[w % entry.defCount];
      }
      statics.push_back(std::move(entry));
    }
    ordinalStatic[ordinal] = it->second;
    ++statics[it->second].executions;
  }

  std::uint64_t totalSites = 0;
  for (const StaticSite& entry : statics) {
    totalSites += entry.executions * entry.sitesPerExecution;
  }
  CASTED_CHECK(options.maxSites == 0 || totalSites <= options.maxSites)
      << "fault space has " << totalSites << " sites, over the maxSites cap "
      << options.maxSites;

  if (trace::enabled()) {
    trace::counterAdd("fault.exhaustive.sites",
                      static_cast<std::int64_t>(totalSites));
  }

  // The sites of kOrdinalsPerWindow consecutive dynamic ordinals are one
  // window of plans, decided together by the executor (DESIGN.md §10).
  // The plan IS the site — no randomness — so the merged result is
  // independent of how ordinals are distributed over workers.
  static_assert(4 * 64 <= sim::DecodedRunner::kMaxLanes,
                "a stream takes every site (4 defs x 64 bits) of its first "
                "ordinal");
  const std::vector<std::vector<Tally>> partial = loop.run(
      defTrace.size(), kOrdinalsPerWindow, "ordinals",
      std::vector<Tally>(statics.size()),
      [&](std::vector<Tally>& tallies, std::uint64_t first, std::uint64_t last,
          detail::SiteExecutor& executor) {
        std::vector<sim::FaultPlan> window;
        for (std::uint64_t ordinal = first; ordinal < last; ++ordinal) {
          const StaticSite& entry = statics[ordinalStatic[ordinal]];
          for (std::uint32_t d = 0; d < entry.defCount; ++d) {
            for (std::uint32_t bit = 0; bit < entry.bitsOf[d]; ++bit) {
              window.push_back({{{ordinal, d, bit}}});
            }
          }
        }
        std::vector<detail::TrialVerdict> verdicts;
        executor.runWindow(window, golden, verdicts);
        for (std::size_t i = 0; i < window.size(); ++i) {
          const sim::FaultPoint& point = window[i].points[0];
          const std::uint32_t s = ordinalStatic[point.ordinal];
          const StaticSite& entry = statics[s];
          const auto outcome = static_cast<int>(verdicts[i].outcome);
          ++tallies[s].counts[outcome];
          tallies[s].massUnits[outcome] +=
              entry.defQuarters[point.whichDef] *
              (entry.bitsOf[point.whichDef] == 1 ? 64u : 1u);
        }
      });

  GroundTruthReport report;
  report.defInsns = golden.defInsns;
  report.sites = totalSites;
  report.perInsn.reserve(statics.size());
  const double unitsPerTrial = static_cast<double>(golden.defInsns) * 256.0;
  std::array<std::uint64_t, kOutcomeCount> reportUnits = {};
  for (std::size_t s = 0; s < statics.size(); ++s) {
    const StaticSite& entry = statics[s];
    SiteOutcome outcome;
    outcome.func = entry.site.func;
    outcome.block = entry.site.block;
    outcome.node = entry.site.node;
    outcome.insn = entry.insn;
    outcome.text = entry.text;
    outcome.executions = entry.executions;
    outcome.sites = entry.executions * entry.sitesPerExecution;
    std::array<std::uint64_t, kOutcomeCount> units = {};
    for (const std::vector<Tally>& tallies : partial) {
      for (std::size_t i = 0; i < kOutcomeCount; ++i) {
        outcome.counts[i] += tallies[s].counts[i];
        units[i] += tallies[s].massUnits[i];
      }
    }
    for (std::size_t i = 0; i < kOutcomeCount; ++i) {
      outcome.mcMass[i] = static_cast<double>(units[i]) / unitsPerTrial;
      report.counts[i] += outcome.counts[i];
      reportUnits[i] += units[i];
    }
    report.perInsn.push_back(std::move(outcome));
  }
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    report.mcProbability[i] =
        static_cast<double>(reportUnits[i]) / unitsPerTrial;
  }
  std::sort(report.perInsn.begin(), report.perInsn.end(),
            [](const SiteOutcome& a, const SiteOutcome& b) {
              if (a.sdcMass() != b.sdcMass()) {
                return a.sdcMass() > b.sdcMass();
              }
              if (a.sdcSites() != b.sdcSites()) {
                return a.sdcSites() > b.sdcSites();
              }
              return std::tie(a.func, a.block, a.node) <
                     std::tie(b.func, b.block, b.node);
            });
  return report;
}

}  // namespace casted::fault
