// Exhaustive enumeration as a ground-truth test layer.
//
// Three contracts, cross-validated on tiny workloads where complete
// enumeration is tractable:
//   1. The def-site trace and the site space are engine- and
//      thread-count-invariant: both engines report the same dynamic def
//      ordinals, and the report is bit-identical however it is computed.
//   2. The static ProtectionLint never calls a site protected (or
//      sphere-exit) that exhaustive injection classifies as silent data
//      corruption — the lint's soundness contract, checked on real pipeline
//      output for every scheme.
//   3. The Monte Carlo campaign converges to the ground truth: with one
//      flip per trial the campaign samples exactly the distribution
//      `GroundTruthReport::mcProbability` states, so every observed outcome
//      fraction must land inside the 99% Wilson interval around it.
// Deterministic seeds throughout; corpus scaled by CASTED_TEST_TRIALS.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "fault/exhaustive.h"
#include "passes/protection_lint.h"
#include "sim/decoded.h"
#include "support/check.h"
#include "support/statistics.h"
#include "support/trace.h"
#include "test_util.h"

namespace casted {
namespace {

struct Workload {
  std::string name;
  ir::Program program;
};

std::vector<Workload> workloads() {
  std::vector<Workload> result;
  result.push_back({"tiny", testutil::makeTinyProgram()});
  result.push_back({"loop6", testutil::makeLoopProgram(6)});
  result.push_back({"cfg", testutil::makeRandomCfgProgram(0xC5, 2, 3)});
  return result;
}

core::CompiledProgram compileFor(const ir::Program& program,
                                 passes::Scheme scheme) {
  return core::compile(program, testutil::machine(2, 1), scheme);
}

// CI runs this whole file twice: once in the default checkpoint-and-diverge
// mode and once with CASTED_INJECTION_MODE=full, cross-checking that every
// ground-truth contract holds identically on the oracle path.
fault::InjectionMode envInjectionMode() {
  const char* mode = std::getenv("CASTED_INJECTION_MODE");
  if (mode != nullptr && std::strcmp(mode, "full") == 0) {
    return fault::InjectionMode::kFull;
  }
  return fault::InjectionMode::kCheckpointed;
}

fault::ExhaustiveOptions exhaustiveOptions() {
  fault::ExhaustiveOptions options;
  options.mode = envInjectionMode();
  return options;
}

TEST(ExhaustiveGroundTruthTest, EnginesEmitIdenticalDefTraces) {
  for (const Workload& workload : workloads()) {
    for (const passes::Scheme scheme :
         {passes::Scheme::kNoed, passes::Scheme::kCasted}) {
      const core::CompiledProgram bin = compileFor(workload.program, scheme);
      std::vector<sim::DefSite> referenceTrace;
      std::vector<sim::DefSite> decodedTrace;
      sim::SimOptions referenceOpts;
      referenceOpts.defTrace = &referenceTrace;
      const sim::RunResult reference = sim::simulate(
          bin.program, bin.schedule, bin.machine, referenceOpts);
      sim::SimOptions decodedOpts;
      decodedOpts.defTrace = &decodedTrace;
      const sim::RunResult decoded = sim::runDecoded(*bin.decoded,
                                                     decodedOpts);
      ASSERT_EQ(reference.exit, sim::ExitKind::kHalted) << workload.name;
      EXPECT_EQ(reference.stats.dynamicDefInsns, referenceTrace.size());
      EXPECT_EQ(decoded.stats.dynamicDefInsns, decodedTrace.size());
      EXPECT_EQ(referenceTrace, decodedTrace) << workload.name;
    }
  }
}

TEST(ExhaustiveGroundTruthTest, ReportAccountingIsConsistent) {
  const core::CompiledProgram bin =
      compileFor(testutil::makeTinyProgram(), passes::Scheme::kCasted);
  const fault::GroundTruthReport truth =
      core::groundTruth(bin, exhaustiveOptions());

  ASSERT_GT(truth.defInsns, 0u);
  ASSERT_GT(truth.sites, 0u);
  std::uint64_t countTotal = 0;
  double massTotal = 0.0;
  for (std::size_t i = 0; i < fault::kOutcomeCount; ++i) {
    countTotal += truth.counts[i];
    massTotal += truth.mcProbability[i];
    EXPECT_DOUBLE_EQ(
        truth.fraction(static_cast<fault::Outcome>(i)),
        static_cast<double>(truth.counts[i]) /
            static_cast<double>(truth.sites));
  }
  EXPECT_EQ(countTotal, truth.sites);
  EXPECT_NEAR(massTotal, 1.0, 1e-9);
  EXPECT_NEAR(truth.mcSafeProbability(),
              1.0 - truth.mcProbabilityOf(fault::Outcome::kDataCorrupt),
              1e-12);

  // Per-instruction rows partition the site space.
  std::uint64_t siteTotal = 0;
  std::uint64_t executionTotal = 0;
  for (const fault::SiteOutcome& insn : truth.perInsn) {
    siteTotal += insn.sites;
    executionTotal += insn.executions;
    std::uint64_t insnTotal = 0;
    for (const std::uint64_t count : insn.counts) {
      insnTotal += count;
    }
    EXPECT_EQ(insnTotal, insn.sites) << insn.text;
    EXPECT_NE(truth.find(insn.func, insn.insn), nullptr);
  }
  EXPECT_EQ(siteTotal, truth.sites);
  EXPECT_EQ(executionTotal, truth.defInsns);
  EXPECT_EQ(truth.find(0, ir::kInvalidInsn), nullptr);
  EXPECT_FALSE(truth.toString().empty());
}

TEST(ExhaustiveGroundTruthTest, MaxSitesRefusesOnlyAnOversizedSpace) {
  // The cap refuses rather than truncates: one site over it throws, a cap
  // of exactly the site count enumerates the whole space.
  const core::CompiledProgram bin =
      compileFor(testutil::makeTinyProgram(), passes::Scheme::kCasted);
  const std::uint64_t sites =
      core::groundTruth(bin, exhaustiveOptions()).sites;
  ASSERT_GT(sites, 1u);

  fault::ExhaustiveOptions capped = exhaustiveOptions();
  capped.maxSites = sites - 1;
  EXPECT_THROW(core::groundTruth(bin, capped), FatalError);
  capped.maxSites = sites;
  EXPECT_EQ(core::groundTruth(bin, capped).sites, sites);
}

TEST(ExhaustiveGroundTruthTest, ThreadCountEngineAndModeAreInvariant) {
  // The baseline is the serial full-rerun enumeration — the oracle path.
  // Every other way of computing the report (checkpoint-and-diverge, more
  // workers, the reference engine) must reproduce it bit for bit, the
  // mcProbability doubles included: the mass is summed in exact integer
  // units, so worker partitioning cannot change it.
  const core::CompiledProgram bin =
      compileFor(testutil::makeLoopProgram(4), passes::Scheme::kCasted);
  fault::ExhaustiveOptions fullSerial;
  fullSerial.mode = fault::InjectionMode::kFull;
  const fault::GroundTruthReport baseline = core::groundTruth(bin, fullSerial);

  std::vector<std::pair<std::string, fault::ExhaustiveOptions>> variants;
  {
    fault::ExhaustiveOptions options;
    options.mode = fault::InjectionMode::kCheckpointed;
    variants.emplace_back("checkpointed serial", options);
    options.threads = 4;
    variants.emplace_back("checkpointed x4", options);
    options.mode = fault::InjectionMode::kFull;
    variants.emplace_back("full x4", options);
  }
  {
    fault::ExhaustiveOptions options;
    options.simOptions.engine = sim::Engine::kReference;
    variants.emplace_back("reference engine", options);
  }

  for (const auto& [label, options] : variants) {
    const fault::GroundTruthReport other = core::groundTruth(bin, options);
    EXPECT_TRUE(baseline == other) << label;
    EXPECT_EQ(baseline.defInsns, other.defInsns) << label;
    EXPECT_EQ(baseline.sites, other.sites) << label;
    EXPECT_EQ(baseline.counts, other.counts) << label;
    for (std::size_t i = 0; i < fault::kOutcomeCount; ++i) {
      EXPECT_EQ(baseline.mcProbability[i], other.mcProbability[i]) << label;
    }
    ASSERT_EQ(baseline.perInsn.size(), other.perInsn.size()) << label;
    for (std::size_t i = 0; i < baseline.perInsn.size(); ++i) {
      EXPECT_EQ(baseline.perInsn[i].counts, other.perInsn[i].counts)
          << label << " " << baseline.perInsn[i].text;
      EXPECT_EQ(baseline.perInsn[i].insn, other.perInsn[i].insn) << label;
    }
  }
}

// A loop that stores i * 3 + 7 to output word i, for i in [0, n): under
// NOED a flip of the value or of the store's address is a diff in some
// output word until the end.
ir::Program makeStoreLoopProgram(std::int64_t n) {
  ir::Program prog;
  const std::uint64_t out = prog.allocateGlobal("output", 8 * n);
  ir::Function& main = prog.addFunction("main");
  ir::IrBuilder b(main);
  ir::BasicBlock& entry = b.createBlock("entry");
  ir::BasicBlock& loop = b.createBlock("loop");
  ir::BasicBlock& done = b.createBlock("done");
  b.setBlock(entry);
  const ir::Reg base = b.movImm(static_cast<std::int64_t>(out));
  const ir::Reg i = b.movImm(0);
  b.br(loop);
  b.setBlock(loop);
  b.store(b.add(base, b.shlImm(i, 3)), 0, b.addImm(b.mulImm(i, 3), 7));
  b.addImmTo(i, i, 1);
  b.brCond(b.cmpLtImm(i, n), loop, done);
  b.setBlock(done);
  b.halt(b.movImm(0));
  return prog;
}

TEST(ExhaustiveGroundTruthTest, MultiOrdinalWindowsMatchTheFullOracle) {
  // Checkpointed enumeration decides the sites of up to
  // fault::kOrdinalsPerWindow consecutive ordinals as one window.  Under
  // NOED most of the store loop's lanes hold their slots to the end, so a
  // window's later ordinals defer to further streams; the sum loop's lanes
  // mostly fall back or reconverge.  Each report must equal the serial
  // kFull oracle's, at one and at three workers.
  const std::vector<Workload> programs = {
      {"stores", makeStoreLoopProgram(48)},
      {"loop64", testutil::makeLoopProgram(64)}};
  for (const Workload& wl : programs) {
    for (const passes::Scheme scheme :
         {passes::Scheme::kNoed, passes::Scheme::kCasted}) {
      const core::CompiledProgram bin = compileFor(wl.program, scheme);
      const std::string label = wl.name + " " + passes::schemeName(scheme);
      fault::ExhaustiveOptions options;
      options.mode = fault::InjectionMode::kFull;
      const fault::GroundTruthReport full = core::groundTruth(bin, options);
      ASSERT_GT(full.defInsns, 2 * fault::kOrdinalsPerWindow) << label;
      options.mode = fault::InjectionMode::kCheckpointed;
      for (const std::uint32_t threads : {1u, 3u}) {
        options.threads = threads;
        EXPECT_TRUE(full == core::groundTruth(bin, options))
            << label << " x" << threads;
      }
    }
  }
  const core::CompiledProgram stores =
      compileFor(programs[0].program, passes::Scheme::kNoed);
  trace::resetForTest();
  trace::enable("");
  const fault::GroundTruthReport report =
      core::groundTruth(stores, fault::ExhaustiveOptions{});
  const std::string lockstep = "fault.exhaustive.lockstep.";
  const std::int64_t windows = trace::counterValue(lockstep + "windows");
  EXPECT_EQ(windows, static_cast<std::int64_t>(
                         (report.defInsns + fault::kOrdinalsPerWindow - 1) /
                         fault::kOrdinalsPerWindow));
  EXPECT_GT(trace::counterValue(lockstep + "deferred"), 0);
  EXPECT_GT(trace::counterValue(lockstep + "streams"), windows);
  EXPECT_LE(trace::counterValue(lockstep + "streams"),
            windows + trace::counterValue(lockstep + "deferred"));
  trace::resetForTest();
}

TEST(ExhaustiveGroundTruthTest, AnEvictingL3MatchesTheFullOracle) {
  // On a machine whose L3 can evict, a diverged lane's cycle bound is the
  // blocks' worstCycles, so at timeout factor 2 the store loop's lanes
  // whose address left golden's line fall back to timing checks.  The
  // checkpointed report must still equal the serial kFull oracle's, at one
  // and at three workers.
  const core::CompiledProgram bin =
      core::compile(makeStoreLoopProgram(48), testutil::evictingMachine(2, 1),
                    passes::Scheme::kNoed);
  ASSERT_FALSE(bin.decoded->lastLevelKeepsArena());
  fault::ExhaustiveOptions options;
  options.timeoutFactor = 2;
  options.mode = fault::InjectionMode::kFull;
  const fault::GroundTruthReport full = core::groundTruth(bin, options);
  options.mode = fault::InjectionMode::kCheckpointed;
  trace::resetForTest();
  trace::enable("");
  for (const std::uint32_t threads : {1u, 3u}) {
    options.threads = threads;
    EXPECT_TRUE(full == core::groundTruth(bin, options)) << "x" << threads;
  }
  EXPECT_GT(trace::counterValue("fault.exhaustive.lockstep.fallback.timing"),
            0);
  trace::resetForTest();
}

// Contract 2: the lint's "protected"/"sphere-exit" verdicts are sound.
// Every static instruction whose defs the lint all clears must show ZERO
// data-corrupt sites under complete enumeration.
TEST(ExhaustiveGroundTruthTest, LintClearedSitesNeverClassifySdc) {
  for (const Workload& workload : workloads()) {
    for (const passes::Scheme scheme :
         {passes::Scheme::kSced, passes::Scheme::kCasted}) {
      const core::CompiledProgram bin = compileFor(workload.program, scheme);
      const fault::GroundTruthReport truth =
          core::groundTruth(bin, exhaustiveOptions());
      const passes::ProtectionLintResult lint =
          passes::lintProtection(bin.program, scheme);

      // An instruction is "cleared" when every def it produces is
      // protected or sphere-exit.
      std::unordered_map<ir::InsnId, bool> cleared;
      for (const passes::LintSite& site : lint.sites) {
        if (site.func != 0) {
          continue;
        }
        const bool safe =
            site.protection != passes::Protection::kUnprotected;
        const auto it = cleared.find(site.insn);
        if (it == cleared.end()) {
          cleared.emplace(site.insn, safe);
        } else {
          it->second = it->second && safe;
        }
      }
      std::size_t checkedInsns = 0;
      for (const fault::SiteOutcome& outcome : truth.perInsn) {
        const auto it = cleared.find(outcome.insn);
        if (outcome.func != 0 || it == cleared.end() || !it->second) {
          continue;
        }
        ++checkedInsns;
        EXPECT_EQ(outcome.sdcSites(), 0u)
            << workload.name << "/" << passes::schemeName(scheme)
            << ": lint cleared " << outcome.text
            << " but exhaustive injection found "
            << outcome.sdcSites() << " SDC sites\n"
            << lint.toString();
      }
      // The contract is vacuous if nothing was cleared; these protected
      // binaries must clear a healthy share of their defs.
      EXPECT_GT(checkedInsns, 0u)
          << workload.name << "/" << passes::schemeName(scheme);
    }
  }
}

// Contract 3: with one flip per trial (originalDefInsns == 0) the campaign
// samples exactly the measure mcProbability states, so each observed
// fraction lands in the 99% Wilson interval around the exact value.
// Deterministic seed: this is a fixed, reproducible draw, not a flaky one.
TEST(ExhaustiveGroundTruthTest, MonteCarloConvergesToGroundTruth) {
  const std::uint32_t trials = static_cast<std::uint32_t>(
      testutil::testTrials(4000));
  std::uint64_t seed = 0xD15EA5Eu;
  for (const Workload& workload : workloads()) {
    for (const passes::Scheme scheme :
         {passes::Scheme::kNoed, passes::Scheme::kCasted}) {
      const core::CompiledProgram bin = compileFor(workload.program, scheme);
      const fault::GroundTruthReport truth =
          core::groundTruth(bin, exhaustiveOptions());

      fault::CampaignOptions mc;
      mc.trials = trials;
      mc.seed = ++seed;
      mc.threads = 2;          // deterministic by construction
      mc.mode = envInjectionMode();
      mc.originalDefInsns = 0; // exactly one flip per trial
      const fault::CoverageReport report = core::campaign(bin, mc);
      ASSERT_EQ(report.trials, trials);

      for (std::size_t i = 0; i < fault::kOutcomeCount; ++i) {
        const auto outcome = static_cast<fault::Outcome>(i);
        const ProportionInterval interval =
            wilsonInterval(report.counts[i], report.trials);
        EXPECT_TRUE(interval.contains(truth.mcProbabilityOf(outcome)))
            << workload.name << "/" << passes::schemeName(scheme) << " "
            << fault::outcomeName(outcome) << ": observed "
            << report.fraction(outcome) << " of " << report.trials
            << " trials, Wilson99 [" << interval.low << ", "
            << interval.high << "], exact "
            << truth.mcProbabilityOf(outcome);
      }
    }
  }
}

// The exhaustive safety figure and the campaign's safeFraction estimate the
// same quantity; under NOED vs CASTED the ground truth must also reproduce
// the paper's qualitative result (protection removes most SDC mass).
TEST(ExhaustiveGroundTruthTest, ProtectionShrinksExactSdcMass) {
  const ir::Program program = testutil::makeLoopProgram(5);
  const fault::GroundTruthReport noed = core::groundTruth(
      compileFor(program, passes::Scheme::kNoed), exhaustiveOptions());
  const fault::GroundTruthReport casted = core::groundTruth(
      compileFor(program, passes::Scheme::kCasted), exhaustiveOptions());
  EXPECT_GT(noed.mcProbabilityOf(fault::Outcome::kDataCorrupt),
            casted.mcProbabilityOf(fault::Outcome::kDataCorrupt));
  EXPECT_GT(casted.mcSafeProbability(), noed.mcSafeProbability());
  EXPECT_GT(casted.mcProbabilityOf(fault::Outcome::kDetected), 0.0);
}

}  // namespace
}  // namespace casted
