// support/trace contract tests:
//   * counters merge by summation across runWorkerPool workers;
//   * the exported report is well-formed Chrome-tracing JSON (parsed back
//     here by a small recursive-descent JSON reader — no external parser);
//   * the disabled mode is observationally silent: no file, no counter
//     mutations, no events;
//   * the CASTED_TRACE environment override activates a session lazily,
//     and that session writes its report at process exit;
//   * every finished stepwise run is counted like a whole run, and each
//     engine's sim.<engine>.mem_ops is its runs' memory-op count;
//   * a checkpointed campaign counts every trial as one lockstep lane,
//     decided or fallen back by reason, with the fallbacks' stepwise runs
//     (each restored from its window's checkpoint) counted like whole runs,
//     and its report is the untraced one;
//   * each driver counts its golden streams' instructions, the part before
//     each window's first flip and, per fallback reason, what the
//     fallbacks ran and how they ended;
//   * restores count the cache sets and memory records they rewound, one
//     restore never rewinds more sets than the hierarchy has, and a suffix
//     of hits on each set's most recent line rewinds none;
//   * the enumerator's ordinal and site counters match its report.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fault/driver_util.h"
#include "ir/opcode.h"
#include "sim/decoded.h"
#include "support/check.h"
#include "support/trace.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted {
namespace {

// --- A minimal JSON reader, just enough to validate the trace export -------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue* find(const std::string& key) const {
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    const JsonValue value = parseValue();
    skipSpace();
    CASTED_CHECK(pos_ == text_.size()) << "trailing JSON at offset " << pos_;
    return value;
  }

 private:
  void skipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skipSpace();
    CASTED_CHECK(pos_ < text_.size()) << "unexpected end of JSON";
    return text_[pos_];
  }

  void expect(char c) {
    CASTED_CHECK(peek() == c)
        << "expected '" << c << "' at offset " << pos_ << ", got '"
        << text_[pos_] << "'";
    ++pos_;
  }

  JsonValue parseValue() {
    const char c = peek();
    if (c == '{') {
      return parseObject();
    }
    if (c == '[') {
      return parseArray();
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.text = parseString();
      return v;
    }
    if (c == 't' || c == 'f') {
      return parseKeyword();
    }
    if (c == 'n') {
      matchWord("null");
      return JsonValue{};
    }
    return parseNumber();
  }

  void matchWord(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      CASTED_CHECK(pos_ < text_.size() && text_[pos_] == *p)
          << "bad keyword at offset " << pos_;
      ++pos_;
    }
  }

  JsonValue parseKeyword() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_[pos_] == 't') {
      matchWord("true");
      v.boolean = true;
    } else {
      matchWord("false");
    }
    return v;
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    CASTED_CHECK(pos_ > start) << "expected number at offset " << start;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      CASTED_CHECK(pos_ < text_.size()) << "unterminated string";
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        CASTED_CHECK(pos_ < text_.size()) << "unterminated escape";
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            CASTED_CHECK(pos_ + 4 <= text_.size()) << "short \\u escape";
            pos_ += 4;  // validated for shape only; value not needed here
            out += '?';
            break;
          }
          default:
            CASTED_UNREACHABLE("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parseValue());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        return v;
      }
      CASTED_CHECK(c == ',') << "expected ',' in array at offset " << pos_;
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipSpace();
      const std::string key = parseString();
      expect(':');
      v.fields[key] = parseValue();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return v;
      }
      CASTED_CHECK(c == ',') << "expected ',' in object at offset " << pos_;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

// Fresh, path-less in-memory session per test; always left clean.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("CASTED_TRACE");
    trace::resetForTest();
  }
  void TearDown() override {
    ::unsetenv("CASTED_TRACE");
    trace::resetForTest();
  }
};

TEST_F(TraceTest, DisabledByDefaultAndCountersAreNoOps) {
  EXPECT_FALSE(trace::enabled());
  trace::counterAdd("never", 5);
  { const trace::Scope scope("never"); }
  EXPECT_EQ(trace::counterValue("never"), 0);
  EXPECT_TRUE(trace::counterSnapshot().empty());
}

TEST_F(TraceTest, DisabledModeWritesNoFile) {
  const std::string path = ::testing::TempDir() + "casted_trace_disabled.json";
  std::remove(path.c_str());
  EXPECT_FALSE(trace::writeReport());
  EXPECT_FALSE(trace::writeReportTo(path));
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good()) << "disabled session must not create " << path;
}

TEST_F(TraceTest, CountersAccumulateAndMerge) {
  trace::enable("");
  ASSERT_TRUE(trace::enabled());
  trace::counterAdd("a", 2);
  trace::counterAdd("a", 3);
  trace::counterAdd("b");
  trace::counterAdd("c", -4);  // negative deltas are legal (insn deltas)
  EXPECT_EQ(trace::counterValue("a"), 5);
  EXPECT_EQ(trace::counterValue("b"), 1);
  EXPECT_EQ(trace::counterValue("c"), -4);
  EXPECT_EQ(trace::counterValue("untouched"), 0);
  const auto snapshot = trace::counterSnapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, "a");  // sorted by name
  EXPECT_EQ(snapshot[0].second, 5);
}

TEST_F(TraceTest, CountersMergeAcrossWorkerPoolThreads) {
  // Each of 4 pool workers bumps the same counter from its own
  // thread-local buffer; the merged value must be the exact sum, and the
  // per-worker counters must each carry their own contribution.
  trace::enable("");
  fault::detail::runWorkerPool(4, [](std::uint32_t w) {
    for (std::uint32_t i = 0; i < 100; ++i) {
      trace::counterAdd("pool.shared");
    }
    trace::counterAdd("pool.worker" + std::to_string(w), w + 1);
  });
  EXPECT_EQ(trace::counterValue("pool.shared"), 400);
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(trace::counterValue("pool.worker" + std::to_string(w)),
              static_cast<std::int64_t>(w + 1));
  }
}

// The lockstep lane counters of the last campaign(s) (or, with the
// enumerator's prefix, enumerations): decided lanes by decision,
// fallen-back lanes by reason.
std::int64_t lockstepDecided(
    const std::string& prefix = "fault.campaign.lockstep.") {
  std::int64_t sum = 0;
  for (const char* end : {"detected", "exception", "halt", "reconverged"}) {
    sum += trace::counterValue(prefix + "decided." + end);
  }
  return sum;
}

std::int64_t lockstepFallbacks(
    const std::string& prefix = "fault.campaign.lockstep.") {
  std::int64_t sum = 0;
  for (const char* reason : {"control", "timing"}) {
    sum += trace::counterValue(prefix + "fallback." + reason);
  }
  return sum;
}

// Per fallback reason, the outcome counters of the re-runs sum to the
// reason's fallbacks; a timing check stops at its safe point or times out,
// not both; only a lane whose cycle bound went live (diverged) falls back
// as timing; and the windows' prefixes lie inside their streams.
void expectFallbackOutcomesAndPrefix(const std::string& prefix) {
  for (const char* reason : {"control", "timing"}) {
    std::int64_t outcomes = 0;
    for (std::size_t o = 0; o < fault::kOutcomeCount; ++o) {
      outcomes += trace::counterValue(
          prefix + "fallback_outcome." + reason + "." +
          fault::outcomeName(static_cast<fault::Outcome>(o)));
    }
    EXPECT_EQ(outcomes, trace::counterValue(prefix + "fallback." + reason))
        << prefix << reason;
  }
  EXPECT_LE(trace::counterValue(prefix + "timing_safe") +
                trace::counterValue(prefix + "fallback_outcome.timing.timeout"),
            trace::counterValue(prefix + "fallback.timing"))
      << prefix;
  EXPECT_LE(trace::counterValue(prefix + "fallback.timing"),
            trace::counterValue(prefix + "diverged"))
      << prefix;
  EXPECT_LE(trace::counterValue(prefix + "diverged"),
            trace::counterValue(prefix + "lanes"))
      << prefix;
  EXPECT_GT(trace::counterValue(prefix + "prefix_insns"), 0) << prefix;
  EXPECT_LE(trace::counterValue(prefix + "prefix_insns"),
            trace::counterValue(prefix + "stream_insns"))
      << prefix;
}

// A window runs one golden stream, and one more for each stream that
// deferred plans to a later one.
void expectStreams(const std::string& prefix, std::int64_t windows) {
  const std::int64_t streams = trace::counterValue(prefix + "streams");
  EXPECT_EQ(trace::counterValue(prefix + "windows"), windows) << prefix;
  EXPECT_GE(streams, windows) << prefix;
  EXPECT_LE(streams, windows + trace::counterValue(prefix + "deferred"))
      << prefix;
}

// The lane ops split by lane end sum to lane_ops, and so do the lane ops
// split by opcode; each lane step (a golden op that evaluated some lane)
// evaluated at least one lane op.
void expectLaneOpsByEndAndSteps(const std::string& prefix) {
  std::int64_t byEnd = 0;
  for (std::size_t e = 0; e < sim::kLaneEndCount; ++e) {
    const auto end = static_cast<sim::LaneEnd>(e);
    byEnd += trace::counterValue(prefix + "lane_ops." + sim::laneEndName(end));
  }
  std::int64_t byOpcode = 0;
  for (std::size_t op = 0; op < sim::OpcodeCounts{}.size(); ++op) {
    byOpcode += trace::counterValue(
        prefix + "lane_ops.op." +
        ir::opcodeInfo(static_cast<ir::Opcode>(op)).name);
  }
  const std::int64_t laneOps = trace::counterValue(prefix + "lane_ops");
  EXPECT_EQ(byEnd, laneOps) << prefix;
  EXPECT_EQ(byOpcode, laneOps) << prefix;
  EXPECT_GT(trace::counterValue(prefix + "lane_steps"), 0) << prefix;
  EXPECT_LE(trace::counterValue(prefix + "lane_steps"), laneOps) << prefix;
}

TEST_F(TraceTest, CheckpointedCampaignCountsEveryTrialRun) {
  // Every trial of a checkpointed campaign is a lockstep lane.  A lane that
  // lockstep cannot decide re-runs from its window's checkpoint through
  // DecodedRunner::finish(), which adds it to sim.decoded.* like a whole
  // run; the golden profiling run is the one run more.  Each re-run
  // restores the checkpoint once.  NOED, so flips reach the loop's branch
  // and lanes fall back; one worker, so the window's fallbacks share one
  // checkpoint.
  const core::CompiledProgram bin =
      core::compile(testutil::makeLoopProgram(64), testutil::machine(2, 1),
                    passes::Scheme::kNoed);
  fault::CampaignOptions options;
  options.trials = 40;
  options.threads = 1;
  options.mode = fault::InjectionMode::kCheckpointed;
  trace::enable("");
  const fault::CoverageReport report = core::campaign(bin, options);
  ASSERT_EQ(report.trials, options.trials);
  EXPECT_EQ(trace::counterValue("fault.campaign.trials"), options.trials);
  EXPECT_EQ(trace::counterValue("fault.campaign.lockstep.lanes"),
            options.trials);
  EXPECT_EQ(lockstepDecided() + lockstepFallbacks(), options.trials);
  ASSERT_GE(lockstepFallbacks(), 2);
  EXPECT_EQ(trace::counterValue("sim.checkpoint.restores"),
            lockstepFallbacks());
  EXPECT_EQ(trace::counterValue("sim.decoded.runs"), 1 + lockstepFallbacks());
  expectStreams("fault.campaign.lockstep.", 1);
  expectFallbackOutcomesAndPrefix("fault.campaign.lockstep.");
}

TEST_F(TraceTest, EveryFinishedStepwiseRunIsCounted) {
  // begin/runToDef/finish, then restore/finish twice: three finished
  // suffixes, three runs in sim.decoded.runs.
  const core::CompiledProgram bin =
      core::compile(testutil::makeLoopProgram(8), testutil::machine(2, 1),
                    passes::Scheme::kCasted);
  trace::enable("");
  sim::DecodedRunner runner(*bin.decoded);
  runner.begin(sim::SimOptions{});
  ASSERT_TRUE(runner.runToDef(5));
  sim::ArchCheckpoint checkpoint;
  runner.saveCheckpoint(checkpoint);
  for (std::int64_t suffix = 1; suffix <= 3; ++suffix) {
    if (suffix > 1) {
      runner.restoreCheckpoint(checkpoint);
    }
    ASSERT_EQ(runner.finish().exit, sim::ExitKind::kHalted);
    EXPECT_EQ(trace::counterValue("sim.decoded.runs"), suffix);
  }
}

TEST_F(TraceTest, LockstepLanesAreDecidedOrFallBackAndTracingOnlyObserves) {
  // NOED, so flips reach the loop's branch and some lanes fall back.  Every
  // lane is counted exactly once, by decision or by fallback reason, and
  // the report is the one the untraced campaign gives.
  const core::CompiledProgram bin =
      core::compile(testutil::makeLoopProgram(64), testutil::machine(2, 1),
                    passes::Scheme::kNoed);
  fault::CampaignOptions options;
  options.trials = 120;
  options.threads = 2;
  const fault::CoverageReport untraced = core::campaign(bin, options);
  trace::enable("");
  const fault::CoverageReport traced = core::campaign(bin, options);
  EXPECT_EQ(traced.counts, untraced.counts);
  EXPECT_EQ(traced.dynamicInsns, untraced.dynamicInsns);
  EXPECT_EQ(trace::counterValue("fault.campaign.lockstep.lanes"),
            options.trials);
  EXPECT_EQ(lockstepDecided() + lockstepFallbacks(), options.trials);
  EXPECT_GT(trace::counterValue("fault.campaign.lockstep.fallback.control"),
            0);
  EXPECT_GT(trace::counterValue("fault.campaign.lockstep.lane_ops"), 0);
  // Each of the two workers takes its share, 60 trials, as one window.
  expectStreams("fault.campaign.lockstep.", 2);
  expectFallbackOutcomesAndPrefix("fault.campaign.lockstep.");
  expectLaneOpsByEndAndSteps("fault.campaign.lockstep.");
}

// Adds table[(i * stride) mod 64 KiB] into one output word per iteration.
// At stride 0, after the first iteration every access is an L1 hit on the
// most recent line of its set, which changes no cache set.  At stride 64
// the walk covers four times the L1 size in 64-byte lines, so every table
// load misses L1 and fills it.
ir::Program makeTableWalkProgram(std::int64_t n, std::int64_t stride) {
  constexpr std::int64_t kTableBytes = 64 * 1024;
  ir::Program prog;
  const std::uint64_t outAddr = prog.allocateGlobal("output", 8);
  const std::uint64_t tableAddr = prog.allocateGlobal("table", kTableBytes);
  ir::Function& main = prog.addFunction("main");
  ir::IrBuilder b(main);
  ir::BasicBlock& entry = b.createBlock("entry");
  ir::BasicBlock& loop = b.createBlock("loop");
  ir::BasicBlock& done = b.createBlock("done");
  b.setBlock(entry);
  const ir::Reg base = b.movImm(static_cast<std::int64_t>(outAddr));
  const ir::Reg table = b.movImm(static_cast<std::int64_t>(tableAddr));
  const ir::Reg i = b.movImm(0);
  b.br(loop);
  b.setBlock(loop);
  const ir::Reg offset = b.andImm(b.mulImm(i, stride), kTableBytes - 1);
  const ir::Reg word = b.load(b.add(table, offset), 0);
  b.store(base, 0, b.add(b.load(base, 0), word));
  b.addImmTo(i, i, 1);
  b.brCond(b.cmpLtImm(i, n), loop, done);
  b.setBlock(done);
  b.halt(b.movImm(0));
  return prog;
}

std::int64_t totalCacheSets(const core::CompiledProgram& bin) {
  std::int64_t sets = 0;
  for (const arch::CacheLevelConfig& level :
       bin.decoded->cacheConfig().levels) {
    sets += static_cast<std::int64_t>(level.sizeBytes / level.blockBytes /
                                      level.associativity);
  }
  return sets;
}

TEST_F(TraceTest, CheckpointedCampaignCountsRewoundRecords) {
  // Each restore adds the cache sets and memory undo records it rewound.
  // NOED, so faulty suffixes run on to the loop's loads and stores instead
  // of stopping at a check; every iteration's table load changes L1 sets.
  const core::CompiledProgram bin =
      core::compile(makeTableWalkProgram(200, 64), testutil::machine(2, 1),
                    passes::Scheme::kNoed);
  fault::CampaignOptions options;
  options.trials = 40;
  options.threads = 2;
  options.mode = fault::InjectionMode::kCheckpointed;
  trace::enable("");
  core::campaign(bin, options);
  const std::int64_t restores =
      trace::counterValue("sim.checkpoint.restores");
  const std::int64_t sets = trace::counterValue("sim.restore.cache_sets");
  EXPECT_GT(restores, 0);
  EXPECT_GT(sets, 0);
  EXPECT_LE(sets, restores * totalCacheSets(bin));
  EXPECT_GT(trace::counterValue("sim.restore.memory_records"), 0);
}

TEST_F(TraceTest, RestoreRewindsEachCacheSetAtMostOnce) {
  // The cache undo log records a set on its first change since the mark,
  // so one restore never rewinds more sets than the hierarchy has, even
  // after a suffix of tens of thousands of accesses; a suffix of hits on
  // each set's most recent line changes no set at all.
  for (const bool hitHeavy : {true, false}) {
    const core::CompiledProgram bin =
        core::compile(makeTableWalkProgram(20000, hitHeavy ? 0 : 64),
                      testutil::machine(2, 1), passes::Scheme::kCasted);
    const std::int64_t totalSets = totalCacheSets(bin);
    trace::resetForTest();
    trace::enable("");
    sim::DecodedRunner runner(*bin.decoded);
    runner.begin(sim::SimOptions{});
    // Some iterations in: the first one's cold misses are golden prefix.
    ASSERT_TRUE(runner.runToDef(100));
    sim::ArchCheckpoint checkpoint;
    runner.saveCheckpoint(checkpoint);
    for (int suffix = 0; suffix < 3; ++suffix) {
      const sim::RunResult result = runner.finish();
      ASSERT_GT(static_cast<std::int64_t>(result.stats.memAccesses),
                totalSets);
      const std::int64_t sets = trace::counterValue("sim.restore.cache_sets");
      const std::int64_t records =
          trace::counterValue("sim.restore.memory_records");
      runner.restoreCheckpoint(checkpoint);
      const std::int64_t rewoundSets =
          trace::counterValue("sim.restore.cache_sets") - sets;
      if (hitHeavy) {
        EXPECT_EQ(rewoundSets, 0) << suffix;
      } else {
        EXPECT_GT(rewoundSets, 0) << suffix;
        EXPECT_LE(rewoundSets, totalSets) << suffix;
      }
      EXPECT_GT(trace::counterValue("sim.restore.memory_records"), records)
          << hitHeavy << " " << suffix;
    }
  }
}

TEST_F(TraceTest, EnumerationCountsOrdinalsAndSitesPerWorker) {
  // The enumerator's counters come from the shared fault-site loop: every
  // ordinal is counted once, by the worker that claimed it.  In
  // checkpointed mode the sites of up to kOrdinalsPerWindow consecutive
  // ordinals are one lockstep window, counted under the enumerator's own
  // prefix and never as campaign lanes; each worker claims one here.
  const core::CompiledProgram bin =
      core::compile(testutil::makeLoopProgram(40), testutil::machine(2, 1),
                    passes::Scheme::kCasted);
  for (const fault::InjectionMode mode :
       {fault::InjectionMode::kCheckpointed, fault::InjectionMode::kFull}) {
    trace::resetForTest();
    fault::ExhaustiveOptions options;
    options.threads = 2;
    options.mode = mode;
    trace::enable("");
    const fault::GroundTruthReport report = core::groundTruth(bin, options);
    const std::string label = fault::injectionModeName(mode);
    const auto defInsns = static_cast<std::int64_t>(report.defInsns);
    EXPECT_EQ(trace::counterValue("fault.exhaustive.ordinals"), defInsns)
        << label;
    EXPECT_EQ(trace::counterValue("fault.exhaustive.sites"),
              static_cast<std::int64_t>(report.sites))
        << label;
    std::int64_t perWorker = 0;
    for (std::uint32_t w = 0; w < options.threads; ++w) {
      perWorker += trace::counterValue("fault.exhaustive.worker" +
                                       std::to_string(w) + ".ordinals");
    }
    EXPECT_EQ(perWorker, defInsns) << label;

    const std::string lockstep = "fault.exhaustive.lockstep.";
    const std::int64_t lanes = trace::counterValue(lockstep + "lanes");
    if (mode == fault::InjectionMode::kCheckpointed) {
      EXPECT_EQ(lanes, static_cast<std::int64_t>(report.sites)) << label;
      const std::int64_t windows = trace::counterValue(lockstep + "windows");
      const auto perWindow =
          static_cast<std::int64_t>(fault::kOrdinalsPerWindow);
      ASSERT_GE(defInsns, perWindow * options.threads) << label;
      EXPECT_EQ(windows, (defInsns + perWindow - 1) / perWindow) << label;
      expectStreams(lockstep, windows);
      EXPECT_EQ(lockstepDecided(lockstep) + lockstepFallbacks(lockstep), lanes)
          << label;
      expectFallbackOutcomesAndPrefix(lockstep);
      expectLaneOpsByEndAndSteps(lockstep);
    } else {
      EXPECT_EQ(lanes, 0) << label;
    }
    for (const auto& [name, value] : trace::counterSnapshot()) {
      EXPECT_FALSE(name.starts_with("fault.campaign.")) << label << " " << name;
    }
  }
}

TEST_F(TraceTest, LockstepCountsStreamAndFallbackInstructionsPerDriver) {
  // Each driver counts the instructions its golden streams ran, the part
  // before each window's first flip and, per fallback reason, the
  // instructions its fallbacks ran past their injection point (at least
  // one per fallback, so a reason's count is positive exactly when it has
  // fallbacks) and how they ended.  NOED 175.vpr with the watchdog
  // at twice the golden cycles gives both drivers control and timing
  // fallbacks.
  const core::CompiledProgram bin =
      core::compile(workloads::makeWorkload("175.vpr").program,
                    testutil::machine(2, 1), passes::Scheme::kNoed);
  fault::CampaignOptions campaign;
  campaign.trials = 600;
  campaign.threads = 2;
  campaign.timeoutFactor = 2;
  fault::ExhaustiveOptions exhaustive;
  exhaustive.threads = 2;
  exhaustive.timeoutFactor = 2;
  trace::enable("");
  core::campaign(bin, campaign);
  core::groundTruth(bin, exhaustive);
  for (const std::string driver : {"campaign", "exhaustive"}) {
    const std::string prefix = "fault." + driver + ".lockstep.";
    EXPECT_GE(trace::counterValue(prefix + "stream_insns"),
              trace::counterValue(prefix + "windows"))
        << driver;
    EXPECT_GT(trace::counterValue(prefix + "windows"), 0) << driver;
    expectStreams(prefix, trace::counterValue(prefix + "windows"));
    for (const char* reason : {"control", "timing"}) {
      const std::int64_t fallbacks =
          trace::counterValue(prefix + "fallback." + reason);
      const std::int64_t insns =
          trace::counterValue(prefix + "fallback_insns." + reason);
      EXPECT_EQ(insns > 0, fallbacks > 0) << driver << " " << reason;
      EXPECT_GE(insns, fallbacks) << driver << " " << reason;
    }
    EXPECT_GT(trace::counterValue(prefix + "fallback.control"), 0) << driver;
    EXPECT_GT(trace::counterValue(prefix + "fallback.timing"), 0) << driver;
    expectFallbackOutcomesAndPrefix(prefix);
    expectLaneOpsByEndAndSteps(prefix);
  }
}

TEST_F(TraceTest, DecodedCountersHoldOnlyExecutedInstructions) {
  // sim.decoded.* counts what each run executed: a fallback re-run restored
  // from its stream's checkpoint adds only what it ran past that
  // checkpoint, not the golden prefix it restored.  A window of one
  // ordinal's sites rolls no checkpoint forward, so there the counter is
  // exactly what the fallbacks ran past their injection point.
  const core::CompiledProgram bin =
      core::compile(testutil::makeLoopProgram(64), testutil::machine(2, 1),
                    passes::Scheme::kNoed);
  const sim::RunResult goldenRun = core::run(bin);
  const auto golden = static_cast<std::int64_t>(goldenRun.stats.dynamicInsns);
  trace::enable("");
  sim::DecodedRunner runner(*bin.decoded);
  sim::SimOptions armed;
  armed.maxCycles = goldenRun.stats.cycles * 20;
  std::int64_t fallbacks = 0;
  std::int64_t pastInjection = 0;
  for (std::uint64_t ordinal = 0; ordinal < goldenRun.stats.dynamicDefInsns;
       ++ordinal) {
    std::vector<sim::FaultPlan> plans;
    for (std::uint32_t bit = 0; bit < 64; ++bit) {
      plans.push_back({{{ordinal, 0, bit}}});
    }
    std::vector<const sim::FaultPlan*> lanes;
    for (const sim::FaultPlan& plan : plans) {
      lanes.push_back(&plan);
    }
    std::vector<sim::LaneVerdict> verdicts;
    runner.runLockstep(armed, lanes, verdicts, goldenRun.stats.dynamicInsns);
    for (const sim::LaneVerdict& lane : verdicts) {
      if (sim::isFallback(lane.end)) {
        ++fallbacks;
        pastInjection += static_cast<std::int64_t>(
            lane.rerun.stats.dynamicInsns - lane.injectedAt);
      }
    }
  }
  ASSERT_GT(fallbacks, 0);
  EXPECT_EQ(trace::counterValue("sim.decoded.runs"), fallbacks);
  EXPECT_EQ(trace::counterValue("sim.decoded.insns"), pastInjection);

  // The enumerator's windows span several ordinals, so a fallback may roll
  // its stream's checkpoint forward first: at most up to the stream's last
  // fallback, which the stream ran past.
  trace::resetForTest();
  trace::enable("");
  fault::ExhaustiveOptions options;
  options.threads = 2;
  core::groundTruth(bin, options);
  const std::string prefix = "fault.exhaustive.lockstep.";
  std::int64_t fallbackInsns = 0;
  for (const char* reason : {"control", "timing"}) {
    fallbackInsns += trace::counterValue(prefix + "fallback_insns." + reason);
  }
  ASSERT_GT(lockstepFallbacks(prefix), 0);
  EXPECT_EQ(trace::counterValue("sim.decoded.runs"),
            1 + lockstepFallbacks(prefix));
  const std::int64_t rolledForward =
      trace::counterValue("sim.decoded.insns") - golden - fallbackInsns;
  EXPECT_GE(rolledForward, 0);
  EXPECT_LE(rolledForward, trace::counterValue(prefix + "stream_insns") -
                               trace::counterValue(prefix + "prefix_insns"));
}

TEST_F(TraceTest, MemOpsCountsTheRunsMemoryOpsOnBothEngines) {
  // sim.<engine>.mem_ops is RunStats::memAccesses, every executed load and
  // store, not the accesses that reached memory (the L3 misses).
  const core::CompiledProgram bin =
      core::compile(workloads::makeWorkload("cjpeg").program,
                    testutil::machine(2, 1), passes::Scheme::kCasted);
  for (const sim::Engine engine :
       {sim::Engine::kDecoded, sim::Engine::kReference}) {
    trace::resetForTest();
    trace::enable("");
    sim::SimOptions options;
    options.engine = engine;
    const sim::RunResult result = core::run(bin, options);
    const std::string prefix = std::string("sim.") + sim::engineName(engine);
    EXPECT_EQ(trace::counterValue(prefix + ".mem_ops"),
              static_cast<std::int64_t>(result.stats.memAccesses))
        << prefix;
    EXPECT_GT(result.stats.memAccesses, result.stats.memoryAccesses) << prefix;
  }
}

TEST_F(TraceTest, ReportIsValidChromeTraceJson) {
  trace::enable("");
  {
    const trace::Scope outer("outer");
    const trace::Scope inner("inner");
  }
  trace::counterAdd("events.count", 3);
  trace::setMetadata("threads", "4");
  trace::setMetadata("engine", "decoded");
  trace::setMetadata("injection_mode", "checkpointed");

  const std::string json = trace::reportJson();
  const JsonValue root = JsonReader(json).parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);

  // traceEvents: every record is a complete ("X") event carrying
  // name/ts/dur/pid/tid.
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->items.size(), 2u);
  bool sawOuter = false;
  bool sawInner = false;
  for (const JsonValue& event : events->items) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* name = event.find("name");
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_NE(event.find("ts"), nullptr);
    EXPECT_NE(event.find("pid"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
    EXPECT_EQ(ph->text, "X") << name->text;
    EXPECT_NE(event.find("dur"), nullptr) << name->text;
    sawOuter = sawOuter || name->text == "outer";
    sawInner = sawInner || name->text == "inner";
  }
  EXPECT_TRUE(sawOuter);
  EXPECT_TRUE(sawInner);

  // counters: the flat summary carries the merged values.
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->kind, JsonValue::Kind::kObject);
  const JsonValue* count = counters->find("events.count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->number, 3.0);

  // metadata: caller keys plus the automatic git_describe.
  const JsonValue* metadata = root.find("metadata");
  ASSERT_NE(metadata, nullptr);
  const JsonValue* threads = metadata->find("threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->text, "4");
  EXPECT_NE(metadata->find("engine"), nullptr);
  EXPECT_NE(metadata->find("injection_mode"), nullptr);
  EXPECT_NE(metadata->find("git_describe"), nullptr);
}

TEST_F(TraceTest, WriteReportEmitsParsableFile) {
  const std::string path = ::testing::TempDir() + "casted_trace_out.json";
  std::remove(path.c_str());
  trace::enable(path);
  { const trace::Scope scope("write.scope"); }
  trace::counterAdd("write.counter", 7);
  ASSERT_TRUE(trace::writeReport());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = JsonReader(buffer.str()).parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* counter = counters->find("write.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number, 7.0);
  std::remove(path.c_str());
}

TEST_F(TraceTest, EnvOverrideActivatesLazily) {
  // CASTED_TRACE resolves on the first enabled() query after reset — the
  // library path used by binaries that never call trace::enable().
  const std::string path = ::testing::TempDir() + "casted_trace_env.json";
  ::setenv("CASTED_TRACE", path.c_str(), 1);
  trace::resetForTest();
  EXPECT_TRUE(trace::enabled());
  EXPECT_EQ(trace::outputPath(), path);

  // And CASTED_TRACE unset resolves to inactive.
  ::unsetenv("CASTED_TRACE");
  trace::resetForTest();
  EXPECT_FALSE(trace::enabled());
}

TEST_F(TraceTest, EnvSessionWritesItsReportAtExit) {
  // A binary that never calls writeReport() still gets its CASTED_TRACE
  // file: the session exports at normal process exit.
  const std::string path = ::testing::TempDir() + "casted_trace_atexit.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        ::setenv("CASTED_TRACE", path.c_str(), 1);
        trace::resetForTest();
        trace::counterAdd("atexit.counter", 5);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no report at " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = JsonReader(buffer.str()).parse();
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* counter = counters->find("atexit.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number, 5.0);
  std::remove(path.c_str());
}

TEST_F(TraceTest, DisableKeepsCollectedDataUntilReset) {
  trace::enable("");
  trace::counterAdd("kept", 9);
  trace::disable();
  EXPECT_FALSE(trace::enabled());
  trace::counterAdd("kept", 100);  // no-op while inactive
  EXPECT_EQ(trace::counterValue("kept"), 9);
  trace::resetForTest();
  EXPECT_EQ(trace::counterValue("kept"), 0);
}

}  // namespace
}  // namespace casted
