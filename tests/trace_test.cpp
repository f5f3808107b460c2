// support/trace contract tests:
//   * counters merge by summation across runWorkerPool workers;
//   * the exported report is well-formed Chrome-tracing JSON (parsed back
//     here by a small recursive-descent JSON reader — no external parser);
//   * the disabled mode is observationally silent: no file, no counter
//     mutations, no events;
//   * the CASTED_TRACE environment override activates a session lazily,
//     and that session writes its report at process exit;
//   * every finished stepwise run is counted like a whole run;
//   * a checkpointed campaign counts every trial as one lockstep lane,
//     decided or fallen back by reason, with the fallbacks' stepwise runs
//     (restored from one checkpoint) counted like whole runs, and its
//     report is the untraced one;
//   * restores count the cache ways and memory records they rewound, and
//     one restore never rewinds more ways than the hierarchy has;
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
#include "support/check.h"
#include "support/trace.h"
#include "test_util.h"

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
  trace::instant("never");
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

// The lockstep lane counters of the last campaign(s): decided lanes by
// decision, fallen-back lanes by reason.
std::int64_t lockstepDecided() {
  std::int64_t sum = 0;
  for (const char* end :
       {"detected", "exception", "halt", "reconverged", "timeout"}) {
    sum += trace::counterValue(std::string("fault.campaign.lockstep.decided.") +
                               end);
  }
  return sum;
}

std::int64_t lockstepFallbacks() {
  std::int64_t sum = 0;
  for (const char* reason : {"control", "timing", "budget"}) {
    sum += trace::counterValue(
        std::string("fault.campaign.lockstep.fallback.") + reason);
  }
  return sum;
}

TEST_F(TraceTest, CheckpointedCampaignCountsEveryTrialRun) {
  // Every trial of a checkpointed campaign is a lockstep lane.  A lane that
  // lockstep cannot decide re-runs from the worker's checkpoint through
  // DecodedRunner::finish(), which adds it to sim.decoded.* like a whole
  // run; the golden profiling run is the one run more.  NOED, so flips
  // reach the loop's branch and lanes fall back; one worker, so the
  // window's fallbacks share one checkpoint and restore it.
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
  EXPECT_GT(trace::counterValue("sim.checkpoint.restores"), 0);
  EXPECT_EQ(trace::counterValue("sim.decoded.runs"), 1 + lockstepFallbacks());
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
  EXPECT_GE(trace::counterValue("fault.campaign.lockstep.windows"), 2);
}

// Reads, bumps and writes back one word per iteration: after the first
// iteration every access is an L1 hit on the same line.
ir::Program makeHitHeavyProgram(std::int64_t n) {
  ir::Program prog;
  const std::uint64_t outAddr = prog.allocateGlobal("output", 8);
  ir::Function& main = prog.addFunction("main");
  ir::IrBuilder b(main);
  ir::BasicBlock& entry = b.createBlock("entry");
  ir::BasicBlock& loop = b.createBlock("loop");
  ir::BasicBlock& done = b.createBlock("done");
  b.setBlock(entry);
  const ir::Reg base = b.movImm(static_cast<std::int64_t>(outAddr));
  const ir::Reg i = b.movImm(0);
  b.br(loop);
  b.setBlock(loop);
  b.store(base, 0, b.add(b.load(base, 0), i));
  b.addImmTo(i, i, 1);
  b.brCond(b.cmpLtImm(i, n), loop, done);
  b.setBlock(done);
  b.halt(b.movImm(0));
  return prog;
}

std::int64_t totalCacheWays(const core::CompiledProgram& bin) {
  std::int64_t ways = 0;
  for (const arch::CacheLevelConfig& level :
       bin.decoded->cacheConfig().levels) {
    ways += static_cast<std::int64_t>(level.sizeBytes / level.blockBytes);
  }
  return ways;
}

TEST_F(TraceTest, CheckpointedCampaignCountsRewoundRecords) {
  // Each restore adds the cache ways and memory undo records it rewound.
  // NOED, so faulty suffixes run on to the loop's loads and stores instead
  // of stopping at a check.
  const core::CompiledProgram bin =
      core::compile(makeHitHeavyProgram(200), testutil::machine(2, 1),
                    passes::Scheme::kNoed);
  fault::CampaignOptions options;
  options.trials = 40;
  options.threads = 2;
  options.mode = fault::InjectionMode::kCheckpointed;
  trace::enable("");
  core::campaign(bin, options);
  const std::int64_t restores =
      trace::counterValue("sim.checkpoint.restores");
  const std::int64_t ways = trace::counterValue("sim.restore.cache_ways");
  EXPECT_GT(restores, 0);
  EXPECT_GT(ways, 0);
  EXPECT_LE(ways, restores * totalCacheWays(bin));
  EXPECT_GT(trace::counterValue("sim.restore.memory_records"), 0);
}

TEST_F(TraceTest, RestoreRewindsEachCacheWayAtMostOnce) {
  // The cache undo log records a way on its first change since the mark,
  // so one restore never rewinds more ways than the hierarchy has, even
  // after a suffix of tens of thousands of L1 hits.
  const core::CompiledProgram bin =
      core::compile(makeHitHeavyProgram(20000), testutil::machine(2, 1),
                    passes::Scheme::kCasted);
  const std::int64_t totalWays = totalCacheWays(bin);
  trace::enable("");
  sim::DecodedRunner runner(*bin.decoded);
  runner.begin(sim::SimOptions{});
  ASSERT_TRUE(runner.runToDef(10));
  sim::ArchCheckpoint checkpoint;
  runner.saveCheckpoint(checkpoint);
  for (int suffix = 0; suffix < 3; ++suffix) {
    const sim::RunResult result = runner.finish();
    ASSERT_GT(static_cast<std::int64_t>(result.stats.memAccesses), totalWays);
    const std::int64_t ways = trace::counterValue("sim.restore.cache_ways");
    const std::int64_t records =
        trace::counterValue("sim.restore.memory_records");
    runner.restoreCheckpoint(checkpoint);
    const std::int64_t rewoundWays =
        trace::counterValue("sim.restore.cache_ways") - ways;
    EXPECT_GT(rewoundWays, 0) << suffix;
    EXPECT_LE(rewoundWays, totalWays) << suffix;
    EXPECT_GT(trace::counterValue("sim.restore.memory_records"), records)
        << suffix;
  }
}

TEST_F(TraceTest, EnumerationCountsOrdinalsAndSitesPerWorker) {
  // The enumerator's counters come from the shared fault-site loop: every
  // ordinal is counted once, by the worker that claimed it.
  const core::CompiledProgram bin =
      core::compile(testutil::makeLoopProgram(4), testutil::machine(2, 1),
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
  }
}

TEST_F(TraceTest, ReportIsValidChromeTraceJson) {
  trace::enable("");
  {
    const trace::Scope outer("outer");
    const trace::Scope inner("inner");
    trace::instant("marker");
  }
  trace::counterAdd("events.count", 3);
  trace::setMetadata("threads", "4");
  trace::setMetadata("engine", "decoded");
  trace::setMetadata("injection_mode", "checkpointed");

  const std::string json = trace::reportJson();
  const JsonValue root = JsonReader(json).parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);

  // traceEvents: every record is a complete ("X", with dur) or instant
  // ("i") event carrying name/ts/pid/tid.
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->items.size(), 3u);
  bool sawOuter = false;
  bool sawMarker = false;
  for (const JsonValue& event : events->items) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* name = event.find("name");
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_NE(event.find("ts"), nullptr);
    EXPECT_NE(event.find("pid"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
    if (ph->text == "X") {
      EXPECT_NE(event.find("dur"), nullptr) << name->text;
    } else {
      EXPECT_EQ(ph->text, "i") << name->text;
    }
    sawOuter = sawOuter || (name->text == "outer" && ph->text == "X");
    sawMarker = sawMarker || (name->text == "marker" && ph->text == "i");
  }
  EXPECT_TRUE(sawOuter);
  EXPECT_TRUE(sawMarker);

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
