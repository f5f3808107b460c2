// support/trace — the library's observability subsystem: thread-safe named
// counters and scoped duration events, buffered per thread and exported as
// Chrome `chrome://tracing` JSON plus a flat counter summary.
//
// Lifecycle.  A single process-wide trace session is either active or
// inactive.  It activates in one of two ways:
//   * programmatically — trace::enable(path) (path may be empty: collect
//     in memory only, e.g. for tests);
//   * by environment override — CASTED_TRACE=<path>, resolved lazily on the
//     first enabled() query, so library users get tracing without any
//     main() plumbing: a session activated this way writes its report to
//     <path> at normal process exit (std::atexit), if it is still active.
// trace::writeReport() emits the JSON to the session path at any time and
// returns whether a file was written (the bench/example binaries call it
// to print where the trace went; the exit export then rewrites the file
// with everything collected until exit).
//
// Cost contract.  Every instrumentation entry point is an inline guard
// around a single relaxed atomic load: when the session is inactive, a
// counter add or Scope construction performs NO work beyond
// that load — no thread-local access, no allocation, no string copy.  The
// campaign-throughput acceptance bound (<= 2% with tracing disabled,
// DESIGN.md §11) leans on exactly this property.
//
// Determinism contract.  Tracing only observes: it never feeds back into
// compilation, simulation or fault injection, so campaign and exhaustive
// reports are bit-identical with the session active or inactive
// (tests/trace_test.cpp and the campaign oracle test assert this).
//
// Threading.  Events and counters are buffered in a thread-local buffer
// (one uncontended mutex acquisition per record); buffers flush into a
// process-wide registry when their thread exits, and the exporter merges
// retired and still-live buffers under the registry lock.  Counters with
// the same name merge by summation across threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace casted::trace {

namespace detail {

// 0 = unresolved (consult CASTED_TRACE on first query), 1 = inactive,
// 2 = active.
extern std::atomic<int> gState;

// Resolves gState from the CASTED_TRACE environment variable; returns the
// resulting enabled state.
bool initFromEnv();

void counterAddSlow(std::string_view name, std::int64_t delta);
void scopeEndSlow(const std::string& name, std::uint64_t startNs);
std::uint64_t nowNs();

}  // namespace detail

// True while the trace session is active.  The inline fast path is one
// relaxed atomic load; only the very first query may fall into the
// environment lookup.
inline bool enabled() {
  const int state = detail::gState.load(std::memory_order_relaxed);
  if (state == 0) {
    return detail::initFromEnv();
  }
  return state == 2;
}

// Activates the session programmatically.  `path` is where writeReport()
// emits the JSON; an empty path collects in memory only.  Overrides any
// CASTED_TRACE resolution.
void enable(std::string path);

// Deactivates the session.  Already-collected events and counters are kept
// (writeReportTo() can still export them) until resetForTest().
void disable();

// The session's output path ("" when none).
std::string outputPath();

// Adds `delta` to the named counter (created on first use; negative deltas
// are legal — instruction-delta counters shrink under DCE).  No-op while
// the session is inactive.
inline void counterAdd(std::string_view name, std::int64_t delta = 1) {
  if (enabled()) {
    detail::counterAddSlow(name, delta);
  }
}

// RAII duration event: construction stamps the start, destruction emits one
// complete ("ph":"X") Chrome event.  Inactive-session cost: the enabled()
// load.
class Scope {
 public:
  explicit Scope(std::string_view name) {
    if (enabled()) {
      name_.assign(name);
      startNs_ = detail::nowNs();
      armed_ = true;
    }
  }
  ~Scope() {
    if (armed_) {
      detail::scopeEndSlow(name_, startNs_);
    }
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::string name_;
  std::uint64_t startNs_ = 0;
  bool armed_ = false;
};

// Attaches one key/value pair to the report's "metadata" object (threads,
// engine, injection mode, ...).  Last write per key wins.  The session
// always records "git_describe" (baked in at configure time) and
// "clock" on its own.
void setMetadata(std::string_view key, std::string_view value);

// Merged value of one counter across all threads (retired and live); 0 for
// a counter never touched.
std::int64_t counterValue(std::string_view name);

// Snapshot of every counter, merged across threads, sorted by name.
std::vector<std::pair<std::string, std::int64_t>> counterSnapshot();

// Renders the full report: {"traceEvents": [...], "metadata": {...},
// "counters": {...}} — loadable by chrome://tracing / Perfetto, which
// ignore the extra top-level keys.
std::string reportJson();

// Writes reportJson() to the session path.  Returns true when a file was
// written; false (and touches nothing) when the session is inactive or has
// no path.
bool writeReport();

// Writes reportJson() to an explicit path.  Refuses (returns false, no
// file) while the session is inactive — the disabled mode must stay
// observationally silent.
bool writeReportTo(const std::string& path);

// Test hook: drops all buffered events, counters and metadata, and returns
// the session to the unresolved state (the next enabled() query re-reads
// CASTED_TRACE).  Not safe concurrently with instrumented threads.
void resetForTest();

}  // namespace casted::trace
