#include "support/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#ifndef CASTED_GIT_DESCRIBE
#define CASTED_GIT_DESCRIBE "unknown"
#endif

namespace casted::trace {
namespace detail {

std::atomic<int> gState{0};

namespace {

// One buffered complete event.
struct Event {
  std::string name;
  std::uint64_t startNs = 0;
  std::uint64_t durNs = 0;
  std::uint32_t tid = 0;
};

struct ThreadBuffer;

// Process-wide sink.  Allocated once and deliberately leaked so no static
// destruction order can invalidate it under late thread-local flushes.
struct Registry {
  std::mutex mu;
  std::string path;
  std::vector<ThreadBuffer*> live;
  std::vector<Event> retiredEvents;
  std::map<std::string, std::int64_t, std::less<>> retiredCounters;
  std::map<std::string, std::string, std::less<>> metadata;
  std::uint32_t nextTid = 1;
  bool fromEnv = false;  // the session was activated by CASTED_TRACE
};

Registry& registry() {
  static Registry* g = new Registry;
  return *g;
}

std::uint64_t processStartNs() {
  static const std::uint64_t start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return start;
}

// Per-thread event/counter buffer.  Its own mutex is uncontended on the
// owning thread's hot path and only fought over by a concurrent exporter.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Event> events;
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::uint32_t tid = 0;

  ThreadBuffer() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    tid = reg.nextTid++;
    reg.live.push_back(this);
  }

  ~ThreadBuffer() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    flushLocked(reg);
    std::erase(reg.live, this);
  }

  // Moves this buffer's contents into the registry.  Caller holds reg.mu;
  // the owning thread is this thread (destructor) so `mu` is free.
  void flushLocked(Registry& reg) {
    std::lock_guard<std::mutex> lock(mu);
    reg.retiredEvents.insert(reg.retiredEvents.end(),
                             std::make_move_iterator(events.begin()),
                             std::make_move_iterator(events.end()));
    events.clear();
    for (auto& [name, value] : counters) {
      reg.retiredCounters[name] += value;
    }
    counters.clear();
  }

  void addCounter(std::string_view name, std::int64_t delta) {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& [existing, value] : counters) {
      if (existing == name) {
        value += delta;
        return;
      }
    }
    counters.emplace_back(std::string(name), delta);
  }

  void addEvent(Event event) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(std::move(event));
  }
};

ThreadBuffer& threadBuffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Microseconds with nanosecond fraction, the unit Chrome's "ts"/"dur"
// fields expect.
void appendMicros(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

std::uint64_t nowNs() {
  // The origin first: on the process's first call it is set here, so it
  // cannot lie after `now`.
  const std::uint64_t start = processStartNs();
  const std::uint64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return now - start;
}

namespace {

// The exit hook initFromEnv() registers: writes the report of a session
// CASTED_TRACE activated, if it is still active.
void writeAtExit() {
  bool fromEnv = false;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    fromEnv = reg.fromEnv;
  }
  if (fromEnv) {
    writeReport();
  }
}

}  // namespace

bool initFromEnv() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  int state = gState.load(std::memory_order_relaxed);
  if (state != 0) {  // lost the race to another resolver
    return state == 2;
  }
  const char* env = std::getenv("CASTED_TRACE");
  if (env != nullptr && *env != '\0') {
    reg.path = env;
    reg.fromEnv = true;
    // Export at normal process exit, so no binary needs to call
    // writeReport() itself.
    [[maybe_unused]] static const int registered = std::atexit(writeAtExit);
    state = 2;
  } else {
    state = 1;
  }
  gState.store(state, std::memory_order_relaxed);
  return state == 2;
}

void counterAddSlow(std::string_view name, std::int64_t delta) {
  threadBuffer().addCounter(name, delta);
}

void scopeEndSlow(const std::string& name, std::uint64_t startNs) {
  ThreadBuffer& buffer = threadBuffer();
  Event event;
  event.name = name;
  event.startNs = startNs;
  event.durNs = nowNs() - startNs;
  event.tid = buffer.tid;
  buffer.addEvent(std::move(event));
}

}  // namespace detail

using detail::registry;

void enable(std::string path) {
  detail::Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.path = std::move(path);
  reg.fromEnv = false;
  detail::gState.store(2, std::memory_order_relaxed);
}

void disable() { detail::gState.store(1, std::memory_order_relaxed); }

std::string outputPath() {
  enabled();  // force env resolution so the path is populated
  detail::Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.path;
}

void setMetadata(std::string_view key, std::string_view value) {
  if (!enabled()) {
    return;
  }
  detail::Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.metadata.insert_or_assign(std::string(key), std::string(value));
}

namespace {

// Snapshot of everything collected so far: retired buffers plus the live
// ones (each sampled under its own lock).
struct MergedState {
  std::vector<detail::Event> events;
  std::map<std::string, std::int64_t, std::less<>> counters;
  std::map<std::string, std::string, std::less<>> metadata;
};

MergedState mergeAll() {
  detail::Registry& reg = registry();
  MergedState merged;
  std::lock_guard<std::mutex> lock(reg.mu);
  merged.events = reg.retiredEvents;
  merged.counters = reg.retiredCounters;
  merged.metadata = reg.metadata;
  for (detail::ThreadBuffer* buffer : reg.live) {
    std::lock_guard<std::mutex> bufferLock(buffer->mu);
    merged.events.insert(merged.events.end(), buffer->events.begin(),
                         buffer->events.end());
    for (const auto& [name, value] : buffer->counters) {
      merged.counters[name] += value;
    }
  }
  return merged;
}

}  // namespace

std::int64_t counterValue(std::string_view name) {
  const MergedState merged = mergeAll();
  const auto it = merged.counters.find(name);
  return it == merged.counters.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, std::int64_t>> counterSnapshot() {
  const MergedState merged = mergeAll();
  return {merged.counters.begin(), merged.counters.end()};
}

std::string reportJson() {
  MergedState merged = mergeAll();
  std::stable_sort(merged.events.begin(), merged.events.end(),
                   [](const detail::Event& a, const detail::Event& b) {
                     return a.startNs < b.startNs;
                   });
  std::string out;
  out.reserve(256 + merged.events.size() * 96);
  out += "{\n  \"traceEvents\": [";
  bool first = true;
  for (const detail::Event& event : merged.events) {
    out += first ? "\n    {" : ",\n    {";
    first = false;
    out += "\"name\": ";
    detail::appendJsonString(out, event.name);
    out += ", \"cat\": \"casted\", \"pid\": 1, \"tid\": ";
    out += std::to_string(event.tid);
    out += ", \"ts\": ";
    detail::appendMicros(out, event.startNs);
    out += ", \"ph\": \"X\", \"dur\": ";
    detail::appendMicros(out, event.durNs);
    out += '}';
  }
  out += "\n  ],\n  \"metadata\": {";
  merged.metadata.emplace("git_describe", CASTED_GIT_DESCRIBE);
  merged.metadata.emplace("clock", "steady_clock, ns since session start");
  first = true;
  for (const auto& [key, value] : merged.metadata) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    detail::appendJsonString(out, key);
    out += ": ";
    detail::appendJsonString(out, value);
  }
  out += "\n  },\n  \"counters\": {";
  first = true;
  for (const auto& [name, value] : merged.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    detail::appendJsonString(out, name);
    out += ": ";
    out += std::to_string(value);
  }
  out += "\n  }\n}\n";
  return out;
}

bool writeReport() { return writeReportTo(outputPath()); }

bool writeReportTo(const std::string& path) {
  if (!enabled() || path.empty()) {
    return false;
  }
  const std::string json = reportJson();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), out) == json.size();
  return std::fclose(out) == 0 && ok;
}

void resetForTest() {
  detail::Registry& reg = registry();
  // Flush the calling thread first so its buffer does not re-merge stale
  // data into the cleared registry at thread exit.
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (detail::ThreadBuffer* buffer : reg.live) {
      std::lock_guard<std::mutex> bufferLock(buffer->mu);
      buffer->events.clear();
      buffer->counters.clear();
    }
    reg.retiredEvents.clear();
    reg.retiredCounters.clear();
    reg.metadata.clear();
    reg.path.clear();
    reg.fromEnv = false;
  }
  detail::gState.store(0, std::memory_order_relaxed);
}

}  // namespace casted::trace
