// Shared plumbing of the benchmark driver: timing, percentiles, self-check
// bookkeeping and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Runs `body` and returns its host time in milliseconds.
template <typename F>
double timeMs(F&& body) {
  const Clock::time_point start = Clock::now();
  body();
  return msBetween(start, Clock::now());
}

// Percentile `p` (0..100) by linear interpolation between the closest ranks
// (numpy's default): 50 is the ordinary median.  Requires a non-empty
// sample.
double percentile(std::vector<double> values, double p);

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

// Peak resident set of this process so far, in MiB (Linux only).
double peakRssMb();

// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digests;  // committed digest file (digests.txt)
};

// Self-check tally: every checked result counts as attempted; a result
// that disagrees with its oracle counts as failed and is logged to stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run prints as its last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
struct Report {
  Checks checks;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  bool correct() const {
    return checks.attempted() > 0 && checks.failed() == 0;
  }
  std::string json() const;
};

}  // namespace perfbench
