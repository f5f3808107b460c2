// casted_perfbench — the repository benchmark driver (see README.md).
//
//   casted_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --digests <file>
//   casted_perfbench --print-digests   (the lines of digests.txt)
//
// The last line of standard output is the run's JSON result; diagnostics go
// to standard error.  Exits non-zero when a self-check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

std::uint64_t parseU64(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(flag + " needs a non-negative integer, got '" +
                                text + "'");
  }
  return std::stoull(text);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::Args args;
    bool printDigests = false;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--print-digests") {
        printDigests = true;
        continue;
      }
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " needs a value");
      }
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = parseU64(flag, value);
      } else if (flag == "--seconds") {
        args.seconds = static_cast<double>(parseU64(flag, value));
        haveSeconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          throw std::invalid_argument("--trace needs 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--digests") {
        args.digests = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (printDigests) {
      perfbench::printDigests();
      return 0;
    }
    if (args.workload.empty() || args.digests.empty() || !haveSeconds) {
      throw std::invalid_argument(
          "usage: casted_perfbench --workload <name> --seed <n> "
          "--seconds <s> --trace <0|1> --digests <file>");
    }
    const perfbench::Report report = perfbench::runWorkload(args);
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casted_perfbench: %s\n", e.what());
    return 2;
  }
}
