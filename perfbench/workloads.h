// The benchmark's two workloads (README.md explains the choice).
#pragma once

#include "harness.h"

namespace perfbench {

// Runs one workload as `args` asks: end-to-end metrics with args.trace
// off, the per-layer split with it on.  Every self-check lands in the
// report's Checks.
Report runWorkload(const Args& args);

// Prints the digest-file lines of fig9_campaign, computed with the kFull
// (re-execute from scratch) oracle mode.
void printDigests();

}  // namespace perfbench
