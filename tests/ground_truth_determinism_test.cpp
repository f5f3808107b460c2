// Bitwise determinism of the exhaustive ground-truth report on a real
// workload.  The test-sized programs of exhaustive_ground_truth_test have
// few static instructions with near-equal SDC mass; cjpeg under NOED has
// hundreds, so a mass summed in floating point in worker order reorders
// the SDC ranking between thread counts.  The report must not depend on
// the worker count at all: same ranking, same counts, same mass bits.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/pipeline.h"
#include "fault/exhaustive.h"
#include "workloads/workloads.h"

namespace casted {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(GroundTruthDeterminismTest, CjpegNoedIsIdenticalAcrossThreadCounts) {
  const core::CompiledProgram bin =
      core::compile(workloads::makeWorkload("cjpeg", 1).program,
                    arch::makePaperMachine(2, 2), passes::Scheme::kNoed);
  fault::ExhaustiveOptions options;
  // cjpeg NOED has about 626k sites; refuse rather than run for minutes if
  // the workload grows.
  options.maxSites = 1'000'000;
  options.threads = 1;
  const fault::GroundTruthReport serial = core::groundTruth(bin, options);
  options.threads = 4;
  const fault::GroundTruthReport parallel = core::groundTruth(bin, options);

  EXPECT_EQ(serial.defInsns, parallel.defInsns);
  EXPECT_EQ(serial.sites, parallel.sites);
  EXPECT_EQ(serial.counts, parallel.counts);
  for (std::size_t i = 0; i < fault::kOutcomeCount; ++i) {
    EXPECT_EQ(bits(serial.mcProbability[i]), bits(parallel.mcProbability[i]))
        << fault::outcomeName(static_cast<fault::Outcome>(i));
  }
  ASSERT_EQ(serial.perInsn.size(), parallel.perInsn.size());
  std::size_t misplaced = 0;
  for (std::size_t r = 0; r < serial.perInsn.size(); ++r) {
    const fault::SiteOutcome& a = serial.perInsn[r];
    const fault::SiteOutcome& b = parallel.perInsn[r];
    if (a.func != b.func || a.block != b.block || a.node != b.node) {
      ++misplaced;
      continue;
    }
    EXPECT_EQ(a.counts, b.counts) << "rank " << r << ": " << a.text;
    for (std::size_t i = 0; i < fault::kOutcomeCount; ++i) {
      EXPECT_EQ(bits(a.mcMass[i]), bits(b.mcMass[i]))
          << "rank " << r << ": " << a.text;
    }
  }
  EXPECT_EQ(misplaced, 0u) << "of " << serial.perInsn.size()
                           << " ranked instructions";
}

}  // namespace
}  // namespace casted
