// Compile identity gate over the Fig. 6/7 grid.
//
// Compiles every point of the Fig. 6/7 sweep (7 workloads x issue 1-4 x
// delay 1-4 x 4 schemes = 448 points), golden-runs it, and compares one
// FNV-1a digest per point against tests/data/compile_digests.txt.  Each
// digest covers the printed IR, every block schedule (node, cycle, cluster,
// slot, latency and length), the full protection-lint listing (verdicts
// and reasons) and the golden run's cycles and dynamic instruction count.
// A compile-side optimisation must leave all of them unchanged; a change
// that means to alter compiler output regenerates the file and says why:
//
//   CASTED_WRITE_COMPILE_DIGESTS=$PWD/tests/data/compile_digests.txt
//   ./build/tests/compile_identity_test   (with the variable exported)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "ir/printer.h"
#include "passes/protection_lint.h"
#include "workloads/workloads.h"

namespace casted {
namespace {

class Fnv1a {
 public:
  void add(const std::string& text) {
    for (const char c : text) {
      byte(static_cast<std::uint8_t>(c));
    }
    byte(0);  // separator
  }
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digestPoint(const core::CompiledProgram& bin) {
  Fnv1a hash;
  hash.add(ir::printProgram(bin.program));
  for (const sched::FunctionSchedule& fn : bin.schedule.functions) {
    hash.add(fn.blocks.size());
    for (const sched::BlockSchedule& block : fn.blocks) {
      hash.add(block.length);
      hash.add(block.insns.size());
      for (const sched::ScheduledInsn& insn : block.insns) {
        hash.add(insn.node);
        hash.add(insn.cycle);
        hash.add(insn.cluster);
        hash.add(insn.slot);
        hash.add(insn.latency);
      }
    }
  }
  hash.add(passes::lintProtection(bin.program, bin.scheme)
               .toString(/*gapsOnly=*/false));
  const sim::RunResult golden = core::run(bin);
  hash.add(golden.stats.cycles);
  hash.add(golden.stats.dynamicInsns);
  return hash.value();
}

// "<workload> <issue> <delay> <scheme>" -> digest, for every grid point.
std::map<std::string, std::uint64_t> digestGrid() {
  std::map<std::string, std::uint64_t> digests;
  for (const workloads::Workload& wl : workloads::makeAllWorkloads(1)) {
    for (std::uint32_t issue = 1; issue <= 4; ++issue) {
      for (std::uint32_t delay = 1; delay <= 4; ++delay) {
        const arch::MachineConfig machine =
            arch::makePaperMachine(issue, delay);
        for (const passes::Scheme scheme : passes::kAllSchemes) {
          const std::string key = wl.name + " " + std::to_string(issue) +
                                  " " + std::to_string(delay) + " " +
                                  passes::schemeName(scheme);
          digests[key] =
              digestPoint(core::compile(wl.program, machine, scheme));
        }
      }
    }
  }
  return digests;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

TEST(CompileIdentityTest, EveryFig67PointMatchesItsCommittedDigest) {
  const std::map<std::string, std::uint64_t> digests = digestGrid();
  ASSERT_EQ(digests.size(), 448u);

  if (const char* path = std::getenv("CASTED_WRITE_COMPILE_DIGESTS")) {
    std::ofstream out(path);
    for (const auto& [key, digest] : digests) {
      out << key << " " << hex(digest) << "\n";
    }
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "wrote " << digests.size() << " digests to " << path;
  }

  std::ifstream in(CASTED_COMPILE_DIGESTS);
  ASSERT_TRUE(in.good()) << "cannot read " << CASTED_COMPILE_DIGESTS;
  std::map<std::string, std::string> committed;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t split = line.rfind(' ');
    ASSERT_NE(split, std::string::npos) << "malformed line: " << line;
    committed[line.substr(0, split)] = line.substr(split + 1);
  }
  EXPECT_EQ(committed.size(), digests.size());
  for (const auto& [key, digest] : digests) {
    const auto it = committed.find(key);
    ASSERT_NE(it, committed.end()) << "no committed digest for " << key;
    EXPECT_EQ(hex(digest), it->second) << key << ": compiler output changed";
  }
}

}  // namespace
}  // namespace casted
