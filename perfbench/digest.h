// Integer-only canonical forms of the two fault reports, and the digest of
// a campaign report.
//
// Only the fields that are bitwise deterministic are kept:
//   * campaign — counts, trials and dynamicInsns;
//   * enumeration — sites, counts and the perInsn counts keyed by
//     (func, block, node).
// GroundTruthReport::mcMass / mcProbability are left out on purpose: they
// are doubles summed in worker order, so their last bits are not a
// property of the program.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "fault/campaign.h"
#include "fault/exhaustive.h"

namespace perfbench {

using OutcomeCounts = std::array<std::uint64_t, casted::fault::kOutcomeCount>;

struct CampaignCounts {
  OutcomeCounts counts = {};
  std::uint64_t trials = 0;
  std::uint64_t dynamicInsns = 0;

  friend bool operator==(const CampaignCounts&,
                         const CampaignCounts&) = default;
};

// Static def-producing instruction: (func, block, node).
using InsnKey = std::array<std::uint32_t, 3>;

struct EnumCounts {
  std::uint64_t sites = 0;
  OutcomeCounts counts = {};
  std::map<InsnKey, OutcomeCounts> perInsn;

  friend bool operator==(const EnumCounts&, const EnumCounts&) = default;
};

CampaignCounts toCounts(const casted::fault::CoverageReport& report);
EnumCounts toCounts(const casted::fault::GroundTruthReport& report);

// FNV-1a 64 over the canonical field sequence.
std::uint64_t digest(const CampaignCounts& counts);

std::string hex(std::uint64_t value);

// The committed digest file: one "<key> <hex digest>" pair per line, '#'
// starts a comment.  Returns nullopt for a key the file does not hold.
// Throws when the file cannot be read or a line is malformed.
class DigestFile {
 public:
  static DigestFile load(const std::string& path);

  std::optional<std::uint64_t> find(const std::string& key) const;

 private:
  std::map<std::string, std::uint64_t> entries_;
};

}  // namespace perfbench
