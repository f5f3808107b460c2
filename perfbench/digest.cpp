#include "digest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(const OutcomeCounts& counts) {
    for (std::uint64_t c : counts) {
      add(c);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

CampaignCounts toCounts(const casted::fault::CoverageReport& report) {
  return {report.counts, report.trials, report.dynamicInsns};
}

EnumCounts toCounts(const casted::fault::GroundTruthReport& report) {
  EnumCounts out;
  out.sites = report.sites;
  out.counts = report.counts;
  for (const casted::fault::SiteOutcome& entry : report.perInsn) {
    out.perInsn[{entry.func, entry.block, entry.node}] = entry.counts;
  }
  return out;
}

std::uint64_t digest(const CampaignCounts& counts) {
  Fnv1a h;
  h.add(counts.counts);
  h.add(counts.trials);
  h.add(counts.dynamicInsns);
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

DigestFile DigestFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read digest file " + path);
  }
  DigestFile file;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string key;
    std::string value;
    if (!(fields >> key)) {
      continue;
    }
    std::string extra;
    if (!(fields >> value) || (fields >> extra) || value.size() != 16 ||
        value.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw std::runtime_error(path + ":" + std::to_string(lineNo) +
                               ": expected '<key> <16 hex digits>'");
    }
    file.entries_[key] = std::stoull(value, nullptr, 16);
  }
  return file;
}

std::optional<std::uint64_t> DigestFile::find(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace perfbench
