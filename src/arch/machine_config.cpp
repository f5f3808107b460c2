#include "arch/machine_config.h"

#include <sstream>

#include "support/check.h"

namespace casted::arch {
namespace {

bool isPowerOfTwo(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

}  // namespace

void CacheConfig::validate() const {
  std::uint32_t previousLatency = 0;
  for (const CacheLevelConfig& level : levels) {
    CASTED_CHECK(isPowerOfTwo(level.blockBytes))
        << level.name << " block size must be a power of two";
    CASTED_CHECK(level.associativity > 0)
        << level.name << " associativity must be positive";
    CASTED_CHECK(level.sizeBytes %
                     (static_cast<std::uint64_t>(level.blockBytes) *
                      level.associativity) ==
                 0)
        << level.name << " size must be a multiple of block*associativity";
    const std::uint64_t sets =
        level.sizeBytes / level.blockBytes / level.associativity;
    CASTED_CHECK(isPowerOfTwo(sets))
        << level.name << " set count must be a power of two";
    CASTED_CHECK(level.latency > previousLatency)
        << level.name << " latency must exceed the previous level";
    previousLatency = level.latency;
  }
  CASTED_CHECK(memoryLatency > previousLatency)
      << "memory latency must exceed L3 latency";
}

std::uint32_t LatencyConfig::forClass(ir::FuClass cls) const {
  switch (cls) {
    case ir::FuClass::kNone:
      return 1;
    case ir::FuClass::kIntAlu:
      return intAlu;
    case ir::FuClass::kIntMul:
      return intMul;
    case ir::FuClass::kIntDiv:
      return intDiv;
    case ir::FuClass::kFpAlu:
      return fpAlu;
    case ir::FuClass::kFpMul:
      return fpMul;
    case ir::FuClass::kFpDiv:
      return fpDiv;
    case ir::FuClass::kMem:
      return mem;
    case ir::FuClass::kBranch:
      return branch;
    case ir::FuClass::kCall:
      return call;
  }
  CASTED_UNREACHABLE("bad FuClass");
}

std::uint32_t RegisterFileConfig::forClass(ir::RegClass cls) const {
  switch (cls) {
    case ir::RegClass::kGp:
      return gp;
    case ir::RegClass::kFp:
      return fp;
    case ir::RegClass::kPr:
      return pr;
  }
  CASTED_UNREACHABLE("bad RegClass");
}

std::uint32_t MachineConfig::portLimit(ir::FuClass cls) const {
  if (cls == ir::FuClass::kMem && memPortsPerCluster > 0) {
    return memPortsPerCluster;
  }
  return issueWidth;
}

void MachineConfig::validate() const {
  CASTED_CHECK(clusterCount >= 1) << "need at least one cluster";
  CASTED_CHECK(issueWidth >= 1) << "issue width must be positive";
  CASTED_CHECK(latencies.intAlu >= 1 && latencies.mem >= 1 &&
               latencies.branch >= 1)
      << "latencies must be at least one cycle";
  CASTED_CHECK(registerFile.gp >= 1 && registerFile.fp >= 1 &&
               registerFile.pr >= 1)
      << "register files must be non-empty";
  cache.validate();
}

std::string MachineConfig::toString() const {
  std::ostringstream out;
  out << clusterCount << "x issue=" << issueWidth
      << " delay=" << interClusterDelay;
  return out.str();
}

MachineConfig makePaperMachine(std::uint32_t issueWidth,
                               std::uint32_t interClusterDelay) {
  MachineConfig config;
  config.clusterCount = 2;
  config.issueWidth = issueWidth;
  config.interClusterDelay = interClusterDelay;
  config.validate();
  return config;
}

}  // namespace casted::arch
