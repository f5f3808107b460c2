#include <gtest/gtest.h>

#include "arch/machine_config.h"
#include "support/check.h"

namespace casted::arch {
namespace {

TEST(MachineConfigTest, PaperMachineMatchesTableOne) {
  const MachineConfig machine = makePaperMachine(2, 1);
  EXPECT_EQ(machine.clusterCount, 2u);
  EXPECT_EQ(machine.issueWidth, 2u);
  EXPECT_EQ(machine.interClusterDelay, 1u);
  EXPECT_EQ(machine.registerFile.gp, 64u);
  EXPECT_EQ(machine.registerFile.fp, 64u);
  EXPECT_EQ(machine.registerFile.pr, 32u);
  EXPECT_EQ(machine.cache.levels[0].sizeBytes, 16u * 1024);
  EXPECT_EQ(machine.cache.levels[0].blockBytes, 64u);
  EXPECT_EQ(machine.cache.levels[0].associativity, 4u);
  EXPECT_EQ(machine.cache.levels[1].sizeBytes, 256u * 1024);
  EXPECT_EQ(machine.cache.levels[2].sizeBytes, 3u * 1024 * 1024);
  EXPECT_EQ(machine.cache.levels[2].associativity, 12u);
  EXPECT_EQ(machine.cache.memoryLatency, 150u);
}

TEST(MachineConfigTest, LatencyLookupCoversAllClasses) {
  const MachineConfig machine = makePaperMachine(2, 1);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kAdd), machine.latencies.intAlu);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kMul), machine.latencies.intMul);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kDiv), machine.latencies.intDiv);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kFAdd), machine.latencies.fpAlu);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kFMul), machine.latencies.fpMul);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kFDiv), machine.latencies.fpDiv);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kLoad), machine.latencies.mem);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kBr), machine.latencies.branch);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kCall), machine.latencies.call);
  EXPECT_EQ(machine.latencyFor(ir::Opcode::kCheckG),
            machine.latencies.intAlu);
}

TEST(MachineConfigTest, RegisterFileLookup) {
  const RegisterFileConfig files;
  EXPECT_EQ(files.forClass(ir::RegClass::kGp), 64u);
  EXPECT_EQ(files.forClass(ir::RegClass::kFp), 64u);
  EXPECT_EQ(files.forClass(ir::RegClass::kPr), 32u);
}

TEST(MachineConfigTest, PortLimitsDefaultToIssueWidth) {
  MachineConfig machine = makePaperMachine(4, 1);
  EXPECT_EQ(machine.portLimit(ir::FuClass::kIntAlu), 4u);
  EXPECT_EQ(machine.portLimit(ir::FuClass::kMem), 4u);
  machine.memPortsPerCluster = 2;
  EXPECT_EQ(machine.portLimit(ir::FuClass::kMem), 2u);
  EXPECT_EQ(machine.portLimit(ir::FuClass::kFpMul), 4u);
  EXPECT_EQ(machine.portLimit(ir::FuClass::kIntAlu), 4u);
}

TEST(MachineConfigTest, ValidationRejectsNonsense) {
  MachineConfig zeroClusters = makePaperMachine(2, 1);
  zeroClusters.clusterCount = 0;
  EXPECT_THROW(zeroClusters.validate(), FatalError);

  MachineConfig zeroIssue = makePaperMachine(2, 1);
  zeroIssue.issueWidth = 0;
  EXPECT_THROW(zeroIssue.validate(), FatalError);

  MachineConfig zeroLatency = makePaperMachine(2, 1);
  zeroLatency.latencies.intAlu = 0;
  EXPECT_THROW(zeroLatency.validate(), FatalError);

  MachineConfig emptyFile = makePaperMachine(2, 1);
  emptyFile.registerFile.pr = 0;
  EXPECT_THROW(emptyFile.validate(), FatalError);
}

TEST(CacheConfigTest, ValidationRejectsBadGeometry) {
  CacheConfig oddBlock;
  oddBlock.levels[0].blockBytes = 48;
  EXPECT_THROW(oddBlock.validate(), FatalError);

  CacheConfig badSets;
  badSets.levels[0].sizeBytes = 3 * 1024;  // 12 sets: not a power of two
  EXPECT_THROW(badSets.validate(), FatalError);

  CacheConfig decreasing;
  decreasing.levels[2].latency = 2;
  EXPECT_THROW(decreasing.validate(), FatalError);

  CacheConfig zeroAssoc;
  zeroAssoc.levels[1].associativity = 0;
  EXPECT_THROW(zeroAssoc.validate(), FatalError);
}

TEST(MachineConfigTest, ToStringIsDescriptive) {
  EXPECT_EQ(makePaperMachine(3, 2).toString(), "2x issue=3 delay=2");
}

TEST(MachineConfigTest, DelayZeroIsLegal) {
  // A zero-delay interconnect is an idealised machine; it must validate
  // and behave like "free" communication in the ready model.
  MachineConfig machine = makePaperMachine(2, 1);
  machine.interClusterDelay = 0;
  EXPECT_NO_THROW(machine.validate());
}

}  // namespace
}  // namespace casted::arch
