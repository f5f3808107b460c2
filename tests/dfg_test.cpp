#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dfg/dfg.h"
#include "ir/builder.h"
#include "passes/error_detection.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace casted::dfg {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IrBuilder;
using ir::Opcode;
using ir::Program;
using ir::Reg;

struct BlockHarness {
  Program prog;
  Function* fn = nullptr;
  BasicBlock* block = nullptr;
  IrBuilder* builder = nullptr;

  BlockHarness() {
    fn = &prog.addFunction("main");
    builder_ = std::make_unique<IrBuilder>(*fn);
    block = &builder_->createBlock("entry");
    builder_->setBlock(*block);
    builder = builder_.get();
  }

 private:
  std::unique_ptr<IrBuilder> builder_;
};

bool hasEdge(const DataFlowGraph& graph, std::uint32_t from, std::uint32_t to,
             DepKind kind) {
  for (const Edge& edge : graph.succs(from)) {
    if (edge.to == to && edge.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(DfgTest, RawEdgeWithProducerLatency) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg a = b.movImm(1);          // node 0
  const Reg c = b.mul(a, a);          // node 1: RAW on node 0
  b.halt(c);                          // node 2: RAW on node 1
  const arch::MachineConfig config = testutil::machine(2, 1);
  const DataFlowGraph graph(*h.block, config);
  ASSERT_EQ(graph.size(), 3u);
  EXPECT_TRUE(hasEdge(graph, 0, 1, DepKind::kData));
  EXPECT_TRUE(hasEdge(graph, 1, 2, DepKind::kData));
  // The mul->halt edge carries the multiplier latency.
  for (const Edge& edge : graph.succs(1)) {
    if (edge.to == 2) {
      EXPECT_EQ(edge.latency, config.latencies.intMul);
    }
  }
}

TEST(DfgTest, IndependentInsnsHaveNoEdges) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg a = b.movImm(1);
  const Reg c = b.movImm(2);
  const Reg d = b.add(a, a);
  const Reg e = b.add(c, c);
  b.emit(Opcode::kHalt, {}, {b.add(d, e)});
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_FALSE(hasEdge(graph, 0, 1, DepKind::kData));
  EXPECT_FALSE(hasEdge(graph, 2, 3, DepKind::kData));
}

TEST(DfgTest, WarAndWawEdges) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg a = b.movImm(1);      // 0: def a
  const Reg c = b.add(a, a);      // 1: use a
  b.movImmTo(a, 2);               // 2: redef a -> WAW(0,2), WAR(1,2)
  b.emit(Opcode::kHalt, {}, {c});
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_TRUE(hasEdge(graph, 0, 2, DepKind::kOutput));
  EXPECT_TRUE(hasEdge(graph, 1, 2, DepKind::kAnti));
}

TEST(DfgTest, StoreLoadSameAddressOrdered) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg base = b.movImm(0x2000);   // 0
  b.store(base, 0, base);              // 1
  const Reg v = b.load(base, 0);       // 2: must see the store
  b.emit(Opcode::kHalt, {}, {v});
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_TRUE(hasEdge(graph, 1, 2, DepKind::kMemory));
}

TEST(DfgTest, DisjointOffsetsSameBaseDisambiguated) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg base = b.movImm(0x2000);   // 0
  b.store(base, 0, base);              // 1
  const Reg v = b.load(base, 8);       // 2: different 8-byte range
  b.emit(Opcode::kHalt, {}, {v});
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_FALSE(hasEdge(graph, 1, 2, DepKind::kMemory));
}

TEST(DfgTest, OverlappingByteAndWordConflict) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg base = b.movImm(0x2000);
  b.store(base, 0, base);              // 1: bytes [0,8)
  const Reg v = b.loadB(base, 7);      // 2: byte 7 overlaps
  b.emit(Opcode::kHalt, {}, {v});
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_TRUE(hasEdge(graph, 1, 2, DepKind::kMemory));
}

TEST(DfgTest, DifferentBasesConservativelyOrdered) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg baseA = b.movImm(0x2000);  // 0
  const Reg baseB = b.movImm(0x3000);  // 1
  b.store(baseA, 0, baseA);            // 2
  const Reg v = b.load(baseB, 0);      // 3: unknown aliasing -> ordered
  b.emit(Opcode::kHalt, {}, {v});
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_TRUE(hasEdge(graph, 2, 3, DepKind::kMemory));
}

TEST(DfgTest, RedefinedBaseBreaksDisambiguation) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg base = b.movImm(0x2000);   // 0
  b.store(base, 0, base);              // 1
  b.movImmTo(base, 0x3000);            // 2: base now points elsewhere
  const Reg v = b.load(base, 8);       // 3: must stay ordered w.r.t. store
  b.emit(Opcode::kHalt, {}, {v});
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_TRUE(hasEdge(graph, 1, 3, DepKind::kMemory));
}

TEST(DfgTest, LoadsNeverOrderedWithLoads) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg base = b.movImm(0x2000);
  const Reg v1 = b.load(base, 0);
  const Reg v2 = b.load(base, 0);  // same address: still no edge
  b.emit(Opcode::kHalt, {}, {b.add(v1, v2)});
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_FALSE(hasEdge(graph, 1, 2, DepKind::kMemory));
}

TEST(DfgTest, CheckGuardEdgePresent) {
  ir::Program prog = testutil::makeTinyProgram();
  passes::applyErrorDetection(prog);
  const ir::BasicBlock& block = prog.function(0).block(0);
  const DataFlowGraph graph(block, testutil::machine(2, 1));
  // Every check node must have a kGuard successor edge to its guarded insn.
  std::size_t guardEdges = 0;
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    if (!graph.insn(i).isCheck()) {
      continue;
    }
    bool hasGuard = false;
    for (const Edge& edge : graph.succs(i)) {
      if (edge.kind == DepKind::kGuard) {
        hasGuard = true;
        EXPECT_EQ(block.insns()[edge.to].id, graph.insn(i).guard);
      }
    }
    EXPECT_TRUE(hasGuard) << "check node " << i << " lacks a guard edge";
    ++guardEdges;
  }
  EXPECT_GT(guardEdges, 0u);
}

TEST(DfgTest, HeightsDecreaseAlongChains) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg a = b.movImm(1);         // 0
  const Reg c = b.add(a, a);         // 1
  const Reg d = b.add(c, c);         // 2
  b.emit(Opcode::kHalt, {}, {d});    // 3
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  EXPECT_GT(graph.height(0), graph.height(1));
  EXPECT_GT(graph.height(1), graph.height(2));
  EXPECT_GT(graph.height(2), graph.height(3));
  EXPECT_EQ(graph.criticalPathLength(), graph.height(0));
}

TEST(DfgTest, PriorityOrderSortsByHeight) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg a = b.movImm(1);        // 0: on the critical chain
  const Reg c = b.mul(a, a);        // 1
  const Reg d = b.mul(c, c);        // 2
  b.movImm(42);                     // 3: independent leaf
  b.emit(Opcode::kHalt, {}, {d});   // 4
  const DataFlowGraph graph(*h.block, testutil::machine(2, 1));
  const std::vector<std::uint32_t> order = graph.priorityOrder();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 0u);  // chain head has the greatest height
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(graph.height(order[i]), graph.height(order[i - 1]));
  }
}

TEST(DfgTest, CallOrderedWithMemoryOps) {
  ir::Program prog;
  ir::Function& helper = prog.addFunction("helper");
  {
    IrBuilder hb(helper);
    hb.setBlock(hb.createBlock("body"));
    hb.ret({});
  }
  ir::Function& main = prog.addFunction("main");
  prog.setEntryFunction(main.id());
  IrBuilder b(main);
  BasicBlock& entry = b.createBlock("entry");
  b.setBlock(entry);
  const Reg base = b.movImm(0x2000);  // 0
  b.store(base, 0, base);             // 1
  b.call(helper, {});                 // 2: barrier
  const Reg v = b.load(base, 0);      // 3
  b.emit(Opcode::kHalt, {}, {v});
  const DataFlowGraph graph(entry, testutil::machine(2, 1));
  EXPECT_TRUE(hasEdge(graph, 1, 2, DepKind::kBarrier));
  EXPECT_TRUE(hasEdge(graph, 2, 3, DepKind::kBarrier));
}

TEST(DfgTest, EdgesAlwaysPointForward) {
  ir::Program prog = testutil::makeRandomStraightLine(42, 80);
  passes::applyErrorDetection(prog);
  const ir::BasicBlock& block = prog.function(0).block(0);
  const DataFlowGraph graph(block, testutil::machine(2, 2));
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    for (const Edge& edge : graph.succs(i)) {
      EXPECT_LT(edge.from, edge.to);
    }
  }
}

// Duplicates must have no dependence on their originals: that independence
// is the extra ILP the paper's §II-A relies on.
TEST(DfgTest, DuplicateStreamIndependentOfOriginals) {
  ir::Program prog = testutil::makeRandomStraightLine(7, 40);
  passes::applyErrorDetection(prog);
  const ir::BasicBlock& block = prog.function(0).block(0);
  const DataFlowGraph graph(block, testutil::machine(2, 1));
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    if (block.insns()[i].origin != ir::InsnOrigin::kDuplicate) {
      continue;
    }
    for (const Edge& edge : graph.preds(i)) {
      if (edge.kind == DepKind::kData) {
        const ir::InsnOrigin producer = block.insns()[edge.from].origin;
        EXPECT_NE(producer, ir::InsnOrigin::kOriginal)
            << "duplicate depends on an original instruction";
      }
    }
  }
}

// --- The per-node graph the CSR graph replaced, kept as its oracle -----------

// One std::vector of preds and one of succs per node; addEdge scans the
// source's succs for a repeat of the (from, to) pair, which keeps its first
// kind and takes the larger latency in both copies.
class ReferenceDfg {
 public:
  ReferenceDfg(const BasicBlock& block, const arch::MachineConfig& config)
      : insns_(block.insns()),
        preds_(insns_.size()),
        succs_(insns_.size()),
        heights_(insns_.size(), 0) {
    buildEdges(config);
    for (std::size_t i = insns_.size(); i-- > 0;) {
      std::uint32_t height = 1;
      for (const Edge& edge : succs_[i]) {
        height = std::max(height, edge.latency + heights_[edge.to]);
      }
      heights_[i] = height;
    }
  }

  const std::vector<Edge>& preds(std::uint32_t node) const {
    return preds_[node];
  }
  const std::vector<Edge>& succs(std::uint32_t node) const {
    return succs_[node];
  }
  std::uint32_t height(std::uint32_t node) const { return heights_[node]; }

 private:
  struct MemRef {
    std::uint32_t node = 0;
    bool isStore = false;
    Reg base;
    std::uint32_t version = 0;
    std::int64_t offset = 0;
    std::int64_t width = 0;
  };

  static bool mayAlias(const MemRef& a, const MemRef& b) {
    if (a.base == b.base && a.version == b.version) {
      return a.offset < b.offset + b.width && b.offset < a.offset + a.width;
    }
    return true;
  }

  void addEdge(std::uint32_t from, std::uint32_t to, DepKind kind,
               std::uint32_t latency) {
    for (Edge& edge : succs_[from]) {
      if (edge.to == to) {
        if (latency > edge.latency) {
          edge.latency = latency;
          for (Edge& pred : preds_[to]) {
            if (pred.from == from) {
              pred.latency = latency;
            }
          }
        }
        return;
      }
    }
    succs_[from].push_back({from, to, kind, latency});
    preds_[to].push_back({from, to, kind, latency});
  }

  void buildEdges(const arch::MachineConfig& config) {
    constexpr std::uint32_t kNone = 0xffffffffu;
    struct RegState {
      std::uint32_t lastDef = kNone;
      std::uint32_t version = 0;
      std::vector<std::uint32_t> uses;  // since the last def
    };
    std::array<std::vector<RegState>, 3> regs;
    auto state = [&](const Reg& reg) -> RegState& {
      std::vector<RegState>& file = regs[static_cast<int>(reg.cls)];
      if (file.size() <= reg.index) {
        file.resize(reg.index + 1);
      }
      return file[reg.index];
    };
    auto latencyOf = [&](std::uint32_t node) {
      return config.latencyFor(insns_[node].op);
    };
    std::vector<MemRef> memRefs;
    std::vector<std::uint32_t> calls;
    std::uint32_t lastSideExit = kNone;
    for (std::uint32_t i = 0; i < insns_.size(); ++i) {
      const ir::Instruction& insn = insns_[i];
      if (lastSideExit != kNone) {
        addEdge(lastSideExit, i, DepKind::kBarrier, 1);
      }
      if (insn.op == Opcode::kTrapIf) {
        lastSideExit = i;
      }
      for (const Reg& use : insn.uses) {
        RegState& reg = state(use);
        if (reg.lastDef != kNone) {
          addEdge(reg.lastDef, i, DepKind::kData, latencyOf(reg.lastDef));
        }
        reg.uses.push_back(i);
      }
      if (insn.isMemory()) {
        const Reg base = insn.uses[0];
        const MemRef ref{i,
                         insn.isStore(),
                         base,
                         state(base).version,
                         insn.imm,
                         insn.op == Opcode::kLoadB || insn.op == Opcode::kStoreB
                             ? 1
                             : 8};
        for (const MemRef& prior : memRefs) {
          if ((prior.isStore || ref.isStore) && mayAlias(prior, ref)) {
            addEdge(prior.node, i, DepKind::kMemory, prior.isStore ? 1 : 0);
          }
        }
        memRefs.push_back(ref);
        if (!calls.empty()) {
          addEdge(calls.back(), i, DepKind::kBarrier, config.latencies.call);
        }
      }
      if (insn.isCall()) {
        for (const MemRef& prior : memRefs) {
          if (prior.node != i) {
            addEdge(prior.node, i, DepKind::kBarrier, 1);
          }
        }
        if (!calls.empty()) {
          addEdge(calls.back(), i, DepKind::kBarrier, config.latencies.call);
        }
        calls.push_back(i);
      }
      if (insn.isCheck() && insn.guard != ir::kInvalidInsn) {
        for (std::uint32_t j = i + 1; j < insns_.size(); ++j) {
          if (insns_[j].id == insn.guard) {
            addEdge(i, j, DepKind::kGuard, latencyOf(i));
            break;
          }
        }
      }
      for (const Reg& def : insn.defs) {
        RegState& reg = state(def);
        if (reg.lastDef != kNone && reg.lastDef != i) {
          const std::int64_t needed =
              static_cast<std::int64_t>(latencyOf(reg.lastDef)) -
              static_cast<std::int64_t>(latencyOf(i)) + 1;
          addEdge(reg.lastDef, i, DepKind::kOutput,
                  static_cast<std::uint32_t>(
                      std::max<std::int64_t>(0, needed)));
        }
        for (const std::uint32_t use : reg.uses) {
          if (use != i) {
            addEdge(use, i, DepKind::kAnti, 0);
          }
        }
        reg.uses.clear();
        reg.lastDef = i;
        ++reg.version;
      }
    }
  }

  const std::vector<ir::Instruction>& insns_;
  std::vector<std::vector<Edge>> preds_;
  std::vector<std::vector<Edge>> succs_;
  std::vector<std::uint32_t> heights_;
};

std::string edgeText(const Edge& e) {
  return std::to_string(e.from) + "->" + std::to_string(e.to) + " kind " +
         std::to_string(static_cast<int>(e.kind)) + " latency " +
         std::to_string(e.latency);
}

template <class Edges>
std::vector<std::string> edgeTexts(const Edges& edges) {
  std::vector<std::string> out;
  for (const Edge& e : edges) {
    out.push_back(edgeText(e));
  }
  return out;
}

// Every node's preds and succs as the same (from, to, kind, latency)
// sequence, and the same heights.  Returns the block's edge count.
std::size_t expectSameAsReference(const BasicBlock& block,
                                  const arch::MachineConfig& config,
                                  const std::string& label) {
  const DataFlowGraph graph(block, config);
  const ReferenceDfg reference(block, config);
  std::size_t edges = 0;
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    EXPECT_EQ(edgeTexts(graph.preds(i)), edgeTexts(reference.preds(i)))
        << label << " preds of node " << i;
    EXPECT_EQ(edgeTexts(graph.succs(i)), edgeTexts(reference.succs(i)))
        << label << " succs of node " << i;
    EXPECT_EQ(graph.height(i), reference.height(i))
        << label << " height of node " << i;
    edges += graph.preds(i).size();
  }
  return edges;
}

std::size_t expectSameAsReference(const Program& prog,
                                  const arch::MachineConfig& config,
                                  const std::string& label) {
  std::size_t edges = 0;
  for (ir::FuncId f = 0; f < prog.functionCount(); ++f) {
    const Function& fn = prog.function(f);
    for (ir::BlockId b = 0; b < fn.blockCount(); ++b) {
      edges += expectSameAsReference(
          fn.block(b), config,
          label + " " + fn.name() + " bb" + std::to_string(b));
    }
  }
  return edges;
}

TEST(DfgTest, MatchesPerNodeReferenceOnCompiledWorkloads) {
  std::size_t edges = 0;
  for (const auto& [issue, delay] : {std::pair{1u, 1u}, std::pair{4u, 4u}}) {
    const arch::MachineConfig machine = arch::makePaperMachine(issue, delay);
    for (const passes::Scheme scheme : passes::kAllSchemes) {
      for (const workloads::Workload& wl : workloads::makeAllWorkloads(1)) {
        edges += expectSameAsReference(
            core::compile(wl.program, machine, scheme).program, machine,
            wl.name + " " + passes::schemeName(scheme) + " " +
                machine.toString());
      }
    }
  }
  EXPECT_GT(edges, 10000u);
}

TEST(DfgTest, MatchesPerNodeReferenceOnRandomCfgPrograms) {
  const arch::MachineConfig machine = arch::makePaperMachine(2, 2);
  std::size_t edges = 0;
  for (const bool calls : {false, true}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const Program source =
          testutil::makeRandomCfgProgram(seed, 4, 12, calls);
      const std::string label = "seed " + std::to_string(seed) +
                                (calls ? " calls" : "");
      edges += expectSameAsReference(source, machine, label + " source");
      for (const passes::Scheme scheme : passes::kAllSchemes) {
        edges += expectSameAsReference(
            core::compile(source, machine, scheme).program, machine,
            label + " " + passes::schemeName(scheme));
      }
    }
  }
  EXPECT_GT(edges, 1000u);
}

// A call that redefines a load's result: the load -> call barrier comes
// first (latency 1), the output edge second with the larger latency
// (the load's 4 - the call's 1 + 1).  One edge remains, of the first kind.
TEST(DfgTest, RepeatedPairKeepsFirstKindAndLargerLatency) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg base = b.movImm(0x2000);              // 0
  const Reg v = b.load(base, 0);                  // 1
  b.emit(Opcode::kCall, {v}, {});                 // 2: defs v
  b.emit(Opcode::kHalt, {}, {v});                 // 3
  arch::MachineConfig config = testutil::machine(2, 1);
  config.latencies.mem = 4;
  const DataFlowGraph graph(*h.block, config);
  ASSERT_EQ(graph.succs(1).size(), 1u);
  const Edge& edge = graph.succs(1)[0];
  EXPECT_EQ(edge.to, 2u);
  EXPECT_EQ(edge.kind, DepKind::kBarrier);
  EXPECT_EQ(edge.latency, 4u);
  ASSERT_EQ(graph.preds(2).size(), 1u);
  EXPECT_EQ(edgeText(graph.preds(2)[0]), edgeText(edge));
  EXPECT_EQ(graph.height(1), 4 + graph.height(2));
}

// A check that guards a later redefinition of its own operand: the guard
// edge, added when the check is built, is repeated by the anti edge that
// the guarded node adds.  The guard stays, first among the guarded node's
// preds, ahead of the output edge added while building that node.
TEST(DfgTest, GuardEdgeRepeatedByALaterEdgeFromTheSameCheck) {
  BlockHarness h;
  IrBuilder& b = *h.builder;
  const Reg r = b.movImm(1);                         // 0
  b.emit(Opcode::kCheckG, {}, {r, r});               // 1
  b.movImmTo(r, 2);                                  // 2: guarded
  b.emit(Opcode::kHalt, {}, {r});                    // 3
  h.block->insns()[1].guard = h.block->insns()[2].id;
  const arch::MachineConfig config = testutil::machine(2, 1);
  const DataFlowGraph graph(*h.block, config);
  ASSERT_EQ(graph.succs(1).size(), 1u);
  EXPECT_EQ(graph.succs(1)[0].to, 2u);
  EXPECT_EQ(graph.succs(1)[0].kind, DepKind::kGuard);
  EXPECT_EQ(graph.succs(1)[0].latency, config.latencyFor(Opcode::kCheckG));
  ASSERT_EQ(graph.preds(2).size(), 2u);
  EXPECT_EQ(graph.preds(2)[0].from, 1u);
  EXPECT_EQ(graph.preds(2)[0].kind, DepKind::kGuard);
  EXPECT_EQ(graph.preds(2)[1].from, 0u);
  EXPECT_EQ(graph.preds(2)[1].kind, DepKind::kOutput);
  expectSameAsReference(*h.block, config, "crafted guard");
}

}  // namespace
}  // namespace casted::dfg
