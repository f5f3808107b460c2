#include "dfg/dfg.h"

#include <algorithm>
#include <array>
#include <utility>

#include "support/check.h"

namespace casted::dfg {
namespace {

using ir::Instruction;
using ir::Opcode;
using ir::Reg;

// Access width in bytes of a memory instruction.
std::uint32_t accessWidth(Opcode op) {
  switch (op) {
    case Opcode::kLoadB:
    case Opcode::kStoreB:
      return 1;
    default:
      return 8;
  }
}

// Identity of a memory op's base address value: register plus its def
// version at the point of the access.  Two accesses with the same base value
// and disjoint [offset, offset+width) ranges cannot alias.
struct BaseKey {
  Reg reg;
  std::uint32_t version = 0;

  friend bool operator==(const BaseKey& a, const BaseKey& b) {
    return a.reg == b.reg && a.version == b.version;
  }
};

struct MemRef {
  std::uint32_t node = 0;
  bool isStore = false;
  BaseKey base;
  std::int64_t offset = 0;
  std::uint32_t width = 0;
};

bool mayAlias(const MemRef& a, const MemRef& b) {
  if (a.base == b.base) {
    // Same base value: alias only if the byte ranges overlap.
    return a.offset < b.offset + static_cast<std::int64_t>(b.width) &&
           b.offset < a.offset + static_cast<std::int64_t>(a.width);
  }
  return true;  // different/unknown bases: conservative
}

// The block's edges in the order they are added, each (from, to) pair
// once: a repeat keeps the first edge's kind and the larger latency.  Every
// edge but a guard edge targets the node being built, so the last target a
// source was seen with finds a repeat in O(1); a guard edge (check ->
// guarded, the only forward one) joins its target's list and becomes
// findable that way when its target's turn comes.
class EdgeList {
 public:
  explicit EdgeList(std::uint32_t nodes)
      : seen_(nodes), guardHead_(nodes, kNone) {}

  // Starts the edges into `node`.
  void beginNode(std::uint32_t node) {
    current_ = node;
    for (std::uint32_t g = guardHead_[node]; g != kNone;
         g = guards_[g].next) {
      seen_[edges_[guards_[g].edge].from] = {node, guards_[g].edge};
    }
  }

  // An edge into the node being built.
  void add(std::uint32_t from, DepKind kind, std::uint32_t latency) {
    CASTED_CHECK(from < current_) << "DFG edges must point forward (" << from
                                  << " -> " << current_ << ")";
    Seen& seen = seen_[from];
    if (seen.target == current_) {
      Edge& edge = edges_[seen.edge];
      edge.latency = std::max(edge.latency, latency);
      return;
    }
    seen = {current_, static_cast<std::uint32_t>(edges_.size())};
    edges_.push_back({from, current_, kind, latency});
  }

  // A guard edge from the node being built to a later node.  A check
  // guards one node and no earlier edge leaves the node being built, so a
  // guard edge is never a repeat.
  void addGuard(std::uint32_t to, std::uint32_t latency) {
    CASTED_CHECK(current_ < to) << "DFG edges must point forward ("
                                << current_ << " -> " << to << ")";
    guards_.push_back({static_cast<std::uint32_t>(edges_.size()),
                       guardHead_[to]});
    guardHead_[to] = static_cast<std::uint32_t>(guards_.size() - 1);
    edges_.push_back({current_, to, DepKind::kGuard, latency});
  }

  std::vector<Edge> release() { return std::move(edges_); }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct Seen {
    std::uint32_t target = kNone;
    std::uint32_t edge = 0;
  };
  struct GuardLink {
    std::uint32_t edge = 0;
    std::uint32_t next = kNone;
  };

  std::vector<Edge> edges_;
  std::vector<Seen> seen_;  // by source: the last target, and that edge
  std::vector<std::uint32_t> guardHead_;  // by target: into guards_
  std::vector<GuardLink> guards_;
  std::uint32_t current_ = 0;
};

std::vector<Edge> buildEdges(const std::vector<Instruction>& insns,
                             const arch::MachineConfig& config) {
  constexpr std::uint32_t kNone = 0xffffffffu;

  // Per-register bookkeeping since block entry, indexed by a slot numbering
  // that covers every register index the block names.
  std::array<std::uint32_t, 3> regCount = {0, 0, 0};
  for (const Instruction& insn : insns) {
    for (const std::vector<Reg>* regs : {&insn.uses, &insn.defs}) {
      for (const Reg& reg : *regs) {
        std::uint32_t& count = regCount[static_cast<int>(reg.cls)];
        count = std::max(count, reg.index + 1);
      }
    }
  }
  const ir::RegSlots slots(regCount[0], regCount[1], regCount[2]);
  // The reads of a register since its last def, oldest first, are a chain
  // through useLinks from firstUse to lastUse.
  struct RegState {
    std::uint32_t lastDef = kNone;  // node index
    std::uint32_t version = 0;      // bumped per def
    std::uint32_t firstUse = kNone;
    std::uint32_t lastUse = kNone;
  };
  struct UseLink {
    std::uint32_t node = 0;
    std::uint32_t next = kNone;
  };
  std::vector<RegState> regs(slots.count());
  std::vector<UseLink> useLinks;
  std::vector<MemRef> memRefs;
  std::vector<std::uint32_t> calls;
  EdgeList list(static_cast<std::uint32_t>(insns.size()));

  auto latencyOf = [&](std::uint32_t node) {
    return config.latencyFor(insns[node].op);
  };

  // Most recent explicit trap-jump (split-check mode).  A branch is a code-
  // motion barrier in the paper's compiler: nothing after it in program
  // order may issue in or before its group, which is what makes dense
  // checking sequential (§IV-B2).  Each instruction depends on the nearest
  // preceding side exit; exits chain transitively.
  std::uint32_t lastSideExit = 0xffffffffu;

  for (std::uint32_t i = 0; i < insns.size(); ++i) {
    const Instruction& insn = insns[i];
    list.beginNode(i);

    if (lastSideExit != 0xffffffffu) {
      list.add(lastSideExit, DepKind::kBarrier, 1);
    }
    if (insn.op == Opcode::kTrapIf) {
      lastSideExit = i;
    }

    // RAW edges.
    for (const Reg& use : insn.uses) {
      RegState& reg = regs[slots.slot(use)];
      if (reg.lastDef != kNone) {
        list.add(reg.lastDef, DepKind::kData, latencyOf(reg.lastDef));
      }
      const auto link = static_cast<std::uint32_t>(useLinks.size());
      useLinks.push_back({i, kNone});
      if (reg.lastUse == kNone) {
        reg.firstUse = link;
      } else {
        useLinks[reg.lastUse].next = link;
      }
      reg.lastUse = link;
    }

    // Memory ordering (with base+offset disambiguation).
    if (insn.isMemory()) {
      MemRef ref;
      ref.node = i;
      ref.isStore = insn.isStore();
      const Reg base = insn.uses[0];
      ref.base = BaseKey{base, regs[slots.slot(base)].version};
      ref.offset = insn.imm;
      ref.width = accessWidth(insn.op);
      for (const MemRef& prior : memRefs) {
        if (!prior.isStore && !ref.isStore) {
          continue;  // load-load: never ordered
        }
        if (!mayAlias(prior, ref)) {
          continue;
        }
        // store->load and store->store: the write must be visible (1 cycle);
        // load->store: same-cycle issue is fine (read-at-issue).
        const std::uint32_t latency = prior.isStore ? 1 : 0;
        list.add(prior.node, DepKind::kMemory, latency);
      }
      memRefs.push_back(ref);
      // Calls are barriers for memory.
      if (!calls.empty()) {
        list.add(calls.back(), DepKind::kBarrier, config.latencies.call);
      }
    }

    if (insn.isCall()) {
      for (const MemRef& prior : memRefs) {
        if (prior.node != i) {
          list.add(prior.node, DepKind::kBarrier, 1);
        }
      }
      if (!calls.empty()) {
        list.add(calls.back(), DepKind::kBarrier, config.latencies.call);
      }
      calls.push_back(i);
    }

    // CHECK guards: the check's id is linked from the guarded instruction
    // side via `guard`, so when we *are* the guarded instruction we find the
    // preceding checks that name us.
    if (insn.isCheck() && insn.guard != ir::kInvalidInsn) {
      for (std::uint32_t j = i + 1; j < insns.size(); ++j) {
        if (insns[j].id == insn.guard) {
          list.addGuard(j, latencyOf(i));
          break;
        }
      }
    }

    // WAR / WAW edges for defs.
    for (const Reg& def : insn.defs) {
      RegState& reg = regs[slots.slot(def)];
      if (reg.lastDef != kNone && reg.lastDef != i) {
        // Keep write times ordered: start_i + lat_i > start_prev + lat_prev.
        const std::int64_t needed =
            static_cast<std::int64_t>(latencyOf(reg.lastDef)) -
            static_cast<std::int64_t>(latencyOf(i)) + 1;
        list.add(reg.lastDef, DepKind::kOutput,
                 static_cast<std::uint32_t>(std::max<std::int64_t>(0, needed)));
      }
      for (std::uint32_t link = reg.firstUse; link != kNone;
           link = useLinks[link].next) {
        if (useLinks[link].node != i) {
          list.add(useLinks[link].node, DepKind::kAnti, 0);
        }
      }
      reg.firstUse = kNone;
      reg.lastUse = kNone;
      reg.lastDef = i;
      ++reg.version;
    }
  }
  return list.release();
}

}  // namespace

DataFlowGraph::DataFlowGraph(const ir::BasicBlock& block,
                             const arch::MachineConfig& config)
    : insns_(&block.insns()) {
  layOut(buildEdges(*insns_, config));
  computeHeights();
}

// Stable counting sorts of `edges` by target and by source, so every
// node's preds and succs keep the order the edges were added in.
void DataFlowGraph::layOut(const std::vector<Edge>& edges) {
  const std::size_t n = insns_->size();
  const auto count = static_cast<std::uint32_t>(edges.size());
  edges_ = std::make_unique_for_overwrite<Edge[]>(2 * std::size_t{count});
  predBegin_.assign(n + 1, 0);
  succBegin_.assign(n + 1, 0);
  for (const Edge& edge : edges) {
    ++predBegin_[edge.to + 1];
    ++succBegin_[edge.from + 1];
  }
  succBegin_[0] = count;  // the succs follow the preds in edges_
  for (std::size_t v = 0; v < n; ++v) {
    predBegin_[v + 1] += predBegin_[v];
    succBegin_[v + 1] += succBegin_[v];
  }
  // Each node's begin is its fill cursor, left at the next node's begin;
  // the shift below restores it.
  for (const Edge& edge : edges) {
    edges_[predBegin_[edge.to]++] = edge;
    edges_[succBegin_[edge.from]++] = edge;
  }
  for (std::size_t v = n; v > 0; --v) {
    predBegin_[v] = predBegin_[v - 1];
    succBegin_[v] = succBegin_[v - 1];
  }
  predBegin_[0] = 0;
  succBegin_[0] = count;
}

void DataFlowGraph::computeHeights() {
  heights_.assign(insns_->size(), 0);
  // Nodes are in topological (program) order; sweep backwards.
  for (std::uint32_t i = static_cast<std::uint32_t>(insns_->size()); i > 0;) {
    --i;
    std::uint32_t height = 1;  // occupies at least its own issue cycle
    for (const Edge& edge : succs(i)) {
      height = std::max(height, edge.latency + heights_[edge.to]);
    }
    heights_[i] = height;
  }
}

std::uint32_t DataFlowGraph::criticalPathLength() const {
  std::uint32_t length = 0;
  for (std::uint32_t height : heights_) {
    length = std::max(length, height);
  }
  return length;
}

std::vector<std::uint32_t> DataFlowGraph::priorityOrder() const {
  std::vector<std::uint32_t> order(size());
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return heights_[a] > heights_[b];
                   });
  return order;
}

}  // namespace casted::dfg
