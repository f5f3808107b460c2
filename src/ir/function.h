// BasicBlock, Function and Program.
//
// Control flow is explicit: every block ends in exactly one terminator and
// kBrCond names both successors (no fall-through), which keeps the verifier,
// the scheduler and the simulator simple.  A Program owns its functions plus
// an initialised global memory image with named symbols; workloads write
// their results into the symbol named "output", which is what the fault
// classifier diffs against the golden run.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ir/instruction.h"

namespace casted::ir {

class BasicBlock {
 public:
  BasicBlock(BlockId id, std::string name) : id_(id), name_(std::move(name)) {}

  BlockId id() const { return id_; }
  const std::string& name() const { return name_; }

  std::vector<Instruction>& insns() { return insns_; }
  const std::vector<Instruction>& insns() const { return insns_; }

  bool empty() const { return insns_.empty(); }

  // The block's terminator; requires a non-empty block.
  const Instruction& terminator() const;

  // Successor block ids derived from the terminator (empty for ret/halt).
  std::vector<BlockId> successors() const;

 private:
  BlockId id_;
  std::string name_;
  std::vector<Instruction> insns_;
};

// Dense numbering of a function's registers: the gp registers take slots
// [0, gp), the fp registers the next fp slots and the pr registers the last
// pr slots.  Analyses that keep one fact per register (liveness, the
// protection lint, definite assignment, the DFG builder's def tables) index
// flat arrays and SlotSets by it instead of hashing Regs.  A RegSlots is a
// snapshot of the class sizes: allocating a register moves the later
// classes' slots, so take it after the last newReg().
class RegSlots {
 public:
  RegSlots() = default;
  RegSlots(std::uint32_t gp, std::uint32_t fp, std::uint32_t pr)
      : base_{0, gp, gp + fp}, count_(gp + fp + pr) {}

  std::uint32_t slot(Reg reg) const {
    return base_[static_cast<int>(reg.cls)] + reg.index;
  }
  // Class of the register at `slot`.
  RegClass cls(std::uint32_t slot) const {
    return slot >= base_[2]   ? RegClass::kPr
           : slot >= base_[1] ? RegClass::kFp
                              : RegClass::kGp;
  }
  std::uint32_t count() const { return count_; }

 private:
  std::array<std::uint32_t, 3> base_ = {0, 0, 0};
  std::uint32_t count_ = 0;
};

class Function {
 public:
  Function(FuncId id, std::string name) : id_(id), name_(std::move(name)) {}

  FuncId id() const { return id_; }
  const std::string& name() const { return name_; }

  // Parameters are virtual registers live on entry; callers pass values
  // positionally.  Returns are declared by class; kRet uses must match.
  std::vector<Reg>& params() { return params_; }
  const std::vector<Reg>& params() const { return params_; }
  std::vector<RegClass>& returnClasses() { return returnClasses_; }
  const std::vector<RegClass>& returnClasses() const { return returnClasses_; }

  // "Binary-only library" functions (paper §IV-C): the error-detection pass
  // skips unprotected functions, reproducing the residual data-corruption
  // vulnerability the paper attributes to system libraries.
  bool isProtected() const { return protected_; }
  void setProtected(bool value) { protected_ = value; }

  // Blocks are stored in a deque so handed-out references stay valid as more
  // blocks are added.  Block 0 is the entry.
  BasicBlock& addBlock(std::string name);
  BasicBlock& block(BlockId id);
  const BasicBlock& block(BlockId id) const;
  std::size_t blockCount() const { return blocks_.size(); }
  BasicBlock& entry();
  const BasicBlock& entry() const;

  // Fresh virtual register of the given class.
  Reg newReg(RegClass cls);
  // Number of virtual registers allocated so far in `cls`.
  std::uint32_t regCount(RegClass cls) const;
  // Raises the fresh-register floor so registers up to `count` are reserved.
  void reserveRegsAtLeast(RegClass cls, std::uint32_t count);
  // Slot numbering of every register allocated so far.
  RegSlots regSlots() const {
    return RegSlots(nextReg_[0], nextReg_[1], nextReg_[2]);
  }

  // Fresh instruction id (unique within the function).
  InsnId newInsnId() { return nextInsn_++; }
  std::uint32_t insnIdBound() const { return nextInsn_; }
  // Raises the fresh-id floor so ids below `bound` are never handed out
  // again (used by the parser, which restores explicit ids).
  void reserveInsnIdsAtLeast(std::uint32_t bound) {
    nextInsn_ = std::max(nextInsn_, bound);
  }

  // Total instruction count across blocks.
  std::size_t insnCount() const;

 private:
  FuncId id_;
  std::string name_;
  bool protected_ = true;
  std::vector<Reg> params_;
  std::vector<RegClass> returnClasses_;
  std::deque<BasicBlock> blocks_;
  std::uint32_t nextReg_[3] = {0, 0, 0};
  InsnId nextInsn_ = 0;
};

// A named, initialised region of the global memory image.
struct GlobalSymbol {
  std::string name;
  std::uint64_t address = 0;
  std::uint64_t size = 0;
};

class Program {
 public:
  // Global data starts above the null guard page so that address 0 (and
  // small offsets off a corrupted null) always fault.
  static constexpr std::uint64_t kGlobalBase = 0x1000;

  Function& addFunction(std::string name);
  Function& function(FuncId id);
  const Function& function(FuncId id) const;
  // Returns nullptr if no function has `name`.
  Function* findFunction(const std::string& name);
  std::size_t functionCount() const { return funcs_.size(); }

  FuncId entryFunction() const { return entry_; }
  void setEntryFunction(FuncId id) { entry_ = id; }

  // Allocates `size` bytes of zero-initialised global memory under `name`,
  // 8-byte aligned; returns its base address.
  std::uint64_t allocateGlobal(const std::string& name, std::uint64_t size);
  // As above but with initial contents.
  std::uint64_t allocateGlobal(const std::string& name,
                               const std::vector<std::uint8_t>& bytes);
  // Looks up a symbol; throws FatalError if absent.
  const GlobalSymbol& symbol(const std::string& name) const;
  bool hasSymbol(const std::string& name) const;
  const std::vector<GlobalSymbol>& symbols() const { return symbols_; }

  // The full initial memory image starting at kGlobalBase.
  const std::vector<std::uint8_t>& globalImage() const { return image_; }
  // One-past-the-end address of allocated globals.
  std::uint64_t globalEnd() const { return kGlobalBase + image_.size(); }

  // Total instruction count across functions.
  std::size_t insnCount() const;

 private:
  std::deque<Function> funcs_;
  FuncId entry_ = kInvalidFunc;
  std::vector<GlobalSymbol> symbols_;
  std::vector<std::uint8_t> image_;
};

}  // namespace casted::ir
