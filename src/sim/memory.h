// Flat simulated memory.
//
// The arena covers [0, arenaEnd).  Addresses below Program::kGlobalBase form
// a guard region that always faults (so a corrupted near-null pointer raises
// an exception, one of the paper's outcome classes), globals sit at
// kGlobalBase, and a zero-initialised scratch/heap region follows them.
// 64-bit accesses must be 8-byte aligned; violations raise kMisaligned.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ir/function.h"

namespace casted::sim {

// Why a run trapped.
enum class TrapKind : std::uint8_t {
  kNone,
  kBadAddress,
  kMisaligned,
  kDivByZero,
  kBadConversion,  // f2i of NaN/infinity/out-of-range
  kStackOverflow,
};

const char* trapKindName(TrapKind kind);

// Raised by Memory/Executor on a trap; caught by the simulator run loop and
// classified as an Exception outcome.
struct TrapError {
  TrapKind kind = TrapKind::kNone;
  std::uint64_t address = 0;
};

class Memory {
 public:
  // Builds the memory image of `program` with `heapBytes` of zeroed scratch
  // after the globals.
  Memory(const ir::Program& program, std::uint64_t heapBytes);

  // Same, from a raw global image (starting at kGlobalBase) — the decoded
  // engine keeps a copy of the image instead of the ir::Program.
  Memory(const std::vector<std::uint8_t>& globalImage,
         std::uint64_t heapBytes);

  std::uint64_t arenaEnd() const {
    return ir::Program::kGlobalBase + bytes_.size();
  }

  // The memory rule: the trap an access of `width` bytes (1 or 8) at
  // `address` raises, or kNone.  Addresses outside [kGlobalBase, arenaEnd)
  // are bad; a 64-bit access must also be 8-byte aligned.  The throwing
  // accessors, the decoded engine and its lockstep lanes all decide traps
  // here, so none of them can disagree with the model about what traps.
  TrapKind accessTrap(std::uint64_t address, std::uint32_t width) const {
    if (address < ir::Program::kGlobalBase || address + width > arenaEnd() ||
        address + width < address) {
      return TrapKind::kBadAddress;
    }
    if (width == 8 && (address & 7) != 0) {
      return TrapKind::kMisaligned;
    }
    return TrapKind::kNone;
  }

  // Accessors are header-inline: they are the single hottest call sites of
  // both simulator engines (one per simulated load/store).  These throw
  // TrapError on a trap.
  std::uint64_t readU64(std::uint64_t address) const {
    checkRange(address, 8);
    return rawReadU64(address);
  }
  std::uint8_t readU8(std::uint64_t address) const {
    checkRange(address, 1);
    return rawReadU8(address);
  }
  double readF64(std::uint64_t address) const {
    checkRange(address, 8);
    double value;
    std::memcpy(&value, at(address), 8);
    return value;
  }
  void writeU64(std::uint64_t address, std::uint64_t value) {
    checkRange(address, 8);
    rawWriteU64(address, value);
  }
  void writeU8(std::uint64_t address, std::uint8_t value) {
    checkRange(address, 1);
    rawWriteU8(address, value);
  }
  void writeF64(std::uint64_t address, double value) {
    checkRange(address, 8);
    noteWrite(offsetOf(address), 8);
    std::memcpy(at(address), &value, 8);
  }

  // Unchecked accessors, for a caller that has applied accessTrap() (the
  // decoded engine, which reports traps without unwinding).
  std::uint64_t rawReadU64(std::uint64_t address) const {
    std::uint64_t value;
    std::memcpy(&value, at(address), 8);
    return value;
  }
  std::uint8_t rawReadU8(std::uint64_t address) const {
    return *at(address);
  }
  void rawWriteU64(std::uint64_t address, std::uint64_t value) {
    noteWrite(offsetOf(address), 8);
    std::memcpy(at(address), &value, 8);
  }
  void rawWriteU8(std::uint64_t address, std::uint8_t value) {
    noteWrite(offsetOf(address), 1);
    *at(address) = value;
  }

  // The aligned 8-byte word at `wordAddress` (which must lie in the
  // arena), as rawReadU64 would return it; bytes past arenaEnd() read as
  // zero.
  std::uint64_t peekWord(std::uint64_t wordAddress) const {
    std::uint64_t value = 0;
    std::memcpy(&value, at(wordAddress),
                std::min<std::uint64_t>(8, arenaEnd() - wordAddress));
    return value;
  }

  // Snapshot of `size` bytes at `address` — used to capture the output
  // region for golden comparison.  Throws kBadAddress naming the first byte
  // of the range that lies outside the arena.
  std::vector<std::uint8_t> snapshot(std::uint64_t address,
                                     std::uint64_t size) const;

  // Write logging, for contexts that run many programs against the same
  // image (the decoded engine's per-campaign runners).  With the log on,
  // every successful write records its (offset, width); resetLogged()
  // restores exactly those bytes from `pristine` (the global image; bytes
  // past it are heap and revert to zero) instead of rebuilding the whole
  // multi-megabyte arena.  Cost is proportional to bytes written by the
  // run, not to arena size.
  void enableWriteLog();
  void resetLogged(const std::vector<std::uint8_t>& pristine);

  // Checkpoint support for the decoded engine's golden-prefix restore
  // (sim/decoded.h).  setCheckpoint() marks the current contents as the
  // rewind target and starts recording each write's pre-image;
  // rewindToCheckpoint() undoes every write since the mark in reverse order,
  // so restore cost is O(bytes written since the mark), not O(arena), and
  // returns the number of undo records it replayed.  One
  // checkpoint is live at a time; a new setCheckpoint() replaces the mark,
  // and rewinding can be repeated (the undo log re-accumulates after each
  // rewind).  Requires the write log: rewinding also truncates `log_` back
  // to the mark, which keeps resetLogged() exact — every byte the rewind
  // restores holds its checkpoint-time value, and any such byte that differs
  // from pristine was already covered by a pre-mark log entry.
  void setCheckpoint();
  std::size_t rewindToCheckpoint();
  void dropCheckpoint();

 private:
  struct WriteRecord {
    std::size_t offset = 0;
    std::uint32_t width = 0;
  };
  struct UndoRecord {
    std::size_t offset = 0;
    std::uint64_t oldBits = 0;  // pre-image, low `width` bytes
    std::uint32_t width = 0;
  };

  void noteWrite(std::size_t offset, std::uint32_t width) {
    if (logging_) {
      log_.push_back({offset, width});
    }
    if (undoArmed_) {
      std::uint64_t old = 0;
      std::memcpy(&old, bytes_.data() + offset, width);
      undo_.push_back({offset, old, width});
    }
  }

  void checkRange(std::uint64_t address, std::uint32_t width) const {
    const TrapKind trap = accessTrap(address, width);
    if (trap != TrapKind::kNone) {
      throw TrapError{trap, address};
    }
  }
  static std::size_t offsetOf(std::uint64_t address) {
    return static_cast<std::size_t>(address - ir::Program::kGlobalBase);
  }
  std::uint8_t* at(std::uint64_t address) {
    return bytes_.data() + offsetOf(address);
  }
  const std::uint8_t* at(std::uint64_t address) const {
    return bytes_.data() + offsetOf(address);
  }

  std::vector<std::uint8_t> bytes_;  // starts at kGlobalBase
  std::vector<WriteRecord> log_;
  std::vector<UndoRecord> undo_;
  std::size_t logMark_ = 0;  // log_.size() at setCheckpoint()
  bool logging_ = false;
  bool undoArmed_ = false;
};

}  // namespace casted::sim
