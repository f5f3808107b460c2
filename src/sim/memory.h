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
#include <optional>
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
    if (wordAddress + 8 <= arenaEnd()) [[likely]] {
      std::memcpy(&value, at(wordAddress), 8);  // a fixed size: no call
    } else {
      std::memcpy(&value, at(wordAddress), arenaEnd() - wordAddress);
    }
    return value;
  }

  // Snapshot of `size` bytes at `address` — used to capture the output
  // region for golden comparison.  Throws kBadAddress naming the first byte
  // of the range that lies outside the arena.
  std::vector<std::uint8_t> snapshot(std::uint64_t address,
                                     std::uint64_t size) const;

  // Undo log, always on: every write records its pre-image, so the arena
  // goes back to an earlier state in time proportional to the writes since
  // then, not to the (multi-megabyte) arena.  reset() undoes every write
  // since construction, newest first — the arena then equals a freshly
  // built one — and drops the checkpoint; that is how the decoded engine's
  // reusable runners start each run.  setCheckpoint() records the log
  // position as the rewind target, replacing any earlier one, and
  // rewindToCheckpoint() undoes the writes since it, newest first, and
  // returns the number of records it replayed.  Rewinding can be repeated;
  // the writes before the mark stay logged for the next reset().
  void reset();
  void setCheckpoint();
  std::size_t rewindToCheckpoint();

 private:
  struct UndoRecord {
    std::size_t offset = 0;
    std::uint64_t oldBits = 0;  // pre-image, low `width` bytes
    std::uint32_t width = 0;
  };

  void noteWrite(std::size_t offset, std::uint32_t width) {
    std::uint64_t old = 0;
    std::memcpy(&old, bytes_.data() + offset, width);
    undo_.push_back({offset, old, width});
  }

  // Undoes records until `size` remain; returns how many it replayed.
  std::size_t undoTo(std::size_t size);

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
  std::vector<UndoRecord> undo_;
  std::optional<std::size_t> checkpoint_;  // undo_.size() at setCheckpoint()
};

}  // namespace casted::sim
