// Flat simulated memory.
//
// The arena covers [0, arenaEnd).  Addresses below Program::kGlobalBase form
// a guard region that always faults (so a corrupted near-null pointer raises
// an exception, one of the paper's outcome classes), globals sit at
// kGlobalBase, and a zero-initialised scratch/heap region follows them.
// 64-bit accesses must be 8-byte aligned; violations raise kMisaligned.
#pragma once

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

  // Accessors are header-inline: they are the single hottest call sites of
  // both simulator engines (one per simulated load/store).
  std::uint64_t readU64(std::uint64_t address) const {
    const std::size_t offset = checkRange(address, 8);
    std::uint64_t value;
    std::memcpy(&value, bytes_.data() + offset, 8);
    return value;
  }
  std::uint8_t readU8(std::uint64_t address) const {
    return bytes_[checkRange(address, 1)];
  }
  double readF64(std::uint64_t address) const {
    const std::size_t offset = checkRange(address, 8);
    double value;
    std::memcpy(&value, bytes_.data() + offset, 8);
    return value;
  }
  void writeU64(std::uint64_t address, std::uint64_t value) {
    const std::size_t offset = checkRange(address, 8);
    noteWrite(offset, 8);
    std::memcpy(bytes_.data() + offset, &value, 8);
  }
  void writeU8(std::uint64_t address, std::uint8_t value) {
    const std::size_t offset = checkRange(address, 1);
    noteWrite(offset, 1);
    bytes_[offset] = value;
  }
  void writeF64(std::uint64_t address, double value) {
    const std::size_t offset = checkRange(address, 8);
    noteWrite(offset, 8);
    std::memcpy(bytes_.data() + offset, &value, 8);
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

  std::size_t checkRange(std::uint64_t address, std::uint32_t width) const {
    if (address < ir::Program::kGlobalBase || address + width > arenaEnd() ||
        address + width < address) {
      throw TrapError{TrapKind::kBadAddress, address};
    }
    if (width == 8 && (address & 7) != 0) {
      throw TrapError{TrapKind::kMisaligned, address};
    }
    return static_cast<std::size_t>(address - ir::Program::kGlobalBase);
  }

  std::vector<std::uint8_t> bytes_;  // starts at kGlobalBase
  std::vector<WriteRecord> log_;
  std::vector<UndoRecord> undo_;
  std::size_t logMark_ = 0;  // log_.size() at setCheckpoint()
  bool logging_ = false;
  bool undoArmed_ = false;
};

}  // namespace casted::sim
