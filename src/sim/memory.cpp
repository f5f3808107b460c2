#include "sim/memory.h"

#include <cstddef>
#include <cstring>

#include "support/check.h"

namespace casted::sim {

Memory::Memory(const ir::Program& program, std::uint64_t heapBytes)
    : Memory(program.globalImage(), heapBytes) {}

Memory::Memory(const std::vector<std::uint8_t>& globalImage,
               std::uint64_t heapBytes) {
  bytes_ = globalImage;
  bytes_.resize(bytes_.size() + heapBytes, 0);
}

std::size_t Memory::undoTo(std::size_t size) {
  const std::size_t replayed = undo_.size() - size;
  while (undo_.size() > size) {
    const UndoRecord& record = undo_.back();
    std::memcpy(bytes_.data() + record.offset, &record.oldBits, record.width);
    undo_.pop_back();
  }
  return replayed;
}

void Memory::reset() {
  undoTo(0);
  checkpoint_.reset();
}

void Memory::setCheckpoint() { checkpoint_ = undo_.size(); }

std::size_t Memory::rewindToCheckpoint() {
  CASTED_CHECK(checkpoint_.has_value()) << "no live memory checkpoint";
  return undoTo(*checkpoint_);
}

std::vector<std::uint8_t> Memory::snapshot(std::uint64_t address,
                                           std::uint64_t size) const {
  if (size == 0) {
    return {};
  }
  // One check for the whole range.  The trap names the first byte outside
  // the arena, as a byte-by-byte copy would.
  if (address < ir::Program::kGlobalBase || address >= arenaEnd()) {
    throw TrapError{TrapKind::kBadAddress, address};
  }
  if (size > arenaEnd() - address) {
    throw TrapError{TrapKind::kBadAddress, arenaEnd()};
  }
  const auto first = bytes_.begin() +
                     static_cast<std::ptrdiff_t>(
                         address - ir::Program::kGlobalBase);
  return std::vector<std::uint8_t>(first,
                                   first + static_cast<std::ptrdiff_t>(size));
}

}  // namespace casted::sim
