#include "sim/memory.h"

#include <cstddef>
#include <cstring>

#include "support/check.h"

namespace casted::sim {

const char* trapKindName(TrapKind kind) {
  switch (kind) {
    case TrapKind::kNone:
      return "none";
    case TrapKind::kBadAddress:
      return "bad-address";
    case TrapKind::kMisaligned:
      return "misaligned";
    case TrapKind::kDivByZero:
      return "div-by-zero";
    case TrapKind::kBadConversion:
      return "bad-conversion";
    case TrapKind::kStackOverflow:
      return "stack-overflow";
  }
  CASTED_UNREACHABLE("bad TrapKind");
}

Memory::Memory(const ir::Program& program, std::uint64_t heapBytes)
    : Memory(program.globalImage(), heapBytes) {}

Memory::Memory(const std::vector<std::uint8_t>& globalImage,
               std::uint64_t heapBytes) {
  bytes_ = globalImage;
  bytes_.resize(bytes_.size() + heapBytes, 0);
}

void Memory::enableWriteLog() {
  logging_ = true;
  log_.clear();
}

void Memory::resetLogged(const std::vector<std::uint8_t>& pristine) {
  for (const WriteRecord& record : log_) {
    for (std::uint32_t i = 0; i < record.width; ++i) {
      const std::size_t offset = record.offset + i;
      bytes_[offset] = offset < pristine.size() ? pristine[offset] : 0;
    }
  }
  log_.clear();
  logMark_ = 0;
}

void Memory::setCheckpoint() {
  CASTED_CHECK(logging_) << "memory checkpoints require the write log";
  undoArmed_ = true;
  undo_.clear();
  logMark_ = log_.size();
}

std::size_t Memory::rewindToCheckpoint() {
  CASTED_CHECK(undoArmed_) << "no live memory checkpoint";
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    std::memcpy(bytes_.data() + it->offset, &it->oldBits, it->width);
  }
  const std::size_t rewound = undo_.size();
  undo_.clear();
  log_.resize(logMark_);
  return rewound;
}

void Memory::dropCheckpoint() {
  undoArmed_ = false;
  undo_.clear();
  logMark_ = 0;
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
