// SlotSet — a fixed-universe bit set over RegSlots numbers.
//
// The set form of the dense register numbering: liveness keeps one per
// block edge, DCE walks a block against one, and the protection lint keeps
// one backward closure per escape operand.  Every operation is a word loop,
// so copies, unions and comparisons cost slots/64 words instead of a hash
// table walk.  Binary operations require both sets to share one universe.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace casted::ir {

class SlotSet {
 public:
  SlotSet() = default;
  // The empty set over slots [0, universe).
  explicit SlotSet(std::uint32_t universe) : words_((universe + 63) / 64, 0) {}

  bool contains(std::uint32_t slot) const {
    return (words_[slot >> 6] >> (slot & 63)) & 1;
  }
  // True when `slot` was not yet a member.
  bool insert(std::uint32_t slot) {
    std::uint64_t& word = words_[slot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    const bool added = (word & bit) == 0;
    word |= bit;
    return added;
  }
  // True when `slot` was a member.
  bool erase(std::uint32_t slot) {
    std::uint64_t& word = words_[slot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    const bool removed = (word & bit) != 0;
    word &= ~bit;
    return removed;
  }

  bool empty() const {
    for (const std::uint64_t word : words_) {
      if (word != 0) {
        return false;
      }
    }
    return true;
  }
  std::uint32_t size() const {
    std::uint32_t count = 0;
    for (const std::uint64_t word : words_) {
      count += static_cast<std::uint32_t>(std::popcount(word));
    }
    return count;
  }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  SlotSet& operator|=(const SlotSet& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
    return *this;
  }
  SlotSet& operator&=(const SlotSet& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= other.words_[i];
    }
    return *this;
  }
  // Set difference.
  SlotSet& operator-=(const SlotSet& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= ~other.words_[i];
    }
    return *this;
  }

  // Calls fn(slot) for every member in increasing slot order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      for (std::uint64_t word = words_[i]; word != 0; word &= word - 1) {
        fn(static_cast<std::uint32_t>(i * 64 + std::countr_zero(word)));
      }
    }
  }

  friend bool operator==(const SlotSet&, const SlotSet&) = default;

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace casted::ir
