#include "support/rng.h"

#include "support/check.h"

namespace casted {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::nextBelow(std::uint64_t bound) {
  CASTED_CHECK(bound != 0) << "nextBelow requires a positive bound";
  // Rejection sampling: draw until the value falls in the largest multiple
  // of `bound` that fits in 64 bits.
  const std::uint64_t limit = bound * (~0ULL / bound);
  std::uint64_t draw = next();
  while (draw >= limit) {
    draw = next();
  }
  return draw % bound;
}

double Rng::nextDouble() {
  // 53 significant bits, uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::nextBool(double p) { return nextDouble() < p; }

std::uint64_t deriveStreamSeed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 step: advance the state by (stream + 1) golden-ratio strides,
  // then run the output finalizer.  +1 keeps stream 0 from collapsing to the
  // bare seed.
  std::uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace casted
