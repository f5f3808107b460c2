// Deterministic pseudo-random number generation for workload data and the
// Monte Carlo fault-injection campaigns.
//
// We implement xoshiro256** (Blackman & Vigna) instead of relying on
// std::mt19937 so that the sequence is stable across standard libraries —
// the fault-injection experiments must be reproducible bit-for-bit — and a
// generator is 32 bytes, cheap to seed once per Monte Carlo trial (from
// deriveStreamSeed).
#pragma once

#include <array>
#include <cstdint>

namespace casted {

// xoshiro256** PRNG.  Copyable; copies continue independent deterministic
// streams.
class Rng {
 public:
  // Seeds via splitmix64 so that nearby seeds yield uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit value.
  std::uint64_t next();

  // Uniform in [0, bound).  bound must be non-zero.  Uses rejection sampling
  // (unbiased).
  std::uint64_t nextBelow(std::uint64_t bound);

  // Uniform double in [0, 1).
  double nextDouble();

  // Bernoulli draw with probability p in [0, 1].
  bool nextBool(double p = 0.5);

 private:
  std::array<std::uint64_t, 4> state_;
};

// Derives the seed for sub-stream `stream` of `seed` with a SplitMix64 mix
// (golden-ratio stride + finalizer).  Use this — not `seed ^ stream` or
// `seed + stream` — wherever many generators are forked from one master
// seed: the raw combinations collide across nearby master seeds (seed A,
// stream i and seed B, stream j coincide whenever A^i == B^j), whereas the
// mixed value decorrelates every (seed, stream) pair.  The fault campaign
// seeds each trial's Rng with deriveStreamSeed(seed, trialIndex).
std::uint64_t deriveStreamSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace casted
