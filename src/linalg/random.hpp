// Deterministic pseudo-random number generation for the workload simulator.
//
// Every stochastic component in this repository draws from an explicitly
// seeded `Rng` so that simulated runs, tests, and benchmark tables are
// bit-reproducible across machines. The generator is xoshiro256** seeded via
// SplitMix64 (the recommended seeding procedure for the xoshiro family);
// both are tiny, fast, and have no global state.
#pragma once

#include <cstdint>
#include <span>

#include "common/assert.hpp"

namespace appclass::linalg {

/// SplitMix64 step — used to expand a single 64-bit seed into a full
/// xoshiro256** state, and useful on its own for hashing seeds together.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Combines a base seed with a stream identifier into an independent seed
/// (used to give each VM / application model its own substream).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) noexcept;

/// xoshiro256** 1.0 — public-domain generator by Blackman & Vigna.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Raw 64 uniform random bits.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal via Box–Muller (cached second deviate).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mu, double sigma) noexcept;

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) noexcept;

  /// Log-normal value whose *underlying normal* has the given mu/sigma.
  double lognormal(double mu, double sigma) noexcept;

  /// Fisher–Yates shuffle of an index span.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace appclass::linalg
