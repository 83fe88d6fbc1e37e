#pragma once
// Deterministic pseudo-random number generation for all simulations.
//
// Every stochastic component of the library draws from an explicitly seeded
// bas::util::Rng so that experiments are bit-reproducible, and so that
// scheme comparisons can use common random numbers: the actual computation
// of (set seed, graph, instance, node) is derived by hashing those
// coordinates rather than by consuming a shared stream (see derive()).

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>

namespace bas::util {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
///
/// Fast, high-quality, 2^256-1 period. Not cryptographic; plenty for
/// simulation. All distribution helpers are convenience wrappers that
/// consume exactly one or two raw draws, keeping replay stable.
class Rng {
 public:
  /// Seeds the four-word state by running SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit draw. Inline so per-slot callers (the stochastic
  /// battery's recovery draw) keep the four state words in registers.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform() noexcept {
    // Top 53 bits -> double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Equal to Rng(seed).uniform() without building the generator:
  /// xoshiro256**'s first output reads only s_[1], the second SplitMix64
  /// word of the seeding. For one-draw-per-key callers.
  static double first_uniform(std::uint64_t seed) noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi (returns lo when equal).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  int uniform_int(int lo, int hi) noexcept;

  /// Uniform size_t in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) noexcept;

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponentially distributed draw with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Normal draw (Box-Muller, consumes two uniforms every call).
  double normal(double mean, double stddev) noexcept;

  /// Derives an independent generator for a sub-stream. Mixing is by
  /// SplitMix64 over (state fingerprint, tag), so derive(a) and derive(b)
  /// are decorrelated for a != b and stable across runs.
  [[nodiscard]] Rng derive(std::uint64_t tag) const noexcept;

  /// Stateless 64-bit mix of two values (SplitMix64 finalizer over a
  /// boost-style combine). Used to key per-(graph, instance, node) draws.
  static std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept;

  /// Stateless SplitMix64 finalizer.
  static std::uint64_t mix(std::uint64_t x) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Folds `tags` into `base` with Rng::hash_combine — the canonical way to
/// derive a sub-experiment seed from grid coordinates (scheme index,
/// replicate number, ...). Pure and stateless, so the result depends only
/// on the coordinates: two jobs with equal coordinates get equal seeds on
/// every platform and for any thread count.
std::uint64_t derive_seed(std::uint64_t base, const std::uint64_t* tags,
                          std::size_t count) noexcept;
std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> tags) noexcept;

}  // namespace bas::util
