#include "util/rng.hpp"

#include <cmath>

namespace bas::util {

namespace {

constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += kSplitMixGamma;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64_next(sm);
  }
}

double Rng::first_uniform(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  splitmix64_next(sm);  // s_[0]
  const std::uint64_t s1 = splitmix64_next(sm);
  return static_cast<double>((rotl(s1 * 5, 7) * 9) >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next_u64() % span);
}

std::size_t Rng::index(std::size_t n) noexcept {
  return static_cast<std::size_t>(next_u64() % n);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) {
    next_u64();  // keep the stream position deterministic
    return false;
  }
  if (p >= 1.0) {
    next_u64();
    return true;
  }
  return uniform() < p;
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(1.0 - u);
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = uniform();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * 3.14159265358979323846 * u2);
}

Rng Rng::derive(std::uint64_t tag) const noexcept {
  const std::uint64_t fingerprint =
      hash_combine(hash_combine(s_[0], s_[1]), hash_combine(s_[2], s_[3]));
  return Rng(hash_combine(fingerprint, tag));
}

std::uint64_t Rng::hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix(a ^ (b + kSplitMixGamma + (a << 6) + (a >> 2)));
}

std::uint64_t Rng::mix(std::uint64_t x) noexcept {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t base, const std::uint64_t* tags,
                          std::size_t count) noexcept {
  std::uint64_t seed = Rng::mix(base);
  for (std::size_t i = 0; i < count; ++i) {
    seed = Rng::hash_combine(seed, tags[i]);
  }
  return seed;
}

std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> tags) noexcept {
  return derive_seed(base, tags.begin(), tags.size());
}

}  // namespace bas::util
