#include "exp/plan.hpp"

#include <cstdio>
#include <sstream>
#include <vector>

#include "util/rng.hpp"

namespace bas::exp {

namespace {

// Domain-separation tags so cell seeds, replicate seeds and job seeds
// can never collide even for coinciding coordinate values.
constexpr std::uint64_t kCellDomain = 0x9d8f0c3b5a1e77c1ULL;
constexpr std::uint64_t kReplicateDomain = 0x6a09e667f3bcc909ULL;

// FNV-1a 64, fed length-prefixed fields so "ab"+"c" and "a"+"bc" can
// never serialize identically.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void feed_byte(std::uint64_t& hash, unsigned char byte) {
  hash ^= byte;
  hash *= kFnvPrime;
}

void feed_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    feed_byte(hash, static_cast<unsigned char>(value >> (8 * i)));
  }
}

void feed_string(std::uint64_t& hash, const std::string& text) {
  feed_u64(hash, text.size());
  for (const char c : text) {
    feed_byte(hash, static_cast<unsigned char>(c));
  }
}

}  // namespace

std::uint64_t spec_fingerprint(const ExperimentSpec& spec) {
  std::uint64_t hash = kFnvOffset;
  feed_u64(hash, kResultsRevision);
  feed_string(hash, spec.title);
  feed_string(hash, spec.config);
  feed_u64(hash, spec.seed);
  feed_u64(hash, static_cast<std::uint64_t>(spec.replicates));
  feed_u64(hash, spec.grid.axis_count());
  for (const auto& axis : spec.grid.axes()) {
    feed_string(hash, axis.name);
    feed_u64(hash, axis.labels.size());
    for (const auto& label : axis.labels) {
      feed_string(hash, label);
    }
  }
  feed_u64(hash, spec.metrics.size());
  for (const auto& metric : spec.metrics) {
    feed_string(hash, metric);
  }
  return hash;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

Job make_job(const ExperimentSpec& spec, std::size_t index) {
  const auto replicates = static_cast<std::size_t>(spec.replicates);
  Job job;
  job.index = index;
  job.cell = index / replicates;
  job.replicate = static_cast<int>(index % replicates);
  job.coord = spec.grid.coord(job.cell);

  std::vector<std::uint64_t> tags;
  tags.reserve(job.coord.size() + 1);
  tags.push_back(kCellDomain);
  for (const auto c : job.coord) {
    tags.push_back(static_cast<std::uint64_t>(c));
  }
  job.cell_seed = util::derive_seed(spec.seed, tags.data(), tags.size());
  job.replicate_seed = util::derive_seed(
      spec.seed,
      {kReplicateDomain, static_cast<std::uint64_t>(job.replicate)});
  job.seed = util::Rng::hash_combine(
      job.cell_seed, static_cast<std::uint64_t>(job.replicate));
  return job;
}

std::string describe(const ExperimentSpec& spec, const Job& job) {
  std::ostringstream out;
  out << "job " << job.index << " [";
  for (std::size_t a = 0; a < spec.grid.axis_count(); ++a) {
    out << (a ? ", " : "") << spec.grid.axis(a).name << '='
        << spec.grid.axis(a).labels.at(job.coord.at(a));
  }
  out << "] replicate " << job.replicate;
  return out.str();
}

}  // namespace bas::exp
