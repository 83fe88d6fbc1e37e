// Tests for the streaming campaign store (src/store/): the %.17g
// round-trip contract, kill-mid-write recovery, fingerprint filtering
// and the one-file rule: a store reads only `<fingerprint>.jsonl`.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "store/jsonl.hpp"
#include "store/store.hpp"

namespace bas {
namespace {

/// Fresh temp directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("bas-store-" + name + "-" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// Doubles that only survive a text round trip at full %.17g precision.
std::vector<double> awkward_metrics() {
  return {1.0 / 3.0,  -0.0, 5e-324, 1.7976931348623157e308, 0.1,
          123456789.123456789};
}

void append_one(store::JsonlStore& s, std::size_t job,
                std::vector<double> metrics) {
  s.append({job, std::move(metrics), ""});
}

std::size_t count_files(const std::string& dir) {
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++files;
  }
  return files;
}

// ------------------------------------------------------ shared helpers

TEST(StoreHelpers, MetricsFormatRoundTripsBitwise) {
  const auto metrics = awkward_metrics();
  std::vector<double> parsed;
  ASSERT_TRUE(store::parse_metrics(store::format_metrics(metrics).c_str(),
                                   &parsed));
  ASSERT_EQ(parsed.size(), metrics.size());
  EXPECT_EQ(0, std::memcmp(parsed.data(), metrics.data(),
                           metrics.size() * sizeof(double)));
  ASSERT_TRUE(store::parse_metrics("[]", &parsed));
  EXPECT_TRUE(parsed.empty());
}

TEST(StoreHelpers, MalformedMetricsAreRejected) {
  std::vector<double> parsed;
  for (const char* bad : {"", "1,2", "[1 2]", "[x]", "{1}"}) {
    EXPECT_FALSE(store::parse_metrics(bad, &parsed)) << bad;
  }
}

// --------------------------------------------------------- jsonl store

TEST(JsonlStore, RoundTripsDoublesBitwise) {
  TempDir dir("roundtrip");
  const auto metrics = awkward_metrics();
  {
    store::JsonlStore cache(dir.path, 0xabcdefULL);
    append_one(cache, 7, metrics);
  }
  store::JsonlStore cache(dir.path, 0xabcdefULL);
  const auto loaded = cache.load(metrics.size());
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_TRUE(loaded.count(7));
  ASSERT_EQ(loaded.at(7).size(), metrics.size());
  EXPECT_EQ(0, std::memcmp(loaded.at(7).data(), metrics.data(),
                           metrics.size() * sizeof(double)));
}

TEST(JsonlStore, IgnoresOtherFingerprintsTornLinesAndWrongArity) {
  TempDir dir("filter");
  store::JsonlStore mine(dir.path, 0x1111ULL);
  append_one(mine, 0, {1.0, 2.0});
  append_one(mine, 2, {5.0});  // wrong arity for a 2-metric load
  {
    std::ofstream file(mine.write_path(), std::ios::app);
    file << "{\"fp\":\"" << exp::fingerprint_hex(0x2222ULL)
         << "\",\"job\":1,\"metrics\":[3.0,4.0]}\n";
    file << "{\"fp\":\"" << exp::fingerprint_hex(0x1111ULL)
         << "\",\"job\":9,\"metrics\":[1.0";  // no closing brace/newline
  }
  const auto loaded = mine.load(2);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.count(0));
}

TEST(JsonlStore, AppendHealsATornTailBeforeWriting) {
  TempDir dir("torn-tail");
  const std::string fp = exp::fingerprint_hex(0x4444ULL);
  store::JsonlStore probe(dir.path, 0x4444ULL);
  {
    // A killed writer's file: a complete record, then a torn line with
    // no trailing newline.
    std::ofstream file(probe.write_path());
    file << "{\"fp\":\"" << fp << "\",\"job\":0,\"metrics\":[1]}\n";
    file << "{\"fp\":\"" << fp << "\",\"job\":5,\"metrics\":";
  }
  store::JsonlStore cache(dir.path, 0x4444ULL);
  append_one(cache, 9, {7.0});
  const auto loaded = cache.load(1);
  // The torn job-5 line must stay torn (skipped), never absorb job 9's
  // metrics; jobs 0 and 9 survive.
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.count(0));
  ASSERT_TRUE(loaded.count(9));
  EXPECT_EQ(loaded.at(9), std::vector<double>{7.0});
  EXPECT_FALSE(loaded.count(5));
}

TEST(JsonlStore, ReadsOnlyItsOwnFile) {
  // A store is `<fp>.jsonl` alone: rows of the same fingerprint in any
  // other file of the directory, such as `<fp>-s1of2.jsonl`, are not
  // served.
  TempDir dir("one-file");
  const std::string fp = exp::fingerprint_hex(0x3333ULL);
  store::JsonlStore cache(dir.path, 0x3333ULL);
  EXPECT_EQ(cache.write_path(), dir.path + "/" + fp + ".jsonl");
  std::ofstream(dir.path + "/" + fp + "-s1of2.jsonl")
      << "{\"fp\":\"" << fp << "\",\"job\":1,\"metrics\":[2]}\n"
      << "{\"fp\":\"" << fp << "\",\"job\":2,\"error\":\"elsewhere\"}\n";
  append_one(cache, 0, {1.0});
  const auto loaded = cache.load(1);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.at(0), std::vector<double>{1.0});
  EXPECT_TRUE(cache.load_errors().empty());
}

TEST(JsonlStore, ErrorRowsRoundTripAndAreServedSeparately) {
  TempDir dir("error-rows");
  const std::string nasty = "broke: \"quoted\", back\\slash,\nnewline\ttab";
  {
    store::JsonlStore cache(dir.path, 0x5555ULL);
    cache.append({0, {1.0}, ""});
    cache.append({1, {}, nasty});
  }
  store::JsonlStore cache(dir.path, 0x5555ULL);
  const auto loaded = cache.load(1);
  ASSERT_EQ(loaded.size(), 1u);  // the error row is not a result
  EXPECT_TRUE(loaded.count(0));
  const auto errors = cache.load_errors();
  ASSERT_EQ(errors.size(), 1u);
  ASSERT_TRUE(errors.count(1));
  EXPECT_EQ(errors.at(1), nasty);
}

TEST(JsonlStore, LaterRecordOfTheOtherKindWins) {
  TempDir dir("last-wins");
  store::JsonlStore cache(dir.path, 0x6666ULL);
  // A failed attempt recorded, then a successful re-run of the same
  // job: the success must win for both load() and load_errors().
  cache.append({3, {}, "flaky"});
  cache.append({3, {42.0}, ""});
  EXPECT_EQ(cache.load(1).size(), 1u);
  EXPECT_TRUE(cache.load_errors().empty());
}

TEST(JsonlStore, IgnoresAndPreservesForeignFiles) {
  // A store directory last written by a retired backend still holds its
  // database file. load() must skip it (so those jobs are recomputed
  // rather than failing the run) and appends must leave it alone.
  TempDir dir("foreign");
  store::JsonlStore cache(dir.path, 0x7777ULL);
  append_one(cache, 0, {1.0});
  const std::string foreign = dir.path + "/campaign.sqlite";
  std::ofstream(foreign) << "not a jsonl store\n";
  EXPECT_EQ(cache.load(1).size(), 1u);
  append_one(cache, 1, {2.0});
  EXPECT_TRUE(std::filesystem::exists(foreign));
  EXPECT_EQ(store::JsonlStore(dir.path, 0x7777ULL).load(1).size(), 2u);
  EXPECT_EQ(count_files(dir.path), 2u);
}

}  // namespace
}  // namespace bas
