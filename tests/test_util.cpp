// Unit tests for the util substrate: RNG determinism and distribution
// sanity, statistics accumulators, tables and CLI parsing.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace bas {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  util::Rng a(42);
  util::Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1);
  util::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, FirstUniformMatchesFreshGenerator) {
  // Bitwise, over structured and hashed seeds, both ends of the range
  // included.
  auto check = [](std::uint64_t seed) {
    const double fresh = util::Rng(seed).uniform();
    const double first = util::Rng::first_uniform(seed);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(first),
              std::bit_cast<std::uint64_t>(fresh))
        << "seed " << seed;
  };
  check(0);
  check(UINT64_MAX);
  for (std::uint64_t i = 0; i < 50000; ++i) {
    check(i);
    check(UINT64_MAX - i);
    check(util::Rng::mix(i));
  }
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(0.2, 1.0);
    ASSERT_GE(u, 0.2);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  util::Rng rng(99);
  util::Accumulator acc;
  for (int i = 0; i < 200000; ++i) {
    acc.add(rng.uniform(0.2, 1.0));
  }
  EXPECT_NEAR(acc.mean(), 0.6, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  util::Rng rng(3);
  std::map<int, int> histogram;
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    ++histogram[v];
  }
  EXPECT_EQ(histogram.size(), 4u);
  for (const auto& [value, count] : histogram) {
    EXPECT_GT(count, 2000) << "value " << value << " undersampled";
  }
}

TEST(Rng, BernoulliExtremes) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  util::Rng rng(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  util::Rng rng(8);
  util::Accumulator acc;
  for (int i = 0; i < 200000; ++i) {
    acc.add(rng.exponential(2.5));
  }
  EXPECT_NEAR(acc.mean(), 2.5, 0.05);
}

TEST(Rng, HashCombineOrderSensitive) {
  EXPECT_NE(util::Rng::hash_combine(1, 2), util::Rng::hash_combine(2, 1));
  EXPECT_EQ(util::Rng::hash_combine(1, 2), util::Rng::hash_combine(1, 2));
}

TEST(Accumulator, BasicMoments) {
  util::Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.add(v);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  util::Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Sample, QuantileInterpolation) {
  util::Sample s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Table, RendersAlignedColumns) {
  util::Table t({"name", "value"});
  t.add_row({"alpha", util::Table::num(1.5, 1)});
  t.add_row({"b", "22"});
  const std::string out = t.str();
  EXPECT_NE(out.find("alpha  1.5"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(util::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(util::Table::num(static_cast<long long>(42)), "42");
}

TEST(Cli, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--sets", "25", "--merge", "--seed=9"};
  util::Cli cli(5, argv,
                {{"sets", "10"}, {"merge", "false"}, {"seed", "1"}});
  EXPECT_EQ(cli.get_int("sets"), 25);
  EXPECT_TRUE(cli.get_flag("merge"));
  EXPECT_EQ(cli.get_u64("seed"), 9u);
}

TEST(Cli, ValueOptionHoldingZeroOrOneStillConsumesItsArgument) {
  // Regression: flag-ness comes from the declared default ("false" /
  // "true"), never from the current value, so --seed 7 must not be
  // misread as a bare flag just because the default is "1".
  const char* argv[] = {"prog", "--seed", "7", "--merge"};
  util::Cli cli(4, argv, {{"seed", "1"}, {"merge", "false"}});
  EXPECT_EQ(cli.get_u64("seed"), 7u);
  EXPECT_TRUE(cli.get_flag("merge"));
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  util::Cli cli(1, argv, {{"sets", "10"}});
  EXPECT_EQ(cli.get_int("sets"), 10);
}

TEST(Cli, UnknownOptionThrows) {
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(util::Cli(3, argv, {{"sets", "10"}}), std::invalid_argument);
}

TEST(Cli, HelpIsRecognisedButNeverAnOptionValue) {
  const char* argv[] = {"prog", "--help", "--sets", "3"};
  util::Cli cli(4, argv, {{"sets", "10"}});
  EXPECT_TRUE(cli.help_requested());
  EXPECT_EQ(cli.summary(), "--sets 3");
  EXPECT_FALSE(cli.has("help"));
  const char* plain[] = {"prog"};
  EXPECT_FALSE(util::Cli(1, plain, {{"sets", "10"}}).help_requested());
}

TEST(Cli, StrayArgumentThrows) {
  const char* argv[] = {"prog", "--sets", "1", "bogus"};
  try {
    util::Cli cli(4, argv, {{"sets", "10"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unexpected argument 'bogus'");
  }
}

// Parses `--OPTION VALUE` and returns the error the numeric getter
// throws on it, or "" when it accepts the value.
template <typename T>
std::string numeric_error(T (util::Cli::*get)(const std::string&) const,
                          const std::string& option, const char* value) {
  const std::string flag = "--" + option;
  const char* argv[] = {"prog", flag.c_str(), value};
  const util::Cli cli(3, argv, {{option, "1"}});
  try {
    (cli.*get)(option);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, IntegerOptionRejectsAFraction) {
  EXPECT_EQ(numeric_error(&util::Cli::get_int, "sets", "1.5"),
            "option --sets expects an integer, got '1.5'");
}

TEST(Cli, IntegerOptionRejectsText) {
  EXPECT_EQ(numeric_error(&util::Cli::get_int, "sets", "abc"),
            "option --sets expects an integer, got 'abc'");
}

TEST(Cli, IntegerOptionRejectsAValueOutsideInt) {
  // 2^32 + 1 would wrap to 1 through a cast; it must fail instead.
  EXPECT_EQ(numeric_error(&util::Cli::get_int, "sets", "4294967297"),
            "option --sets expects an integer in int range, got "
            "'4294967297'");
  EXPECT_EQ(numeric_error(&util::Cli::get_int, "sets", "-2147483649"),
            "option --sets expects an integer in int range, got "
            "'-2147483649'");
  EXPECT_EQ(numeric_error(&util::Cli::get_int, "sets", "2147483647"), "");
  EXPECT_EQ(numeric_error(&util::Cli::get_int, "sets", "-2147483648"), "");
}

TEST(Cli, SeedRejectsExponentNotation) {
  EXPECT_EQ(numeric_error(&util::Cli::get_u64, "seed", "1e3"),
            "option --seed expects a non-negative integer, got '1e3'");
}

TEST(Cli, SeedRejectsANegativeValue) {
  EXPECT_EQ(numeric_error(&util::Cli::get_u64, "seed", "-5"),
            "option --seed expects a non-negative integer, got '-5'");
}

TEST(Cli, NumericOptionsAcceptWholeNumbers) {
  EXPECT_EQ(numeric_error(&util::Cli::get_int, "sets", "-3"), "");
  EXPECT_EQ(numeric_error(&util::Cli::get_u64, "seed", "18446744073709551615"),
            "");
  EXPECT_EQ(numeric_error(&util::Cli::get_double, "horizon", "1e3"), "");
  EXPECT_EQ(numeric_error(&util::Cli::get_double, "horizon", "60s"),
            "option --horizon expects a number, got '60s'");
}

}  // namespace
}  // namespace bas
