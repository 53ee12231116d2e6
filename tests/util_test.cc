#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/config.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace a3cs {
namespace {

// ----------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  util::Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRange) {
  util::Rng rng(3);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(7))];
  for (int c : counts) EXPECT_GT(c, 700);  // ~1000 each
}

TEST(Rng, NormalMoments) {
  util::Rng rng(5);
  util::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParams) {
  util::Rng rng(5);
  util::RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(3.0, 0.5));
  EXPECT_NEAR(s.mean(), 3.0, 0.02);
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(Rng, GumbelMeanIsEulerGamma) {
  util::Rng rng(9);
  util::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.gumbel());
  EXPECT_NEAR(s.mean(), 0.5772, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  util::Rng rng(13);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalFollowsWeights) {
  util::Rng rng(17);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(rng.categorical(w))];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(Rng, CategoricalRejectsInvalid) {
  util::Rng rng(1);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, SplitStreamsAreIndependent) {
  util::Rng parent(21);
  util::Rng c1 = parent.split();
  util::Rng c2 = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

// --------------------------------------------------------------- Stats ----

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  util::RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), util::mean(xs), 1e-12);
  EXPECT_NEAR(s.stddev(), util::stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  util::RunningStats s;
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(util::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(util::stddev({}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(util::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(util::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(util::median({5.0}), 5.0);
}

TEST(Ema, ConvergesToConstant) {
  util::Ema ema(0.25);
  EXPECT_FALSE(ema.initialized());
  for (int i = 0; i < 100; ++i) ema.update(2.0);
  EXPECT_NEAR(ema.value(), 2.0, 1e-9);
}

TEST(Ema, FirstValueInitializes) {
  util::Ema ema(0.1);
  EXPECT_DOUBLE_EQ(ema.update(5.0), 5.0);
  EXPECT_TRUE(ema.initialized());
}

// ----------------------------------------------------------------- Csv ----

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(util::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(util::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(util::CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream oss;
  util::CsvWriter csv(oss, {"a", "b"});
  csv.row({"1", "x,y"});
  EXPECT_EQ(oss.str(), "a,b\n1,\"x,y\"\n");
}

TEST(Csv, RejectsWrongWidth) {
  std::ostringstream oss;
  util::CsvWriter csv(oss, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::runtime_error);
}

TEST(Csv, RowEscapesCommaCells) {
  std::ostringstream oss;
  util::CsvWriter csv(oss, {"name", "value"});
  csv.row({"a,b,c", "1"});
  EXPECT_EQ(oss.str(), "name,value\n\"a,b,c\",1\n");
}

TEST(Csv, RowEscapesQuoteCells) {
  std::ostringstream oss;
  util::CsvWriter csv(oss, {"name", "value"});
  csv.row({"he said \"hi\"", "2"});
  EXPECT_EQ(oss.str(), "name,value\n\"he said \"\"hi\"\"\",2\n");
}

TEST(Csv, RowEscapesNewlineCells) {
  std::ostringstream oss;
  util::CsvWriter csv(oss, {"name", "value"});
  csv.row({"two\nlines", "3"});
  EXPECT_EQ(oss.str(), "name,value\n\"two\nlines\",3\n");
}

TEST(Csv, HeaderCellsAreEscapedToo) {
  std::ostringstream oss;
  util::CsvWriter csv(oss, {"plain", "with,comma"});
  EXPECT_EQ(oss.str(), "plain,\"with,comma\"\n");
}

TEST(Csv, MixedSpecialsInOneRow) {
  std::ostringstream oss;
  util::CsvWriter csv(oss, {"a", "b", "c"});
  csv.row({"x,y", "q\"z", "n\nm"});
  EXPECT_EQ(oss.str(), "a,b,c\n\"x,y\",\"q\"\"z\",\"n\nm\"\n");
}

// --------------------------------------------------------------- Table ----

TEST(Table, AlignsColumns) {
  util::TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  std::ostringstream oss;
  t.print(oss);
  const std::string s = oss.str();
  EXPECT_NE(s.find("| name        | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer-name | 2     |"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(util::TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(util::TextTable::num(12345.6), "12346");
  EXPECT_EQ(util::TextTable::num(0.0), "0.0");
}

TEST(Table, RejectsWrongWidth) {
  util::TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::runtime_error);
}

// -------------------------------------------------------------- Config ----

TEST(Config, EnvIntParsesAndFallsBack) {
  ::setenv("A3CS_TEST_INT", "123", 1);
  EXPECT_EQ(util::env_int("A3CS_TEST_INT", 7), 123);
  EXPECT_EQ(util::env_int("A3CS_TEST_MISSING", 7), 7);
  ::setenv("A3CS_TEST_INT", "garbage", 1);
  EXPECT_EQ(util::env_int("A3CS_TEST_INT", 7), 7);
  ::unsetenv("A3CS_TEST_INT");
}

TEST(Config, EnvDoubleParsesAndFallsBack) {
  ::setenv("A3CS_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(util::env_double("A3CS_TEST_DBL", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(util::env_double("A3CS_TEST_MISSING", 1.0), 1.0);
  ::unsetenv("A3CS_TEST_DBL");
}

TEST(Config, EnvStringFallsBack) {
  EXPECT_EQ(util::env_string("A3CS_TEST_MISSING", "dflt"), "dflt");
}

TEST(Config, ScaledStepsRespectsMinimum) {
  EXPECT_GE(util::scaled_steps(1000, 64), 64);
  EXPECT_GE(util::scaled_steps(1, 64), 64);
}

TEST(BenchEnv, StrictValidation) {
  ASSERT_TRUE(util::validate_bench_env().empty());

  setenv("A3CS_SCALE", "abc", 1);
  auto errors = util::validate_bench_env();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("A3CS_SCALE"), std::string::npos);

  setenv("A3CS_SCALE", "0", 1);
  errors = util::validate_bench_env();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("must be > 0"), std::string::npos);

  // Trailing garbage must not silently truncate.
  setenv("A3CS_SCALE", "0.5x", 1);
  EXPECT_EQ(util::validate_bench_env().size(), 1u);

  setenv("A3CS_SCALE", "0.5", 1);
  setenv("A3CS_EVAL_EPISODES", "-3", 1);
  errors = util::validate_bench_env();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("A3CS_EVAL_EPISODES"), std::string::npos);

  setenv("A3CS_EVAL_EPISODES", "2", 1);
  EXPECT_TRUE(util::validate_bench_env().empty());

  unsetenv("A3CS_SCALE");
  unsetenv("A3CS_EVAL_EPISODES");
}

// ------------------------------------------------------------- Logging ----

TEST(Logging, CheckMacroThrowsWithMessage) {
  try {
    A3CS_CHECK(1 == 2, "impossible");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("impossible"), std::string::npos);
  }
}

TEST(Logging, CheckMacroPassesSilently) {
  A3CS_CHECK(true, "fine");  // must not throw
}

TEST(Logging, Iso8601NowShape) {
  const std::string ts = util::iso8601_now();
  ASSERT_EQ(ts.size(), 23u);  // YYYY-MM-DDTHH:MM:SS.mmm
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], '.');
  for (const std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u, 14u,
                              15u, 17u, 18u, 20u, 21u, 22u}) {
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(ts[i]))) << i;
  }
}

}  // namespace
}  // namespace a3cs
