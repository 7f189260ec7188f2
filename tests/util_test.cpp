// Tests for src/util: RNG determinism and distributions, running
// statistics, percentiles, table/CSV formatting, unit types.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/units.hpp"

namespace hetsched {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 6.5);
    ASSERT_GE(u, 5.0);
    ASSERT_LT(u, 6.5);
  }
}

TEST(RngTest, BelowCoversFullRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++counts[rng.below(10)];
  }
  for (int c : counts) {
    // Each bucket expects 10000; allow 5% deviation.
    EXPECT_NEAR(c, draws / 10, draws / 200);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(10);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMomentsAreSane) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.add(rng.normal());
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(RngTest, NormalWithParams) {
  Rng rng(12);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.add(rng.normal(10.0, 2.0));
  }
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.add(rng.exponential(0.5));  // mean 2
  }
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(14);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(16);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{7};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{7});
}

TEST(RngTest, SampleWithReplacementBounds) {
  Rng rng(17);
  const auto sample = rng.sample_with_replacement(5, 100);
  EXPECT_EQ(sample.size(), 100u);
  for (auto idx : sample) {
    EXPECT_LT(idx, 5u);
  }
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(18);
  Rng child = a.split();
  // The child stream should differ from the parent continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(19);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    all.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonZeroVarianceIsZero) {
  const std::vector<double> x{1, 1, 1, 1};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(TablePrinterTest, AlignmentAndContent) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", "1.00"});
  table.add_row({"b", "20.50"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| alpha | "), std::string::npos);
  EXPECT_NE(out.find("20.50 |"), std::string::npos);
  EXPECT_NE(out.find("+-"), std::string::npos);
}

TEST(TablePrinterTest, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::pct(-0.284), "-28.4%");
  EXPECT_EQ(TablePrinter::pct(0.02), "+2.0%");
}

TEST(CsvWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  // Embedded line breaks — including bare carriage returns — must be
  // quoted or the row splits when the file is read back.
  EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(CsvWriter::escape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(CsvWriter::escape("crlf\r\n"), "\"crlf\r\n\"");
}

TEST(CsvWriterTest, NumberRoundTripsDoubles) {
  for (double v : {1.0 / 3.0, 0.1, 1e-300, 12345.6789, -2.5e17}) {
    const std::string text = CsvWriter::number(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
  EXPECT_EQ(CsvWriter::number(2.0), "2");
}

TEST(StatsTest, RunningStatsRejectsNonFiniteValues) {
  RunningStats s;
  s.add(1.0);
  EXPECT_DEATH(s.add(std::nan("")), "precondition");
  EXPECT_DEATH(s.add(std::numeric_limits<double>::infinity()),
               "precondition");
  EXPECT_DEATH(s.add(-std::numeric_limits<double>::infinity()),
               "precondition");
}

TEST(UnitsTest, NanoJoulesArithmetic) {
  NanoJoules a(100.0), b(50.0);
  EXPECT_DOUBLE_EQ((a + b).value(), 150.0);
  EXPECT_DOUBLE_EQ((a - b).value(), 50.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 200.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 200.0);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_DOUBLE_EQ(a.joules(), 1e-7);
  EXPECT_TRUE(b < a);
}

}  // namespace
}  // namespace hetsched
