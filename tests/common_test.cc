// Unit tests for the common substrate: RNG determinism and distribution
// sanity, streaming statistics, table/plot rendering.
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/ascii_plot.h"
#include "common/lru_map.h"
#include "common/parse_num.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "gtest/gtest.h"

namespace coc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.NextDouble());
  EXPECT_NEAR(s.Mean(), 0.5, 0.01);
}

TEST(Rng, NextBoundedCoversRangeUniformly) {
  Rng rng(3);
  constexpr std::uint64_t kBound = 7;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBound)];
  for (auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / double(kBound),
                5 * std::sqrt(kDraws / double(kBound)));
  }
}

TEST(Rng, NextBoundedZeroAndOne) {
  Rng rng(5);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats s;
  const double rate = 0.25;
  for (int i = 0; i < 200000; ++i) s.Add(rng.NextExponential(rate));
  EXPECT_NEAR(s.Mean(), 1.0 / rate, 0.05);
  // Exponential variance = 1/rate^2.
  EXPECT_NEAR(s.Variance(), 1.0 / (rate * rate), 0.5);
}

TEST(Rng, ExponentialAlwaysPositiveFinite) {
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.NextExponential(1e-4);
    EXPECT_GT(x, 0.0);
    EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(23);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 10;
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Add(3.0);
  const double mean = a.Mean();
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.Mean(), mean);
  RunningStats c;
  c.Merge(a);
  EXPECT_DOUBLE_EQ(c.Mean(), mean);
}

TEST(Histogram, QuantilesOfUniformStream) {
  Histogram h(0, 1, 100);
  Rng rng(29);
  for (int i = 0; i < 100000; ++i) h.Add(rng.NextDouble());
  EXPECT_NEAR(h.Quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.Quantile(0.9), 0.9, 0.02);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0, 10, 10);
  h.Add(-5);
  h.Add(50);
  EXPECT_EQ(h.BinValue(0), 1u);
  EXPECT_EQ(h.BinValue(9), 1u);
  EXPECT_EQ(h.Total(), 2u);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"a", "long_header", "c"});
  t.AddRow({"1", "2", "3"});
  t.AddRow({"wide_cell", "x", "y"});
  EXPECT_EQ(t.RowCount(), 2u);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("wide_cell"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  Table t({"x"});
  t.AddRow({"a,b"});
  t.AddRow({"he said \"hi\""});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, ShortRowIsPadded) {
  Table t({"a", "b"});
  t.AddRow({"only"});
  EXPECT_NE(t.ToString().find("only"), std::string::npos);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(3.14), "3.14");
  EXPECT_EQ(FormatDouble(5.0), "5");
  EXPECT_EQ(FormatDouble(0.5, 3), "0.5");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
}

TEST(AsciiPlot, RendersFinitePointsOnly) {
  PlotSeries s{"model", '*',
               {{0, 1}, {1, 2}, {2, std::numeric_limits<double>::infinity()}}};
  const std::string out = RenderAsciiPlot({s}, 40, 10, "title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlot, EmptyInput) {
  EXPECT_EQ(RenderAsciiPlot({}, 40, 10), "(no finite points)\n");
}

/// Keys of `m` from most to least recent.
std::vector<int> Order(const LruMap<int, std::string>& m) {
  std::vector<int> keys;
  for (const auto& [key, value] : m) keys.push_back(key);
  return keys;
}

TEST(LruMap, FindTouchesOnHitOnly) {
  LruMap<int, std::string> m(3);
  m.Insert(1, "a");
  m.Insert(2, "b");
  m.Insert(3, "c");
  EXPECT_EQ(Order(m), (std::vector<int>{3, 2, 1}));
  ASSERT_NE(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(1), "a");
  EXPECT_EQ(Order(m), (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(m.Find(7), nullptr);  // a miss leaves the order alone
  EXPECT_EQ(Order(m), (std::vector<int>{1, 3, 2}));
  // Re-inserting a resident key replaces its value and touches it.
  EXPECT_EQ(m.Insert(2, "B"), 0u);
  EXPECT_EQ(Order(m), (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(*m.Find(2), "B");
  EXPECT_EQ(m.size(), 3u);
}

TEST(LruMap, InsertPastCapacityEvictsFromTheBackAndCounts) {
  LruMap<int, std::string> m(2);
  EXPECT_EQ(m.Insert(1, "a"), 0u);
  EXPECT_EQ(m.Insert(2, "b"), 0u);
  m.Find(1);  // 2 is now the least recent
  EXPECT_EQ(m.Insert(3, "c"), 1u);
  EXPECT_EQ(Order(m), (std::vector<int>{3, 1}));
  EXPECT_EQ(m.Find(2), nullptr);
  EXPECT_EQ(m.Insert(4, "d"), 1u);
  EXPECT_EQ(Order(m), (std::vector<int>{4, 3}));
  EXPECT_EQ(m.size(), 2u);
}

TEST(LruMap, CapacityZeroIsUnbounded) {
  LruMap<int, std::string> m(0);
  for (int k = 0; k < 1000; ++k) EXPECT_EQ(m.Insert(k, "v"), 0u);
  EXPECT_EQ(m.size(), 1000u);
  ASSERT_NE(m.Find(0), nullptr);
  EXPECT_EQ(Order(m).front(), 0);
}

TEST(ParseNum, Int64ConsumesTheWholeToken) {
  EXPECT_EQ(ParseFullInt64("42"), 42);
  EXPECT_EQ(ParseFullInt64("-7"), -7);
  EXPECT_EQ(ParseFullInt64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  // Trailing junk, overflow and empty input all fail, and so does a leading
  // space or '+' (std::stoll would skip both).
  for (const char* bad : {"12x", "1.5", "3 ", "0x10", "9223372036854775808",
                          "-9223372036854775809", "", "x", "-", " 8", "+8",
                          "\t8", "\n8"}) {
    EXPECT_EQ(ParseFullInt64(bad), std::nullopt) << "'" << bad << "'";
  }
  // The int and double forms share the contract.
  EXPECT_EQ(ParseFullInt("-7"), -7);
  for (const char* bad : {"", " 8", "+8", "8 ", "2147483648"}) {
    EXPECT_EQ(ParseFullInt(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseFullDouble("-2.5"), -2.5);
  EXPECT_EQ(ParseFullDouble("1e+4"), 1e4);  // an exponent sign stays valid
  EXPECT_EQ(ParseFullDouble("1e-4"), 1e-4);
  for (const char* bad : {"", " 1e-4", "+1e-4", "\t1", "1e-4 ", "1e-4x"}) {
    EXPECT_EQ(ParseFullDouble(bad), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace coc
