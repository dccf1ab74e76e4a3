#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "harness/table.h"
#include "harness/trial_runner.h"

namespace robust_sampling {
namespace {

TEST(MarkdownTableTest, RendersHeaderSeparatorAndRows) {
  MarkdownTable t({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("|-----|----|"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(MarkdownTableTest, PrintWritesToStream) {
  MarkdownTable t({"x"});
  t.AddRow({"y"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_EQ(os.str(), t.ToString());
}

TEST(MarkdownTableDeathTest, MismatchedRowAborts) {
  MarkdownTable t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only one"}), "row width");
}

TEST(FormattersTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.123456, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(FormattersTest, FormatScientific) {
  EXPECT_EQ(FormatScientific(12345.0, 2), "1.23e+04");
}

TEST(FormattersTest, FormatBool) {
  EXPECT_EQ(FormatBool(true), "yes");
  EXPECT_EQ(FormatBool(false), "no");
}

TEST(TrialRunnerTest, AggregatesDeterministically) {
  auto trial = [](uint64_t seed) {
    return static_cast<double>(seed % 100);
  };
  const auto a = RunTrials(50, 7, trial);
  const auto b = RunTrials(50, 7, trial);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.values.size(), 50u);
}

TEST(TrialRunnerTest, StatsAreConsistent) {
  size_t counter = 0;
  auto trial = [&counter](uint64_t) {
    return static_cast<double>(counter++);
  };
  const auto stats = RunTrials(5, 1, trial);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_DOUBLE_EQ(stats.mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.median, 2.0);
}

TEST(TrialRunnerTest, FractionAtMost) {
  size_t counter = 0;
  auto trial = [&counter](uint64_t) {
    return static_cast<double>(counter++);
  };
  const auto stats = RunTrials(10, 1, trial);  // values 0..9
  EXPECT_DOUBLE_EQ(stats.FractionAtMost(4.0), 0.5);
  EXPECT_DOUBLE_EQ(stats.FractionAtLeast(8.0), 0.2);
  EXPECT_DOUBLE_EQ(stats.FractionAtMost(100.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.FractionAtMost(-1.0), 0.0);
}

TEST(TrialRunnerTest, QuantileOfTrialValues) {
  size_t counter = 0;
  auto trial = [&counter](uint64_t) {
    return static_cast<double>(counter++);
  };
  const auto stats = RunTrials(10, 1, trial);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.1), 0.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(1.0), 9.0);
}

TEST(TrialRunnerTest, SeedsAreDistinctAcrossTrials) {
  std::vector<uint64_t> seeds;
  auto trial = [&seeds](uint64_t seed) {
    seeds.push_back(seed);
    return 0.0;
  };
  RunTrials(100, 3, trial);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

}  // namespace
}  // namespace robust_sampling
