#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "core/bernoulli_sampler.h"
#include "core/random.h"
#include "core/reservoir_sampler.h"
#include "core/sampler.h"
#include "gtest/gtest.h"

namespace robust_sampling {
namespace {

static_assert(StreamSampler<BernoulliSampler<int64_t>, int64_t>);
static_assert(StreamSampler<ReservoirSampler<int64_t>, int64_t>);
static_assert(StreamSampler<BernoulliSampler<double>, double>);

// ------------------------------------------------------------- Bernoulli --

TEST(BernoulliSamplerTest, PZeroKeepsNothing) {
  BernoulliSampler<int64_t> s(0.0, 1);
  for (int64_t i = 0; i < 1000; ++i) s.Insert(i);
  EXPECT_TRUE(s.sample().empty());
  EXPECT_EQ(s.stream_size(), 1000u);
  EXPECT_FALSE(s.last_kept());
}

TEST(BernoulliSamplerTest, POneKeepsEverythingInOrder) {
  BernoulliSampler<int64_t> s(1.0, 1);
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < 500; ++i) {
    s.Insert(i * 3);
    expected.push_back(i * 3);
    EXPECT_TRUE(s.last_kept());
  }
  EXPECT_EQ(s.sample(), expected);
}

TEST(BernoulliSamplerTest, SampleSizeConcentratesAroundNp) {
  constexpr size_t kN = 50000;
  constexpr double kP = 0.1;
  BernoulliSampler<int64_t> s(kP, 42);
  for (size_t i = 0; i < kN; ++i) s.Insert(static_cast<int64_t>(i));
  const double expected = kN * kP;
  const double sd = std::sqrt(kN * kP * (1 - kP));
  EXPECT_NEAR(static_cast<double>(s.sample().size()), expected, 6.0 * sd);
}

TEST(BernoulliSamplerTest, SampleIsSubsequenceOfStream) {
  BernoulliSampler<int64_t> s(0.3, 7);
  std::vector<int64_t> stream;
  for (int64_t i = 0; i < 2000; ++i) {
    s.Insert(i);
    stream.push_back(i);
  }
  // Sampled values appear in stream order (a subsequence of 0..1999).
  const auto& sample = s.sample();
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  for (int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 2000);
  }
}

TEST(BernoulliSamplerTest, LastKeptMatchesSampleGrowth) {
  BernoulliSampler<int64_t> s(0.5, 9);
  size_t prev = 0;
  for (int64_t i = 0; i < 300; ++i) {
    s.Insert(i);
    const bool grew = s.sample().size() > prev;
    EXPECT_EQ(grew, s.last_kept());
    prev = s.sample().size();
  }
}

TEST(BernoulliSamplerTest, ResetClearsSampleButKeepsP) {
  BernoulliSampler<int64_t> s(0.5, 11);
  for (int64_t i = 0; i < 100; ++i) s.Insert(i);
  s.Reset();
  EXPECT_TRUE(s.sample().empty());
  EXPECT_EQ(s.stream_size(), 0u);
  EXPECT_DOUBLE_EQ(s.p(), 0.5);
}

TEST(BernoulliSamplerTest, DeterministicGivenSeed) {
  BernoulliSampler<int64_t> a(0.4, 123), b(0.4, 123);
  for (int64_t i = 0; i < 1000; ++i) {
    a.Insert(i);
    b.Insert(i);
  }
  EXPECT_EQ(a.sample(), b.sample());
}

TEST(BernoulliSamplerDeathTest, InvalidPAborts) {
  EXPECT_DEATH(BernoulliSampler<int64_t>(1.5, 1), "Bernoulli p");
  EXPECT_DEATH(BernoulliSampler<int64_t>(-0.1, 1), "Bernoulli p");
}

// ------------------------------------------------------------- Reservoir --

TEST(ReservoirSamplerTest, FirstKElementsAlwaysKept) {
  ReservoirSampler<int64_t> s(10, 1);
  for (int64_t i = 0; i < 10; ++i) {
    s.Insert(i);
    EXPECT_TRUE(s.last_kept());
    EXPECT_FALSE(s.last_evicted().has_value());
  }
  std::vector<int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(s.sample(), expected);
}

TEST(ReservoirSamplerTest, SizeNeverExceedsK) {
  ReservoirSampler<int64_t> s(5, 2);
  for (int64_t i = 0; i < 1000; ++i) {
    s.Insert(i);
    EXPECT_LE(s.sample().size(), 5u);
  }
  EXPECT_EQ(s.sample().size(), 5u);
}

TEST(ReservoirSamplerTest, StreamShorterThanKKeepsAll) {
  ReservoirSampler<int64_t> s(100, 3);
  for (int64_t i = 0; i < 30; ++i) s.Insert(i);
  EXPECT_EQ(s.sample().size(), 30u);
}

TEST(ReservoirSamplerTest, EvictionReportedCorrectly) {
  ReservoirSampler<int64_t> s(3, 4);
  for (int64_t i = 0; i < 3; ++i) s.Insert(i);
  for (int64_t i = 3; i < 100; ++i) {
    const auto before = s.sample();
    s.Insert(i);
    if (s.last_kept()) {
      ASSERT_TRUE(s.last_evicted().has_value());
      // Evicted element was in the previous sample; new element is present.
      EXPECT_NE(std::find(before.begin(), before.end(), *s.last_evicted()),
                before.end());
      EXPECT_NE(std::find(s.sample().begin(), s.sample().end(), i),
                s.sample().end());
    } else {
      EXPECT_FALSE(s.last_evicted().has_value());
      EXPECT_EQ(before, s.sample());
    }
  }
}

TEST(ReservoirSamplerTest, EachElementEquallyLikelyInFinalSample) {
  // Distributional test: over many runs, P(element i in final sample) = k/n
  // for every i — the defining property of reservoir sampling.
  constexpr size_t kK = 4, kN = 20, kRuns = 30000;
  std::vector<int> counts(kN, 0);
  for (size_t run = 0; run < kRuns; ++run) {
    ReservoirSampler<int64_t> s(kK, 1000 + run);
    for (size_t i = 0; i < kN; ++i) s.Insert(static_cast<int64_t>(i));
    for (int64_t v : s.sample()) ++counts[static_cast<size_t>(v)];
  }
  const double expected = static_cast<double>(kRuns) * kK / kN;
  const double sd = std::sqrt(expected * (1.0 - static_cast<double>(kK) / kN));
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(counts[i], expected, 6.0 * sd) << "element " << i;
  }
}

TEST(ReservoirSamplerTest, KeepProbabilityIsKOverI) {
  // At stream position i > k the keep probability is k/i; estimate it for
  // one fixed position across many independent runs.
  constexpr size_t kK = 5;
  constexpr size_t kI = 50;
  constexpr size_t kRuns = 20000;
  size_t kept = 0;
  for (size_t run = 0; run < kRuns; ++run) {
    ReservoirSampler<int64_t> s(kK, 555 + run);
    for (size_t i = 1; i <= kI; ++i) s.Insert(static_cast<int64_t>(i));
    kept += s.last_kept();
  }
  const double p = static_cast<double>(kK) / kI;
  const double sd = std::sqrt(kRuns * p * (1 - p));
  EXPECT_NEAR(static_cast<double>(kept), kRuns * p, 6.0 * sd);
}

TEST(ReservoirSamplerTest, ResetClearsState) {
  ReservoirSampler<int64_t> s(4, 8);
  for (int64_t i = 0; i < 100; ++i) s.Insert(i);
  s.Reset();
  EXPECT_TRUE(s.sample().empty());
  EXPECT_EQ(s.stream_size(), 0u);
  EXPECT_EQ(s.capacity(), 4u);
}

TEST(ReservoirSamplerDeathTest, ZeroCapacityAborts) {
  EXPECT_DEATH(ReservoirSampler<int64_t>(0, 1), "capacity");
}

// Parameterized sweep: the reservoir holds min(k, n) elements for a range
// of (k, n) shapes.
class ReservoirMarginalTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(ReservoirMarginalTest, MeanInclusionCountIsK) {
  const auto [k, n] = GetParam();
  constexpr size_t kRuns = 2000;
  double total = 0.0;
  for (size_t run = 0; run < kRuns; ++run) {
    ReservoirSampler<int64_t> s(k, run * 31 + 1);
    for (size_t i = 0; i < n; ++i) s.Insert(static_cast<int64_t>(i));
    total += static_cast<double>(s.sample().size());
  }
  // Reservoir size is deterministic (= min(k, n)).
  EXPECT_DOUBLE_EQ(total / kRuns, static_cast<double>(std::min(k, n)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReservoirMarginalTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 10},
                      std::pair<size_t, size_t>{5, 5},
                      std::pair<size_t, size_t>{10, 1000},
                      std::pair<size_t, size_t>{64, 64},
                      std::pair<size_t, size_t>{100, 17}));

}  // namespace
}  // namespace robust_sampling
