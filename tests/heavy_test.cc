#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/random.h"
#include "gtest/gtest.h"
#include "heavy/count_min.h"
#include "heavy/exact_counter.h"
#include "heavy/misra_gries.h"
#include "heavy/sample_heavy_hitters.h"
#include "heavy/space_saving.h"
#include "stream/generators.h"

namespace robust_sampling {
namespace {

std::vector<int64_t> SkewedStream() {
  // 1000 copies of element 1, 500 of 2, 100 of 3, plus 400 singletons.
  std::vector<int64_t> s;
  s.insert(s.end(), 1000, 1);
  s.insert(s.end(), 500, 2);
  s.insert(s.end(), 100, 3);
  for (int64_t i = 0; i < 400; ++i) s.push_back(1000 + i);
  // Deterministic shuffle.
  Rng rng(99);
  std::shuffle(s.begin(), s.end(), rng);
  return s;
}

// ----------------------------------------------------------------- Exact --

TEST(ExactCounterTest, CountsAndFrequencies) {
  ExactCounter c;
  for (int64_t v : {1, 1, 2, 3, 1}) c.Insert(v);
  EXPECT_EQ(c.Count(1), 3u);
  EXPECT_EQ(c.Count(2), 1u);
  EXPECT_EQ(c.Count(9), 0u);
  EXPECT_DOUBLE_EQ(c.EstimateFrequency(1), 0.6);
  EXPECT_DOUBLE_EQ(c.EstimateFrequency(9), 0.0);
  EXPECT_EQ(c.StreamSize(), 5u);
}

TEST(ExactCounterTest, HeavyHittersSortedByFrequency) {
  ExactCounter c;
  for (int64_t v : SkewedStream()) c.Insert(v);
  const auto hh = c.HeavyHitters(0.04);
  ASSERT_EQ(hh.size(), 3u);
  EXPECT_EQ(hh[0].element, 1);
  EXPECT_EQ(hh[1].element, 2);
  EXPECT_EQ(hh[2].element, 3);
  EXPECT_GE(hh[0].frequency, hh[1].frequency);
}

TEST(ExactCounterTest, EmptyStreamHasNoHitters) {
  ExactCounter c;
  EXPECT_TRUE(c.HeavyHitters(0.1).empty());
}

// ----------------------------------------------------------- Misra-Gries --

TEST(MisraGriesTest, NeverOverestimates) {
  MisraGries mg(10);
  ExactCounter exact;
  for (int64_t v : SkewedStream()) {
    mg.Insert(v);
    exact.Insert(v);
  }
  for (int64_t x : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{1000}}) {
    EXPECT_LE(mg.EstimateFrequency(x), exact.EstimateFrequency(x) + 1e-12);
  }
}

TEST(MisraGriesTest, ErrorBoundedByOneOverKPlusOne) {
  MisraGries mg(19);  // error < n/(k+1) = 5% of n
  ExactCounter exact;
  for (int64_t v : SkewedStream()) {
    mg.Insert(v);
    exact.Insert(v);
  }
  const double bound = 1.0 / 20.0;
  for (int64_t x = 1; x <= 3; ++x) {
    EXPECT_GE(mg.EstimateFrequency(x),
              exact.EstimateFrequency(x) - bound - 1e-12);
  }
}

TEST(MisraGriesTest, SpaceNeverExceedsK) {
  MisraGries mg(7);
  for (int64_t v : UniformIntStream(10000, 1000, 5)) {
    mg.Insert(v);
    EXPECT_LE(mg.SpaceItems(), 7u);
  }
}

TEST(MisraGriesTest, FindsTheMajorityElement) {
  MisraGries mg(1);
  std::vector<int64_t> s;
  s.insert(s.end(), 600, 42);
  s.insert(s.end(), 400, 7);
  Rng rng(3);
  std::shuffle(s.begin(), s.end(), rng);
  for (int64_t v : s) mg.Insert(v);
  const auto hh = mg.HeavyHitters(0.05);
  ASSERT_EQ(hh.size(), 1u);
  EXPECT_EQ(hh[0].element, 42);
}

// ----------------------------------------------------------- SpaceSaving --

TEST(SpaceSavingTest, NeverUnderestimates) {
  SpaceSaving ss(10);
  ExactCounter exact;
  for (int64_t v : SkewedStream()) {
    ss.Insert(v);
    exact.Insert(v);
  }
  for (int64_t x : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    // Tracked elements overestimate (untracked report 0).
    if (ss.EstimateFrequency(x) > 0) {
      EXPECT_GE(ss.EstimateFrequency(x),
                exact.EstimateFrequency(x) - 1e-12);
    }
  }
}

TEST(SpaceSavingTest, OverestimateBoundedByNOverK) {
  SpaceSaving ss(20);
  ExactCounter exact;
  for (int64_t v : SkewedStream()) {
    ss.Insert(v);
    exact.Insert(v);
  }
  for (int64_t x : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    EXPECT_LE(ss.EstimateFrequency(x),
              exact.EstimateFrequency(x) + 1.0 / 20.0 + 1e-12);
  }
}

TEST(SpaceSavingTest, ExactlyKCountersRetained) {
  SpaceSaving ss(5);
  for (int64_t v : UniformIntStream(1000, 100, 7)) ss.Insert(v);
  EXPECT_EQ(ss.SpaceItems(), 5u);
}

TEST(SpaceSavingTest, HeavyElementAlwaysTracked) {
  SpaceSaving ss(10);
  for (int64_t v : SkewedStream()) ss.Insert(v);
  EXPECT_GT(ss.EstimateFrequency(1), 0.0);
  const auto hh = ss.HeavyHitters(0.3);
  ASSERT_FALSE(hh.empty());
  EXPECT_EQ(hh[0].element, 1);
}

// -------------------------------------------------------------- CountMin --

TEST(CountMinTest, NeverUnderestimates) {
  CountMinSketch cm(256, 4, 11);
  ExactCounter exact;
  for (int64_t v : SkewedStream()) {
    cm.Insert(v);
    exact.Insert(v);
  }
  for (int64_t x = 1; x <= 3; ++x) {
    EXPECT_GE(cm.EstimateCount(x), exact.Count(x));
  }
}

TEST(CountMinTest, AccurateOnSkewedStreamWithAmpleWidth) {
  CountMinSketch cm(2048, 5, 13);
  ExactCounter exact;
  for (int64_t v : SkewedStream()) {
    cm.Insert(v);
    exact.Insert(v);
  }
  for (int64_t x = 1; x <= 3; ++x) {
    EXPECT_NEAR(cm.EstimateFrequency(x), exact.EstimateFrequency(x), 0.01);
  }
}

TEST(CountMinTest, BucketsAreStablePerRow) {
  CountMinSketch cm(64, 3, 17);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cm.Bucket(r, 12345), cm.Bucket(r, 12345));
    EXPECT_LT(cm.Bucket(r, 12345), 64u);
  }
}

TEST(CountMinTest, HeavyHittersFindsPlantedElement) {
  CountMinSketch cm(1024, 4, 19);
  for (int64_t v : SkewedStream()) cm.Insert(v);
  const auto hh = cm.HeavyHitters(0.3);
  ASSERT_FALSE(hh.empty());
  EXPECT_EQ(hh[0].element, 1);
}

// A newcomer at a full candidate map evicts the lowest count, ties going
// to the largest element; counts that rose since the last eviction are
// seen.
TEST(CountMinTest, EvictsTheLowestCountAndTheLargestElementAmongTies) {
  CountMinSketch cm(1024, 4, 29, /*max_candidates=*/3);
  auto candidates = [&cm] {
    std::vector<int64_t> out;
    for (const auto& hit : cm.HeavyHitters(0.0)) out.push_back(hit.element);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int64_t x : {5, 5, 10, 30}) cm.Insert(x);  // 5:2 10:1 30:1
  cm.Insert(20);                                  // 10 and 30 tie: 30 goes
  EXPECT_EQ(candidates(), (std::vector<int64_t>{5, 10, 20}));
  cm.Insert(40);                                  // 10 and 20 tie: 20 goes
  EXPECT_EQ(candidates(), (std::vector<int64_t>{5, 10, 40}));
  cm.Insert(10);                                  // 5:2 10:2 40:1
  cm.Insert(1);                                   // 40 alone at 1: it goes
  EXPECT_EQ(candidates(), (std::vector<int64_t>{1, 5, 10}));
  cm.Insert(1);                                   // 1:2 5:2 10:2
  cm.Insert(7);                                   // all tie at 2: 10 goes
  EXPECT_EQ(candidates(), (std::vector<int64_t>{1, 5, 7}));
}

TEST(CountMinTest, AdaptiveCollisionStuffingInflatesTarget) {
  // The Hardt–Woodruff-style vulnerability, concretely: an adversary that
  // can query the sketch finds elements colliding with a target in every
  // row and inserts only those; the target's estimate grows although it
  // was never inserted.
  CountMinSketch cm(32, 2, 23);
  const int64_t target = 7;
  // Find colliders by brute force using the public Bucket() accessor —
  // exactly what an adaptive adversary observing estimates could infer.
  std::vector<int64_t> colliders;
  for (int64_t x = 1000; colliders.size() < 50 && x < 2000000; ++x) {
    bool collides_everywhere = true;
    for (size_t r = 0; r < cm.depth(); ++r) {
      if (cm.Bucket(r, x) != cm.Bucket(r, target)) {
        collides_everywhere = false;
        break;
      }
    }
    if (collides_everywhere) colliders.push_back(x);
  }
  ASSERT_FALSE(colliders.empty());
  for (int round = 0; round < 20; ++round) {
    for (int64_t c : colliders) cm.Insert(c);
  }
  // Target was never inserted, yet its estimated frequency is large.
  EXPECT_GT(cm.EstimateFrequency(target), 0.5);
}

// --------------------------------------------------------------- Sampled --

TEST(SampleHeavyHittersTest, MatchesExactOnSkewedStream) {
  SampleHeavyHitters shh =
      SampleHeavyHitters::ForAccuracy(0.15, 0.05, 1 << 20, 29);
  ExactCounter exact;
  for (int64_t v : SkewedStream()) {
    shh.Insert(v);
    exact.Insert(v);
  }
  const double alpha = 0.25;
  const auto report = shh.Report(alpha, 0.15);
  // Element 1 (frequency 0.5) must be reported.
  ASSERT_FALSE(report.empty());
  std::set<int64_t> reported;
  for (const auto& h : report) reported.insert(h.element);
  EXPECT_TRUE(reported.count(1));
  // Nothing with true frequency <= alpha - eps = 0.10 may be reported.
  for (const auto& h : report) {
    EXPECT_GT(exact.EstimateFrequency(h.element), alpha - 0.15);
  }
}

TEST(SampleHeavyHittersTest, FrequencyEstimateTracksExact) {
  SampleHeavyHitters shh(2000, 31);
  ExactCounter exact;
  for (int64_t v : ZipfIntStream(50000, 1000, 1.3, 33)) {
    shh.Insert(v);
    exact.Insert(v);
  }
  for (int64_t x = 1; x <= 5; ++x) {
    EXPECT_NEAR(shh.EstimateFrequency(x), exact.EstimateFrequency(x), 0.05);
  }
}

TEST(SampleHeavyHittersTest, SpaceEqualsReservoirCapacity) {
  SampleHeavyHitters shh(100, 35);
  for (int64_t v : UniformIntStream(10000, 50, 37)) shh.Insert(v);
  EXPECT_EQ(shh.SpaceItems(), 100u);
}

// --------------------------------------------- Cross-algorithm contracts --

class AllEstimatorsTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<FrequencyEstimator> Make() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<ExactCounter>();
      case 1:
        return std::make_unique<MisraGries>(50);
      case 2:
        return std::make_unique<SpaceSaving>(50);
      case 3:
        return std::make_unique<CountMinSketch>(1024, 4, 41);
      default:
        return std::make_unique<SampleHeavyHitters>(3000, 43);
    }
  }
};

TEST_P(AllEstimatorsTest, MajorityElementAlwaysReported) {
  auto est = Make();
  std::vector<int64_t> s;
  s.insert(s.end(), 6000, 5);
  for (int64_t i = 0; i < 4000; ++i) s.push_back(100 + i % 500);
  Rng rng(45);
  std::shuffle(s.begin(), s.end(), rng);
  for (int64_t v : s) est->Insert(v);
  const auto hh = est->HeavyHitters(0.3);
  ASSERT_FALSE(hh.empty()) << est->Name();
  EXPECT_EQ(hh[0].element, 5) << est->Name();
  EXPECT_NEAR(hh[0].frequency, 0.6, 0.1) << est->Name();
}

TEST_P(AllEstimatorsTest, FrequenciesAreInUnitInterval) {
  auto est = Make();
  for (int64_t v : UniformIntStream(5000, 100, 47)) est->Insert(v);
  for (int64_t x = 1; x <= 100; ++x) {
    const double f = est->EstimateFrequency(x);
    EXPECT_GE(f, 0.0) << est->Name();
    EXPECT_LE(f, 1.0) << est->Name();
  }
}

TEST_P(AllEstimatorsTest, StreamSizeTracked) {
  auto est = Make();
  for (int64_t i = 0; i < 777; ++i) est->Insert(i % 13);
  EXPECT_EQ(est->StreamSize(), 777u);
}

INSTANTIATE_TEST_SUITE_P(Estimators, AllEstimatorsTest,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace robust_sampling
