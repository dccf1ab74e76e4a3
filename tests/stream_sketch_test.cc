// Tests for the pipeline's type-erased sketch layer: the StreamSketch<T>
// wrapper, the string-keyed SketchRegistry, the batched-insertion hot
// paths (InsertBatch must match per-element insertion in distribution),
// and the new Merge operations on the core samplers and sketches.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/bernoulli_sampler.h"
#include "core/reservoir_sampler.h"
#include "core/robust_sample.h"
#include "gtest/gtest.h"
#include "heavy/count_min.h"
#include "heavy/exact_counter.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "stream/generators.h"

namespace robust_sampling {
namespace {

TEST(SketchRegistryTest, GlobalRegistryKnowsAllBuiltinKinds) {
  const auto kinds = SketchRegistry<int64_t>::Global().Kinds();
  for (const char* kind :
       {"robust_sample", "reservoir", "bernoulli", "kll", "count_min",
        "misra_gries", "space_saving"}) {
    EXPECT_TRUE(std::count(kinds.begin(), kinds.end(), kind) == 1)
        << "missing kind: " << kind;
  }
}

TEST(SketchRegistryTest, CreatesEveryKindAndIngestsBatches) {
  const auto stream = UniformIntStream(5000, 1 << 16, 21);
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    SketchConfig config;
    config.kind = kind;
    config.probability = 0.05;  // used by "bernoulli" only
    config.seed = 7;
    StreamSketch<int64_t> sketch =
        SketchRegistry<int64_t>::Global().Create(config);
    ASSERT_TRUE(sketch.valid()) << kind;
    sketch.InsertBatch(stream);
    EXPECT_EQ(sketch.StreamSize(), stream.size()) << kind;
    EXPECT_GT(sketch.SpaceItems(), 0u) << kind;
    EXPECT_FALSE(sketch.Name().empty()) << kind;
  }
}

TEST(SketchRegistryDeathTest, UnknownKindAborts) {
  SketchConfig config;
  config.kind = "no_such_sketch";
  EXPECT_DEATH(SketchRegistry<int64_t>::Global().Create(config),
               "unknown sketch kind");
}

TEST(SketchRegistryTest, CustomKindCanBeRegistered) {
  SketchRegistry<int64_t> registry;  // empty, not the global one
  registry.Register("my_reservoir",
                    [](const SketchConfig& c, uint64_t seed) {
                      return StreamSketch<int64_t>::Wrap(
                          ReservoirAdapter<int64_t>(
                              ReservoirSampler<int64_t>(c.capacity, seed)));
                    });
  EXPECT_TRUE(registry.Contains("my_reservoir"));
  SketchConfig config;
  config.kind = "my_reservoir";
  config.capacity = 32;
  auto sketch = registry.Create(config, 5);
  for (int64_t i = 0; i < 100; ++i) sketch.Insert(i);
  EXPECT_EQ(sketch.StreamSize(), 100u);
  EXPECT_EQ(sketch.SpaceItems(), 32u);
}

TEST(StreamSketchTest, TryAsDowncastsToTheWrappedAdapter) {
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 16;
  auto sketch = SketchRegistry<int64_t>::Global().Create(config);
  EXPECT_NE(sketch.TryAs<ReservoirAdapter<int64_t>>(), nullptr);
  EXPECT_EQ(sketch.TryAs<RobustSampleAdapter<int64_t>>(), nullptr);
}

TEST(StreamSketchTest, CopyIsDeep) {
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 8;
  auto a = SketchRegistry<int64_t>::Global().Create(config);
  for (int64_t i = 0; i < 100; ++i) a.Insert(i);
  StreamSketch<int64_t> b = a;
  for (int64_t i = 0; i < 50; ++i) b.Insert(i);
  EXPECT_EQ(a.StreamSize(), 100u);
  EXPECT_EQ(b.StreamSize(), 150u);
}

TEST(StreamSketchDeathTest, MergingDifferentKindsAborts) {
  SketchConfig reservoir_config;
  reservoir_config.kind = "reservoir";
  reservoir_config.capacity = 16;
  SketchConfig kll_config;
  kll_config.kind = "kll";
  auto a = SketchRegistry<int64_t>::Global().Create(reservoir_config);
  auto b = SketchRegistry<int64_t>::Global().Create(kll_config);
  EXPECT_DEATH(a.MergeFrom(b), "different kinds");
}

// The sampler kinds answer Quantile from their sample under
// KllSketch::Quantile's contract: q lies in [0, 1], and NaN fails the
// check. q = 0 and q = 1 answer the sample's min and max.
TEST(SampleQuantileDeathTest, QOutsideTheUnitIntervalAborts) {
  std::vector<int64_t> stream(1000);
  std::iota(stream.begin(), stream.end(), 1);
  for (const char* kind : {"reservoir", "robust_sample", "bernoulli"}) {
    SketchConfig config;
    config.kind = kind;
    config.capacity = 64;       // reservoir
    config.probability = 0.25;  // bernoulli
    config.seed = 7;
    auto sketch = SketchRegistry<int64_t>::Global().Create(config);
    sketch.InsertBatch(stream);
    const auto sample = sketch.SampleView().elements;
    ASSERT_FALSE(sample.empty()) << kind;
    const auto [lo, hi] = std::minmax_element(sample.begin(), sample.end());
    EXPECT_EQ(sketch.Quantile(0.0), static_cast<double>(*lo)) << kind;
    EXPECT_EQ(sketch.Quantile(1.0), static_cast<double>(*hi)) << kind;
    for (const double q : {std::numeric_limits<double>::quiet_NaN(), 1.5,
                           -0.1}) {
      EXPECT_DEATH(sketch.Quantile(q), "quantile q outside") << kind;
    }
  }
}

// --- batched insertion: exact bookkeeping -------------------------------

TEST(ReservoirBatchTest, FillPhaseAndSizesAreExact) {
  ReservoirSampler<int64_t> s(100, 3);
  std::vector<int64_t> small(40);
  std::iota(small.begin(), small.end(), 0);
  s.InsertBatch(small);
  // Below capacity: everything is kept, in order.
  EXPECT_EQ(s.sample(), small);
  EXPECT_EQ(s.stream_size(), 40u);
  std::vector<int64_t> more(300);
  std::iota(more.begin(), more.end(), 40);
  s.InsertBatch(more);
  EXPECT_EQ(s.sample().size(), 100u);
  EXPECT_EQ(s.stream_size(), 340u);
}

TEST(BernoulliBatchTest, DegenerateProbabilitiesAreExact) {
  std::vector<int64_t> batch(1000, 7);
  BernoulliSampler<int64_t> none(0.0, 1);
  none.InsertBatch(batch);
  EXPECT_TRUE(none.sample().empty());
  EXPECT_EQ(none.stream_size(), 1000u);
  BernoulliSampler<int64_t> all(1.0, 1);
  all.InsertBatch(batch);
  EXPECT_EQ(all.sample().size(), 1000u);
  EXPECT_EQ(all.stream_size(), 1000u);
}

// --- batched insertion: distributional equivalence ----------------------

// InsertBatch uses geometric skip sampling instead of per-element coins;
// the kept-position distribution must still match Algorithm R's. With
// k draws from a uniform stream the sample mean is a cheap, sensitive
// statistic: over `trials` independent runs the grand mean concentrates
// around the stream mean with sd ~= range / sqrt(12 k trials).
TEST(ReservoirBatchTest, BatchSamplesAreUniformOverTheStream) {
  const size_t k = 200;
  const size_t n = 20000;
  const int trials = 40;
  std::vector<int64_t> stream(n);
  std::iota(stream.begin(), stream.end(), 1);  // 1..n, mean (n+1)/2
  double grand_mean = 0.0;
  for (int t = 0; t < trials; ++t) {
    ReservoirSampler<int64_t> s(k, 1000 + static_cast<uint64_t>(t));
    // Vary the batch boundaries so every code path (fill, skip, batch
    // truncation) participates.
    const size_t cut = 97 + static_cast<size_t>(t) * 13;
    s.InsertBatch(std::span<const int64_t>(stream.data(), cut));
    s.InsertBatch(
        std::span<const int64_t>(stream.data() + cut, n - cut));
    double mean = 0.0;
    for (int64_t v : s.sample()) mean += static_cast<double>(v);
    grand_mean += mean / static_cast<double>(k);
  }
  grand_mean /= trials;
  const double expected = (static_cast<double>(n) + 1.0) / 2.0;
  // sd of the grand mean ~= n / sqrt(12 k trials) ~= 65; allow 5 sigma.
  EXPECT_NEAR(grand_mean, expected, 5.0 * 65.0);
}

TEST(BernoulliBatchTest, BatchSampleSizeMatchesBinomialMean) {
  const double p = 0.01;
  const size_t n = 100000;
  const int trials = 20;
  const auto stream = UniformIntStream(n, 1 << 20, 5);
  double mean_size = 0.0;
  for (int t = 0; t < trials; ++t) {
    BernoulliSampler<int64_t> s(p, 2000 + static_cast<uint64_t>(t));
    s.InsertBatch(stream);
    EXPECT_EQ(s.stream_size(), n);
    mean_size += static_cast<double>(s.sample().size());
  }
  mean_size /= trials;
  // Binomial(n, p): mean 1000, sd ~= 31.5; the mean of `trials` runs has
  // sd ~= 7; allow 5 sigma.
  EXPECT_NEAR(mean_size, static_cast<double>(n) * p, 5.0 * 7.1);
}

// --- merge semantics ----------------------------------------------------

TEST(ReservoirMergeTest, SizesAndWeightsAreExact) {
  ReservoirSampler<int64_t> a(64, 11), b(64, 12);
  for (int64_t i = 0; i < 1000; ++i) a.Insert(i);
  for (int64_t i = 0; i < 500; ++i) b.Insert(1000 + i);
  a.Merge(b);
  EXPECT_EQ(a.stream_size(), 1500u);
  EXPECT_EQ(a.sample().size(), 64u);
}

TEST(ReservoirMergeTest, MergeWithShorterThanCapacityStream) {
  ReservoirSampler<int64_t> a(64, 13), b(64, 14);
  for (int64_t i = 0; i < 10; ++i) a.Insert(i);
  for (int64_t i = 0; i < 20; ++i) b.Insert(100 + i);
  a.Merge(b);
  EXPECT_EQ(a.stream_size(), 30u);
  // Union fits in the reservoir: the merged sample is the whole union.
  EXPECT_EQ(a.sample().size(), 30u);
  std::vector<int64_t> sorted = a.sample();
  std::sort(sorted.begin(), sorted.end());
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
  for (int64_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[10 + i], 100 + i);
}

// The merged reservoir must be a *uniform* sample of the union: with
// stream A of size 2n and stream B of size n, elements of A should make
// up 2/3 of the merged sample on average.
TEST(ReservoirMergeTest, MergedSampleWeightsStreamsByLength) {
  const size_t k = 128;
  const int trials = 50;
  double frac_a = 0.0;
  for (int t = 0; t < trials; ++t) {
    ReservoirSampler<int64_t> a(k, 300 + static_cast<uint64_t>(t));
    ReservoirSampler<int64_t> b(k, 900 + static_cast<uint64_t>(t));
    for (int64_t i = 0; i < 20000; ++i) a.Insert(i);          // A: values < 1e6
    for (int64_t i = 0; i < 10000; ++i) b.Insert(1000000 + i);  // B: >= 1e6
    a.Merge(b);
    size_t hits = 0;
    for (int64_t v : a.sample()) hits += v < 1000000;
    frac_a += static_cast<double>(hits) / static_cast<double>(k);
  }
  frac_a /= trials;
  // sd of the mean fraction ~= sqrt(2/9 / (k * trials)) ~= 0.0059.
  EXPECT_NEAR(frac_a, 2.0 / 3.0, 5.0 * 0.0059);
}

TEST(ReservoirMergeDeathTest, MismatchedCapacitiesAbort) {
  ReservoirSampler<int64_t> a(8, 1), b(16, 2);
  EXPECT_DEATH(a.Merge(b), "different capacities");
}

TEST(BernoulliMergeTest, SamplesConcatenateAndSizesAdd) {
  BernoulliSampler<int64_t> a(0.1, 31), b(0.1, 32);
  const auto s1 = UniformIntStream(5000, 1000, 33);
  const auto s2 = UniformIntStream(3000, 1000, 34);
  a.InsertBatch(s1);
  b.InsertBatch(s2);
  const size_t size_a = a.sample().size();
  const size_t size_b = b.sample().size();
  a.Merge(b);
  EXPECT_EQ(a.stream_size(), 8000u);
  EXPECT_EQ(a.sample().size(), size_a + size_b);
}

// CountMin is a linear sketch: merging two sketches built with the same
// seed must equal the sketch of the concatenated stream, counter for
// counter — a fully deterministic identity.
TEST(CountMinMergeTest, MergeEqualsSketchOfConcatenation) {
  const uint64_t seed = 99;
  CountMinSketch a(256, 3, seed), b(256, 3, seed), both(256, 3, seed);
  const auto s1 = ZipfIntStream(20000, 2000, 1.1, 41);
  const auto s2 = ZipfIntStream(15000, 2000, 0.9, 43);
  for (int64_t v : s1) {
    a.Insert(v);
    both.Insert(v);
  }
  for (int64_t v : s2) {
    b.Insert(v);
    both.Insert(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.StreamSize(), both.StreamSize());
  for (int64_t x = 1; x <= 2000; x += 17) {
    EXPECT_EQ(a.EstimateCount(x), both.EstimateCount(x)) << "x=" << x;
  }
}

TEST(CountMinMergeDeathTest, DifferentSeedsAbort) {
  CountMinSketch a(64, 2, 1), b(64, 2, 2);
  EXPECT_DEATH(a.Merge(b), "different hash rows");
}

TEST(SpaceSavingMergeTest, MergedErrorBoundHolds) {
  const size_t k = 20;
  SpaceSaving a(k), b(k);
  ExactCounter exact;
  const auto s1 = ZipfIntStream(20000, 5000, 1.2, 51);
  const auto s2 = ZipfIntStream(20000, 5000, 0.8, 53);
  for (int64_t v : s1) {
    a.Insert(v);
    exact.Insert(v);
  }
  for (int64_t v : s2) {
    b.Insert(v);
    exact.Insert(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.StreamSize(), 40000u);
  EXPECT_LE(a.SpaceItems(), k);
  // SpaceSaving overestimates by at most n/k in total after a merge.
  const double bound = 1.0 / static_cast<double>(k);
  for (int64_t x = 1; x <= 20; ++x) {
    const double est = a.EstimateFrequency(x);
    const double truth = exact.EstimateFrequency(x);
    EXPECT_GE(est + 1e-12, truth == 0.0 ? 0.0 : truth - bound) << "x=" << x;
    EXPECT_LE(est, truth + bound + 1e-12) << "x=" << x;
  }
}

// RobustSample::Merge preserves the Theorem 1.2 contract: the merged
// sample of two disjoint halves estimates range densities of the full
// stream within eps.
TEST(RobustSampleMergeTest, MergedDensityEstimatesStayEpsAccurate) {
  const double eps = 0.1;
  auto a = RobustSample<int64_t>::ForQuantiles(eps, 0.05, 1 << 20, 61);
  auto b = RobustSample<int64_t>::ForQuantiles(eps, 0.05, 1 << 20, 62);
  const auto s1 = UniformIntStream(60000, 1 << 20, 63);
  const auto s2 = GaussianIntStream(40000, 1 << 20, 0.3, 0.1, 64);
  a.InsertBatch(s1);
  b.InsertBatch(s2);
  a.Merge(b);
  EXPECT_EQ(a.stream_size(), 100000u);
  for (int64_t threshold : {1 << 17, 1 << 18, 1 << 19}) {
    size_t truth = 0;
    for (int64_t v : s1) truth += v <= threshold;
    for (int64_t v : s2) truth += v <= threshold;
    const double true_density = static_cast<double>(truth) / 100000.0;
    const double est =
        a.EstimateDensity([threshold](int64_t v) { return v <= threshold; });
    EXPECT_NEAR(est, true_density, eps) << "threshold=" << threshold;
  }
}

}  // namespace
}  // namespace robust_sampling
