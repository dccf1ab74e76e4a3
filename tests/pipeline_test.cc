// Tests for the sharded stream-ingestion pipeline: partitioning and
// bookkeeping, weight conservation through Snapshot() for every registered
// sketch kind, determinism under fixed seeds, and the headline statistical
// contract — a merged N-shard snapshot must match single-stream
// RobustSample density estimates within eps on both i.i.d. and
// adversarially generated (BisectionAdversary) streams.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "adversary/bisection_adversary.h"
#include "core/reservoir_sampler.h"
#include "core/robust_sample.h"
#include "gtest/gtest.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "stream/generators.h"

namespace robust_sampling {
namespace {

void IngestInBatches(ShardedPipeline<int64_t>& pipeline,
                     const std::vector<int64_t>& stream,
                     size_t batch_size) {
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    const size_t len = std::min(batch_size, stream.size() - i);
    pipeline.Ingest(std::span<const int64_t>(stream.data() + i, len));
  }
}

TEST(ShardedPipelineTest, RoundRobinBalancesShards) {
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 64;
  PipelineOptions options;
  options.num_shards = 4;
  options.partition = PartitionPolicy::kRoundRobin;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(40000, 1 << 20, 71);
  IngestInBatches(pipeline, stream, 1000);
  const auto sizes = pipeline.ShardStreamSizes();
  ASSERT_EQ(sizes.size(), 4u);
  size_t total = 0;
  for (size_t s : sizes) {
    EXPECT_EQ(s, 10000u);
    total += s;
  }
  EXPECT_EQ(total, 40000u);
  EXPECT_EQ(pipeline.total_ingested(), 40000u);
}

TEST(ShardedPipelineTest, HashPartitionIsContentAddressed) {
  SketchConfig config;
  config.kind = "misra_gries";
  config.capacity = 10;
  PipelineOptions options;
  options.num_shards = 4;
  options.partition = PartitionPolicy::kHash;
  // The same element must always land on the same shard: a stream of one
  // repeated value leaves exactly one shard non-empty.
  ShardedPipeline<int64_t> pipeline(config, options);
  const std::vector<int64_t> stream(5000, 42);
  IngestInBatches(pipeline, stream, 500);
  const auto sizes = pipeline.ShardStreamSizes();
  size_t non_empty = 0;
  for (size_t s : sizes) non_empty += s > 0;
  EXPECT_EQ(non_empty, 1u);
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), 5000u);
}

// Weight conservation: for every registered kind, the merged snapshot
// answers for the entire ingested stream.
TEST(ShardedPipelineTest, SnapshotConservesStreamSizeForEveryKind) {
  const auto stream = UniformIntStream(10000, 1 << 16, 73);
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    SketchConfig config;
    config.kind = kind;
    config.probability = 0.02;
    config.seed = 17;
    PipelineOptions options;
    options.num_shards = 3;
    options.partition = PartitionPolicy::kHash;
    ShardedPipeline<int64_t> pipeline(config, options);
    IngestInBatches(pipeline, stream, 997);
    const auto snapshot = pipeline.Snapshot();
    EXPECT_EQ(snapshot.StreamSize(), stream.size()) << kind;
  }
}

TEST(ShardedPipelineTest, SnapshotIsRepeatableAndNonDisruptive) {
  SketchConfig config;
  config.kind = "robust_sample";
  config.seed = 77;
  PipelineOptions options;
  options.num_shards = 2;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(50000, 1 << 20, 79);
  IngestInBatches(pipeline, stream, 2048);
  const auto snap1 = pipeline.Snapshot();
  const auto snap2 = pipeline.Snapshot();
  // Snapshots without intervening ingestion are identical (samples read
  // through the erased SampleView — no downcast).
  EXPECT_TRUE(std::ranges::equal(snap1.SampleView().elements,
                                 snap2.SampleView().elements));
  // ...and do not disturb continued ingestion.
  IngestInBatches(pipeline, stream, 2048);
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), 100000u);
}

// The satellite determinism requirement: fixed seeds (and fixed batch
// boundaries) produce a bit-for-bit identical merged snapshot.
TEST(ShardedPipelineTest, FixedSeedsGiveIdenticalMergedSnapshots) {
  const auto stream = UniformIntStream(60000, 1 << 20, 83);
  for (PartitionPolicy policy :
       {PartitionPolicy::kHash, PartitionPolicy::kRoundRobin}) {
    SketchConfig config;
    config.kind = "robust_sample";
    config.eps = 0.1;
    config.delta = 0.05;
    config.seed = 12345;
    PipelineOptions options;
    options.num_shards = 4;
    options.partition = policy;
    ShardedPipeline<int64_t> p1(config, options);
    ShardedPipeline<int64_t> p2(config, options);
    IngestInBatches(p1, stream, 1 << 12);
    IngestInBatches(p2, stream, 1 << 12);
    const auto s1 = p1.Snapshot();
    const auto s2 = p2.Snapshot();
    EXPECT_TRUE(std::ranges::equal(s1.SampleView().elements,
                                   s2.SampleView().elements));
    EXPECT_EQ(s1.StreamSize(), s2.StreamSize());
  }
}

// Shared harness for the eps-accuracy contract: both the single-stream
// RobustSample and the merged N-shard snapshot must estimate prefix-range
// densities of `stream` within eps of the exact value.
void ExpectPipelineMatchesSingleStream(const std::vector<int64_t>& stream,
                                       uint64_t universe_size, double eps,
                                       size_t num_shards,
                                       PartitionPolicy policy) {
  const double delta = 0.05;
  SketchConfig config;
  config.kind = "robust_sample";
  config.eps = eps;
  config.delta = delta;
  config.universe_size = universe_size;
  config.seed = 4242;
  PipelineOptions options;
  options.num_shards = num_shards;
  options.partition = policy;
  ShardedPipeline<int64_t> pipeline(config, options);
  IngestInBatches(pipeline, stream, 4096);
  const auto snapshot = pipeline.Snapshot();
  auto single = RobustSample<int64_t>::ForQuantiles(eps, delta,
                                                    universe_size, 4242);
  for (int64_t v : stream) single.Insert(v);
  ASSERT_EQ(snapshot.StreamSize(), stream.size());
  ASSERT_EQ(single.stream_size(), stream.size());
  // Probe prefix ranges at the stream's own empirical quantiles, where
  // densities are far from 0/1 and estimation is hardest. The merged
  // snapshot answers through the erased query surface (Rank == prefix
  // density), the single-stream reference through EstimateDensity.
  std::vector<int64_t> sorted = stream;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const int64_t threshold =
        sorted[static_cast<size_t>(q * (sorted.size() - 1))];
    size_t truth = 0;
    for (int64_t v : stream) truth += v <= threshold;
    const double true_density =
        static_cast<double>(truth) / static_cast<double>(stream.size());
    const auto le = [threshold](int64_t v) { return v <= threshold; };
    EXPECT_NEAR(snapshot.Rank(static_cast<double>(threshold)),
                true_density, eps)
        << "merged, q=" << q;
    EXPECT_NEAR(single.EstimateDensity(le), true_density, eps)
        << "single, q=" << q;
  }
}

TEST(ShardedPipelineAccuracyTest, MergedSnapshotMatchesSingleStreamIid) {
  const uint64_t universe = uint64_t{1} << 20;
  const auto stream =
      UniformIntStream(200000, static_cast<int64_t>(universe), 89);
  ExpectPipelineMatchesSingleStream(stream, universe, 0.1, 4,
                                    PartitionPolicy::kRoundRobin);
  ExpectPipelineMatchesSingleStream(stream, universe, 0.1, 4,
                                    PartitionPolicy::kHash);
}

TEST(ShardedPipelineAccuracyTest, MergedSnapshotMatchesSingleStreamSkewed) {
  const uint64_t universe = uint64_t{1} << 20;
  const auto stream =
      ZipfIntStream(150000, static_cast<int64_t>(universe), 1.1, 91);
  ExpectPipelineMatchesSingleStream(stream, universe, 0.1, 8,
                                    PartitionPolicy::kHash);
}

// Adversarial streams: run the paper's bisection attack against a
// deliberately under-provisioned victim reservoir to obtain a stream
// crafted to skew samples, then check that properly sized samplers —
// single-stream and sharded+merged alike — still estimate its prefix
// densities within eps.
TEST(ShardedPipelineAccuracyTest,
     MergedSnapshotMatchesSingleStreamOnBisectionAdversaryStream) {
  const uint64_t universe = uint64_t{1} << 40;
  const size_t n = 30000;
  BisectionAdversaryInt64 adversary(static_cast<int64_t>(universe), 0.5);
  ReservoirSampler<int64_t> victim(50, 97);  // far below Theorem 1.2 sizing
  std::vector<int64_t> stream;
  stream.reserve(n);
  for (size_t round = 1; round <= n; ++round) {
    const int64_t x = adversary.NextElement(victim.sample(), round);
    victim.Insert(x);
    stream.push_back(x);
    adversary.Observe(victim.sample(), victim.last_kept(), round);
  }
  ExpectPipelineMatchesSingleStream(stream, universe, 0.1, 4,
                                    PartitionPolicy::kHash);
  ExpectPipelineMatchesSingleStream(stream, universe, 0.1, 4,
                                    PartitionPolicy::kRoundRobin);
}

// CountMin shards share hash rows (seeded from config.seed), so the
// merged snapshot must equal a single sketch of the whole stream —
// deterministically, since CountMin is linear.
TEST(ShardedPipelineTest, CountMinSnapshotEqualsSingleSketch) {
  SketchConfig config;
  config.kind = "count_min";
  config.width = 512;
  config.depth = 3;
  config.seed = 101;
  PipelineOptions options;
  options.num_shards = 4;
  options.partition = PartitionPolicy::kHash;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = ZipfIntStream(50000, 2000, 1.2, 103);
  IngestInBatches(pipeline, stream, 1 << 12);
  const auto snapshot = pipeline.Snapshot();
  CountMinSketch single(512, 3, 101);
  for (int64_t v : stream) single.Insert(v);
  EXPECT_EQ(snapshot.StreamSize(), single.StreamSize());
  for (int64_t x = 1; x <= 2000; x += 13) {
    EXPECT_DOUBLE_EQ(snapshot.EstimateFrequency(x),
                     single.EstimateFrequency(x))
        << x;
  }
}

TEST(ShardedPipelineTest, SingleShardDegeneratesGracefully) {
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 128;
  PipelineOptions options;
  options.num_shards = 1;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(30000, 1 << 16, 107);
  IngestInBatches(pipeline, stream, 512);
  const auto snapshot = pipeline.Snapshot();
  EXPECT_EQ(snapshot.StreamSize(), 30000u);
  EXPECT_EQ(snapshot.SpaceItems(), 128u);
}

TEST(ShardedPipelineTest, StopIsIdempotentAndKeepsTheWholeStream) {
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 64;
  PipelineOptions options;
  options.num_shards = 4;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(100000, 1 << 20, 109);
  IngestInBatches(pipeline, stream, 256);
  pipeline.Stop();
  pipeline.Stop();
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), 100000u);
}

}  // namespace
}  // namespace robust_sampling
