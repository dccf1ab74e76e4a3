// Stress tests for the pipeline's data plane (each batch folded on the
// calling thread under per-shard locks): no loss under random batch sizes
// with mid-stream snapshots, bit-identical determinism under fixed batch
// sizes, the caller-owned-buffer contract of Ingest, bit-identical merged
// CountMin vs a 1-shard reference, and the steady-state zero-allocation
// guarantee of Ingest (asserted with a thread-local counting operator
// new).
//
// This file is part of the TSan CI job: producers folding under the shard
// locks race snapshots, checkpoints and producer registration here.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "core/random.h"
#include "gtest/gtest.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/stream_sketch.h"
#include "stream/generators.h"

// --- thread-local allocation counter ---------------------------------------
// Counts heap allocations made by *this* thread, so the producer-side
// zero-allocation assertion is immune to whatever other threads (gtest
// internals included) allocate.

namespace {
thread_local uint64_t t_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace robust_sampling {
namespace {

// --- pipeline stress --------------------------------------------------------

void StressOnePolicy(PartitionPolicy policy) {
  SketchConfig config;
  config.kind = "robust_sample";
  config.eps = 0.1;
  config.delta = 0.05;
  config.universe_size = uint64_t{1} << 20;
  config.seed = 2027;
  PipelineOptions options;
  options.num_shards = 4;
  options.partition = policy;
  ShardedPipeline<int64_t> pipeline(config, options);

  const auto stream = UniformIntStream(400000, 1 << 20, 2029);
  Rng rng(31337);
  size_t offset = 0;
  size_t batches = 0;
  while (offset < stream.size()) {
    // Random batch sizes, including the 1-element edge.
    const size_t len = std::min<size_t>(1 + rng.NextBelow(701),
                                        stream.size() - offset);
    pipeline.Ingest(std::span<const int64_t>(stream.data() + offset, len));
    offset += len;
    if (++batches % 64 == 0) {
      // Mid-stream snapshot: must observe exactly the elements ingested
      // so far (each Ingest folds before it returns).
      ASSERT_EQ(pipeline.Snapshot().StreamSize(), offset);
      ASSERT_EQ(pipeline.Capabilities(),
                pipeline.Snapshot().Capabilities());
    }
  }
  EXPECT_EQ(pipeline.total_ingested(), stream.size());
  const auto sizes = pipeline.ShardStreamSizes();
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, stream.size());  // no loss, no duplication
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), stream.size());
}

TEST(PipelineStressTest, RandomBatchesMidStreamSnapshotsRoundRobin) {
  StressOnePolicy(PartitionPolicy::kRoundRobin);
}

TEST(PipelineStressTest, RandomBatchesMidStreamSnapshotsHash) {
  StressOnePolicy(PartitionPolicy::kHash);
}

// Capabilities() is served from a construction-time cache, so unlike the
// old implementation (which read shard 0's live sketch) it may race with
// ingestion freely. This test is the TSan guard for that fix.
TEST(PipelineStressTest, CapabilitiesIsSafeDuringIngestion) {
  SketchConfig config;
  config.kind = "robust_sample";
  config.seed = 41;
  PipelineOptions options;
  options.num_shards = 2;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(200000, 1 << 20, 43);
  const uint32_t expected = pipeline.Capabilities();
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      ASSERT_EQ(pipeline.Capabilities(), expected);
    }
  });
  for (size_t i = 0; i < stream.size(); i += 512) {
    pipeline.Ingest(std::span<const int64_t>(
        stream.data() + i, std::min<size_t>(512, stream.size() - i)));
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_NE(expected & kCapSampleView, 0u);
}

// Determinism: fixed seed + fixed batch sizes => bit-identical merged
// samples, with or without mid-stream snapshots.
TEST(PipelineStressTest, FixedBatchSizesAreBitIdenticalAcrossRuns) {
  const auto stream = UniformIntStream(150000, 1 << 20, 47);
  for (PartitionPolicy policy :
       {PartitionPolicy::kRoundRobin, PartitionPolicy::kHash}) {
    SketchConfig config;
    config.kind = "robust_sample";
    config.eps = 0.1;
    config.delta = 0.05;
    config.seed = 53;
    PipelineOptions options;
    options.num_shards = 4;
    options.partition = policy;
    auto run = [&](bool take_mid_stream_snapshots) {
      ShardedPipeline<int64_t> pipeline(config, options);
      size_t batches = 0;
      for (size_t i = 0; i < stream.size(); i += 1024) {
        pipeline.Ingest(std::span<const int64_t>(
            stream.data() + i, std::min<size_t>(1024, stream.size() - i)));
        if (take_mid_stream_snapshots && ++batches % 32 == 0) {
          pipeline.Snapshot();
        }
      }
      const auto snapshot = pipeline.Snapshot();
      const auto view = snapshot.SampleView().elements;
      return std::vector<int64_t>(view.begin(), view.end());
    };
    const auto a = run(false);
    const auto b = run(true);  // snapshots must not perturb the sample
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
  }
}

// Ingest keeps no reference to the caller's memory: a caller that
// refills one buffer for every batch and scribbles over it as soon as
// Ingest returns must get the same merged sample as one that feeds slices
// of a stable stream. A fold that read the buffer after Ingest returned
// would sample the -1 sentinel, which the stream never contains.
TEST(PipelineStressTest, CallerMayOverwriteItsBufferOnceIngestReturns) {
  constexpr size_t kBatch = 2048;
  const auto stream = UniformIntStream(200000, 1 << 20, 73);
  SketchConfig config;
  config.kind = "robust_sample";
  config.eps = 0.1;
  config.delta = 0.05;
  config.seed = 79;
  for (PartitionPolicy policy :
       {PartitionPolicy::kRoundRobin, PartitionPolicy::kHash}) {
    PipelineOptions options;
    options.num_shards = 4;
    options.partition = policy;
    ShardedPipeline<int64_t> stable(config, options);
    ShardedPipeline<int64_t> reused(config, options);
    std::vector<int64_t> buffer;
    for (size_t i = 0; i < stream.size(); i += kBatch) {
      const std::span<const int64_t> batch(
          stream.data() + i, std::min(kBatch, stream.size() - i));
      stable.Ingest(batch);
      buffer.assign(batch.begin(), batch.end());
      reused.Ingest(buffer);
      std::fill(buffer.begin(), buffer.end(), -1);
    }
    const auto expected = stable.Snapshot();
    const auto actual = reused.Snapshot();
    const auto want = expected.SampleView().elements;
    const auto got = actual.SampleView().elements;
    EXPECT_FALSE(want.empty());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()));
    EXPECT_EQ(std::count(got.begin(), got.end(), -1), 0);
  }
}

// CountMin is linear and its shards share hash rows, so an N-shard merged
// snapshot must be *bit-identical* to a 1-shard reference pipeline fed
// the same batches.
TEST(PipelineStressTest, MergedCountMinBitIdenticalToSingleShardReference) {
  SketchConfig config;
  config.kind = "count_min";
  config.width = 256;
  config.depth = 4;
  config.seed = 59;
  PipelineOptions sharded_options;
  sharded_options.num_shards = 4;
  sharded_options.partition = PartitionPolicy::kHash;
  PipelineOptions reference_options;
  reference_options.num_shards = 1;
  ShardedPipeline<int64_t> sharded(config, sharded_options);
  ShardedPipeline<int64_t> reference(config, reference_options);
  const auto stream = ZipfIntStream(120000, 5000, 1.2, 61);
  for (size_t i = 0; i < stream.size(); i += 997) {
    const size_t len = std::min<size_t>(997, stream.size() - i);
    sharded.Ingest(std::span<const int64_t>(stream.data() + i, len));
    reference.Ingest(std::span<const int64_t>(stream.data() + i, len));
  }
  const auto merged = sharded.Snapshot();
  const auto single = reference.Snapshot();
  ASSERT_EQ(merged.StreamSize(), single.StreamSize());
  for (int64_t x = 1; x <= 5000; x += 7) {
    ASSERT_EQ(merged.EstimateFrequency(x), single.EstimateFrequency(x))
        << x;
  }
}

// The allocation-free steady state: with prewarmed scratch, the producer
// thread performs ZERO heap allocations per Ingest — routing and the
// sketch folds it runs — for both partitioning policies.
void ExpectZeroProducerAllocations(PartitionPolicy policy) {
  constexpr size_t kBatch = 4096;
  SketchConfig config;
  config.kind = "robust_sample";
  config.eps = 0.1;
  config.delta = 0.05;
  config.seed = 67;
  PipelineOptions options;
  options.num_shards = 4;
  options.partition = policy;
  options.prewarm_batch_elements = kBatch;  // all allocation at setup time
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(kBatch, 1 << 20, 71);

  // Short warm-up (not strictly required with prewarm, but keeps the
  // assertion about steady state rather than first-touch).
  for (int i = 0; i < 8; ++i) pipeline.Ingest(stream);

  const uint64_t allocs_before = t_alloc_count;
  for (int i = 0; i < 512; ++i) pipeline.Ingest(stream);
  const uint64_t allocs_after = t_alloc_count;

  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state Ingest allocated on the producer thread";
  EXPECT_EQ(pipeline.total_ingested(), 520 * kBatch);
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), 520 * kBatch);
}

TEST(PipelineStressTest, SteadyStateIngestIsAllocationFreeRoundRobin) {
  ExpectZeroProducerAllocations(PartitionPolicy::kRoundRobin);
}

TEST(PipelineStressTest, SteadyStateIngestIsAllocationFreeHash) {
  ExpectZeroProducerAllocations(PartitionPolicy::kHash);
}

// The zero-allocation contract extends to several producers sharing the
// shard sketches: every registered producer owns its own partition
// scratch, and count_min's evictions reuse map nodes, so each producer
// *thread* performs zero heap allocations per Ingest in steady state
// (asserted per thread with the thread-local counter).
TEST(PipelineStressTest, SteadyStateMultiProducerIngestIsAllocationFree) {
  constexpr size_t kBatch = 4096;
  constexpr size_t kProducers = 2;
  SketchConfig config;
  config.kind = "count_min";
  config.width = 256;
  config.depth = 4;
  config.seed = 97;
  PipelineOptions options;
  options.num_shards = 2;
  options.partition = PartitionPolicy::kHash;  // exercises scatter scratch
  options.prewarm_batch_elements = kBatch;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(kBatch, 1 << 20, 101);

  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&pipeline, &stream] {
      auto& producer = pipeline.RegisterProducer();
      // Warm-up: fills count_min's candidate map, so that every later
      // miss is an eviction.
      for (int i = 0; i < 16; ++i) producer.Ingest(stream);
      const uint64_t allocs_before = t_alloc_count;
      for (int i = 0; i < 256; ++i) producer.Ingest(stream);
      const uint64_t allocs_after = t_alloc_count;
      EXPECT_EQ(allocs_after - allocs_before, 0u)
          << "steady-state multi-producer Ingest allocated on its "
             "producer thread";
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pipeline.total_ingested(), kProducers * 272 * kBatch);
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), kProducers * 272 * kBatch);
}

// --- seeded schedule fuzzer -------------------------------------------------

// Property test: randomized interleavings of RegisterProducer / Ingest /
// Snapshot / Checkpoint / ShardStreamSizes across random topologies
// (shards, producer counts, both partition policies). Three invariants
// checked on every schedule:
//   1. conservation — after the producers join, total_ingested and the
//      merged snapshot's StreamSize equal the stream length exactly;
//   2. visibility — every element whose Ingest call returned is folded
//      (observed via the per-shard stream sizes);
//   3. admission first — the folded elements never exceed
//      total_ingested, which counts a batch before folding it.
void FuzzOneSchedule(uint64_t seed) {
  Rng rng(seed);
  const size_t num_producers = 1 + rng.NextBelow(4);
  SketchConfig config;
  config.kind = "count_min";  // linear: conservation is exact
  config.width = 128;
  config.depth = 4;
  config.seed = MixSeed(seed, 0xfu);
  PipelineOptions options;
  options.num_shards = 1 + rng.NextBelow(4);
  options.partition = rng.NextBelow(2) == 0 ? PartitionPolicy::kHash
                                            : PartitionPolicy::kRoundRobin;
  ShardedPipeline<int64_t> pipeline(config, options);

  const auto stream = UniformIntStream(60000, 1 << 20, MixSeed(seed, 0x5u));
  // Elements whose Ingest has RETURNED (bumped after the call), the
  // fuzzer's visibility clock.
  std::atomic<size_t> published{0};
  std::atomic<size_t> active{0};

  std::vector<std::thread> threads;
  const size_t chunk = stream.size() / num_producers;
  for (size_t p = 0; p < num_producers; ++p) {
    const size_t begin = p * chunk;
    const size_t end = p + 1 == num_producers ? stream.size() : begin + chunk;
    active.fetch_add(1, std::memory_order_relaxed);
    threads.emplace_back([&, begin, end, p] {
      // RegisterProducer itself is part of the fuzzed schedule: it races
      // the control actions below and other registrations.
      Rng thread_rng(MixSeed(seed, 0x100 + p));
      auto& producer = pipeline.RegisterProducer();
      size_t offset = begin;
      while (offset < end) {
        const size_t len =
            std::min<size_t>(1 + thread_rng.NextBelow(301), end - offset);
        producer.Ingest(std::span<const int64_t>(stream.data() + offset, len));
        offset += len;
        published.fetch_add(len, std::memory_order_acq_rel);
      }
      active.fetch_sub(1, std::memory_order_release);
    });
  }

  // Control-plane driver: random control actions racing the producers.
  const std::string path =
      "/tmp/pipeline_fuzz_" + std::to_string(seed) + ".ck";
  std::string error;
  bool checkpointed = false;
  auto folded = [&pipeline] {
    size_t total = 0;
    for (size_t s : pipeline.ShardStreamSizes()) total += s;
    return total;
  };
  while (active.load(std::memory_order_acquire) != 0) {
    switch (rng.NextBelow(4)) {
      case 0: {
        const size_t before = published.load(std::memory_order_acquire);
        ASSERT_GE(folded(), before)
            << "a returned Ingest was not folded (seed " << seed << ")";
        break;
      }
      case 1:
        ASSERT_LE(pipeline.Snapshot().StreamSize(), stream.size());
        break;
      case 2:
        ASSERT_TRUE(pipeline.Checkpoint(path, &error)) << error;
        checkpointed = true;
        break;
      case 3: {
        const size_t before = folded();
        ASSERT_LE(before, pipeline.total_ingested()) << "seed " << seed;
        break;
      }
    }
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(pipeline.total_ingested(), stream.size());
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), stream.size());
  if (checkpointed) {
    auto restored =
        ShardedPipeline<int64_t>::Restore(path, options, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_LE(restored->Snapshot().StreamSize(), stream.size());
  }
  std::remove(path.c_str());
}

TEST(PipelineStressTest, FuzzedControlScheduleSeed1) { FuzzOneSchedule(1); }
TEST(PipelineStressTest, FuzzedControlScheduleSeed2) { FuzzOneSchedule(2); }
TEST(PipelineStressTest, FuzzedControlScheduleSeed3) { FuzzOneSchedule(3); }

// Rejection (oversized batch, dropped at the door) must be visible: the
// return value, the pipeline's counter and the obs counter all say so,
// and nothing from the batch is folded.
TEST(PipelineStressTest, OversizedBatchesAreRejectedAndCounted) {
  SketchConfig config;
  config.kind = "count_min";
  config.width = 256;
  config.depth = 4;
  config.seed = 91;
  PipelineOptions options;
  options.num_shards = 1;
  options.max_batch_elements = 1 << 16;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(1 << 16, 1 << 20, 93);

  const uint64_t rejected_before = obs::PipelineRejectedBatches().Value();

  const std::vector<int64_t> oversized(options.max_batch_elements + 1, 7);
  EXPECT_FALSE(pipeline.Ingest(oversized));
  EXPECT_FALSE(pipeline.Ingest(oversized));
  EXPECT_EQ(pipeline.rejected_batches(), 2u);
  EXPECT_EQ(pipeline.total_ingested(), 0u);

  // Max-size batches are admitted, and lose nothing.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(pipeline.Ingest(stream));
  }
  EXPECT_EQ(pipeline.rejected_batches(), 2u);
  EXPECT_EQ(pipeline.total_ingested(), 50u * stream.size());
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), 50u * stream.size());

  // The obs counter saw exactly this pipeline's events (tests in this
  // binary run sequentially, so deltas are attributable).
  EXPECT_EQ(obs::PipelineRejectedBatches().Value() - rejected_before, 2u);
}

}  // namespace
}  // namespace robust_sampling
