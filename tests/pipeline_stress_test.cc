// Stress tests for the pipeline's lock-free data plane (spsc_ring.h +
// batch_pool.h): no loss under tiny ring capacities and random batch
// sizes with concurrent mid-stream snapshots, bit-identical determinism
// under fixed batch sizes, bit-identical merged CountMin vs a 1-shard
// reference, and the steady-state zero-allocation guarantee of Ingest
// (asserted with a thread-local counting operator new).
//
// This file is part of the TSan CI job: the ring's acquire/release
// hand-off, the pool's refcounted recycling, and the flush protocol are
// all exercised here under racing producer/consumer threads.

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
#include "pipeline/batch_pool.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/spsc_ring.h"
#include "pipeline/stream_sketch.h"
#include "stream/generators.h"

// --- thread-local allocation counter ---------------------------------------
// Counts heap allocations made by *this* thread, so the producer-side
// zero-allocation assertion is immune to whatever the worker threads (or
// gtest internals on other threads) allocate.

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

// --- SpscRing unit stress ---------------------------------------------------

TEST(SpscRingTest, SingleThreadedFifoAndCapacity) {
  SpscRing<int> ring(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(ring.TryPush(v));
  }
  int overflow = 99;
  EXPECT_FALSE(ring.TryPush(overflow));
  EXPECT_EQ(overflow, 99);  // untouched on failure
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    EXPECT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.TryPop(out));
}

// Two racing threads, blocking edges on both sides (capacity 2 forces the
// producer to wait; bursty consumption forces the consumer to wait), every
// value accounted for exactly once, in order.
TEST(SpscRingTest, BlockingProducerConsumerTransfersEverythingInOrder) {
  SpscRing<uint64_t> ring(2);
  static constexpr uint64_t kCount = 200000;
  std::thread consumer([&ring] {
    uint64_t expected = 0;
    uint64_t v;
    while (ring.Pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
    EXPECT_EQ(expected, kCount);
  });
  for (uint64_t i = 0; i < kCount; ++i) ring.Push(i);
  ring.Close();
  consumer.join();
}

// --- BatchPool unit stress --------------------------------------------------

TEST(BatchPoolTest, BuffersRecycleWhenLastSliceReleases) {
  BatchPool<int64_t> pool;
  BatchBuffer<int64_t>* buffer = pool.Acquire();
  buffer->data.assign({1, 2, 3, 4, 5, 6});
  BatchSlice<int64_t> lo = pool.MakeSlice(buffer, 0, 3);
  BatchSlice<int64_t> hi = pool.MakeSlice(buffer, 3, 3);
  pool.Release(buffer);  // producer ref dropped; slices keep it alive
  EXPECT_EQ(lo.span()[0], 1);
  EXPECT_EQ(hi.span()[2], 6);
  lo.Release();
  // Still one outstanding slice: the buffer must not have recycled — a
  // fresh Acquire creates a second buffer instead of reusing this one.
  BatchBuffer<int64_t>* other = pool.Acquire();
  EXPECT_NE(other, buffer);
  EXPECT_EQ(pool.AllocatedBuffers(), 2u);
  hi.Release();  // last ref: recycles
  pool.Release(other);
  BatchBuffer<int64_t>* reused = pool.Acquire();
  EXPECT_TRUE(reused == buffer || reused == other);
  EXPECT_EQ(pool.AllocatedBuffers(), 2u);
  pool.Release(reused);
}

TEST(BatchPoolTest, ConcurrentReleaseFromManyThreadsRecyclesOnce) {
  BatchPool<int64_t> pool;
  for (int round = 0; round < 200; ++round) {
    BatchBuffer<int64_t>* buffer = pool.Acquire();
    buffer->data.assign(64, round);
    std::vector<BatchSlice<int64_t>> slices;
    for (size_t s = 0; s < 4; ++s) {
      slices.push_back(pool.MakeSlice(buffer, s * 16, 16));
    }
    pool.Release(buffer);
    std::vector<std::thread> threads;
    for (auto& slice : slices) {
      threads.emplace_back([&slice, round] {
        ASSERT_EQ(slice.span()[0], round);
        slice.Release();
      });
    }
    for (auto& t : threads) t.join();
  }
  // One buffer in flight at a time -> the pool never grew past one.
  EXPECT_EQ(pool.AllocatedBuffers(), 1u);
}

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
  options.ring_capacity = 2;  // tiny ring: constant backpressure edges
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
      // Mid-stream snapshot while the workers are busy: must observe
      // exactly the elements ingested so far (Snapshot flushes).
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

TEST(PipelineStressTest, TinyRingRandomBatchesMidStreamSnapshotsRoundRobin) {
  StressOnePolicy(PartitionPolicy::kRoundRobin);
}

TEST(PipelineStressTest, TinyRingRandomBatchesMidStreamSnapshotsHash) {
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
  options.ring_capacity = 2;
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
  pipeline.Flush();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_NE(expected & kCapSampleView, 0u);
}

// Determinism through the new data plane: fixed seed + fixed batch sizes
// => bit-identical merged samples, even with mid-stream snapshots and a
// tiny ring racing the workers.
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
    options.ring_capacity = 2;
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

// IngestBorrowed (zero-copy, caller-owned memory) must route, backpressure
// and seed exactly like Ingest: all three feeding disciplines — copying,
// borrowed, and alternating per batch — produce bit-identical merged
// samples.
TEST(PipelineStressTest, BorrowedIngestBitIdenticalToCopyingIngest) {
  const auto stream = UniformIntStream(200000, 1 << 20, 73);
  SketchConfig config;
  config.kind = "robust_sample";
  config.eps = 0.1;
  config.delta = 0.05;
  config.seed = 79;
  PipelineOptions options;
  options.num_shards = 4;
  options.ring_capacity = 4;
  enum class Feed { kCopy, kBorrow, kMix };
  auto run = [&](Feed feed) {
    ShardedPipeline<int64_t> pipeline(config, options);
    size_t batches = 0;
    for (size_t i = 0; i < stream.size(); i += 2048) {
      const std::span<const int64_t> batch(
          stream.data() + i, std::min<size_t>(2048, stream.size() - i));
      const bool borrow =
          feed == Feed::kBorrow || (feed == Feed::kMix && ++batches % 2);
      if (borrow) {
        pipeline.IngestBorrowed(batch);
      } else {
        pipeline.Ingest(batch);
      }
    }
    const auto snapshot = pipeline.Snapshot();  // flushes: borrow contract
    const auto view = snapshot.SampleView().elements;
    return std::vector<int64_t>(view.begin(), view.end());
  };
  const auto copied = run(Feed::kCopy);
  const auto borrowed = run(Feed::kBorrow);
  const auto mixed = run(Feed::kMix);
  EXPECT_EQ(copied, borrowed);
  EXPECT_EQ(copied, mixed);
  EXPECT_FALSE(copied.empty());
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
  sharded_options.ring_capacity = 2;
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

// The allocation-free steady state: with a pre-warmed pool, the producer
// thread performs ZERO heap allocations per Ingest, for both partitioning
// policies. (Thread-local counter: worker-thread allocations, if any, are
// out of scope — the contract is about the ingestion hot path.)
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
  options.ring_capacity = 8;
  options.prewarm_batch_elements = kBatch;  // all allocation at setup time
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(kBatch, 1 << 20, 71);
  const size_t pooled_before = pipeline.PooledBuffers();

  // Short warm-up (not strictly required with prewarm, but keeps the
  // assertion about steady state rather than first-touch).
  for (int i = 0; i < 8; ++i) pipeline.Ingest(stream);
  pipeline.Flush();

  const uint64_t allocs_before = t_alloc_count;
  for (int i = 0; i < 512; ++i) pipeline.Ingest(stream);
  const uint64_t allocs_after = t_alloc_count;
  pipeline.Flush();

  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state Ingest allocated on the producer thread";
  EXPECT_EQ(pipeline.PooledBuffers(), pooled_before)
      << "pool grew past its pre-warmed size";
  EXPECT_EQ(pipeline.total_ingested(), 520 * kBatch);
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), 520 * kBatch);
}

TEST(PipelineStressTest, SteadyStateIngestIsAllocationFreeRoundRobin) {
  ExpectZeroProducerAllocations(PartitionPolicy::kRoundRobin);
}

TEST(PipelineStressTest, SteadyStateIngestIsAllocationFreeHash) {
  ExpectZeroProducerAllocations(PartitionPolicy::kHash);
}

// The zero-allocation contract extends to the multi-producer hot path:
// every registered producer owns its own pre-warmed pool and its own
// partition scratch, so each producer *thread* performs zero heap
// allocations per Ingest in steady state (asserted per thread with the
// thread-local counter — worker-thread recycling is out of scope).
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
  options.ring_capacity = 8;
  options.prewarm_batch_elements = kBatch;
  options.max_producers = kProducers;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(kBatch, 1 << 20, 101);
  const size_t pooled_before = pipeline.PooledBuffers();

  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&pipeline, &stream] {
      auto& producer = pipeline.RegisterProducer();
      // Warm-up: first hashed batches size the partition scratch vectors
      // (their capacity is sticky afterwards).
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
  pipeline.Flush();
  EXPECT_EQ(pipeline.PooledBuffers(), pooled_before)
      << "a producer pool grew past its pre-warmed size";
  EXPECT_EQ(pipeline.total_ingested(), kProducers * 272 * kBatch);
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), kProducers * 272 * kBatch);
}

// --- seeded schedule fuzzer -------------------------------------------------

// Property test: randomized interleavings of RegisterProducer / Ingest /
// Flush / Snapshot / Checkpoint / ShardStreamSizes across random
// topologies (shards, ring sizes, producer counts, both partition
// policies, both hash-partition implementations). Two invariants checked
// on every schedule:
//   1. conservation — after the producers join, total_ingested and the
//      merged snapshot's StreamSize equal the stream length exactly;
//   2. flush fencing — every element whose Ingest call returned before a
//      Flush is folded by the time that Flush returns (observed via the
//      per-shard stream sizes, which flush first).
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
  options.ring_capacity = 1 + rng.NextBelow(4);
  options.max_producers = num_producers;
  ShardedPipeline<int64_t> pipeline(config, options);

  const auto stream = UniformIntStream(60000, 1 << 20, MixSeed(seed, 0x5u));
  // Elements whose Ingest has RETURNED (bumped after the call), the
  // fuzzer's published-before-flush clock.
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
        const auto batch = std::span<const int64_t>(
            stream.data() + offset, len);
        if (thread_rng.NextBelow(2) == 0) {
          producer.Ingest(batch);
        } else {
          producer.IngestBorrowed(batch);
        }
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
  while (active.load(std::memory_order_acquire) != 0) {
    switch (rng.NextBelow(4)) {
      case 0: {
        const size_t before = published.load(std::memory_order_acquire);
        pipeline.Flush();
        const auto sizes = pipeline.ShardStreamSizes();
        size_t folded = 0;
        for (size_t s : sizes) folded += s;
        ASSERT_GE(folded, before)
            << "Flush missed elements published before it (seed " << seed
            << ")";
        break;
      }
      case 1:
        ASSERT_LE(pipeline.Snapshot().StreamSize(), stream.size());
        break;
      case 2:
        ASSERT_TRUE(pipeline.Checkpoint(path, &error)) << error;
        checkpointed = true;
        break;
      case 3:
        ASSERT_LE(pipeline.ShardQueueDepth(rng.NextBelow(
                      options.num_shards)),
                  num_producers * pipeline.options().ring_capacity * 2);
        break;
    }
  }
  for (auto& t : threads) t.join();

  pipeline.Flush();
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

// Rejection (oversized batch, dropped at the door) and backpressure (ring
// full, producer blocks but nothing is lost) are different events and must
// be counted separately — the silent-drop blind spot the obs/ layer
// closes. A single-slot ring with max-size batches makes stalls certain;
// an over-limit batch makes rejection certain.
TEST(PipelineStressTest, RejectionAndBackpressureAreDistinctlyCounted) {
  SketchConfig config;
  config.kind = "count_min";
  config.width = 256;
  config.depth = 4;
  config.seed = 91;
  PipelineOptions options;
  options.num_shards = 1;
  options.ring_capacity = 1;
  options.max_batch_elements = 1 << 16;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = UniformIntStream(1 << 16, 1 << 20, 93);

  const uint64_t rejected_before = obs::PipelineRejectedBatches().Value();
  const uint64_t stalls_before = obs::PipelineBackpressureStalls().Value();

  // Oversized batches: refused by both ingest paths, nothing queued or
  // sketched, and the return value says so.
  const std::vector<int64_t> oversized(options.max_batch_elements + 1, 7);
  EXPECT_FALSE(pipeline.Ingest(oversized));
  EXPECT_FALSE(pipeline.IngestBorrowed(std::span<const int64_t>(oversized)));
  EXPECT_EQ(pipeline.rejected_batches(), 2u);
  EXPECT_EQ(pipeline.backpressure_waits(), 0u);
  EXPECT_EQ(pipeline.total_ingested(), 0u);

  // Admitted max-size batches through a single-slot ring: the producer
  // outruns the worker and must block at least once — and loses nothing.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(pipeline.Ingest(stream));
  }
  pipeline.Flush();
  EXPECT_GT(pipeline.backpressure_waits(), 0u);
  EXPECT_EQ(pipeline.rejected_batches(), 2u);
  EXPECT_EQ(pipeline.total_ingested(), 50u * stream.size());
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), 50u * stream.size());

  // The obs counters saw exactly this pipeline's events (tests in this
  // binary run sequentially, so deltas are attributable).
  EXPECT_EQ(obs::PipelineRejectedBatches().Value() - rejected_before, 2u);
  EXPECT_EQ(obs::PipelineBackpressureStalls().Value() - stalls_before,
            pipeline.backpressure_waits());
  EXPECT_GE(obs::PipelineRingOccupancyHwm().Value(), 1);
}

}  // namespace
}  // namespace robust_sampling
