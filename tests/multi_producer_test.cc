// Multi-producer ingestion correctness: P producer threads folding
// concurrently into the shared shard sketches must lose nothing,
// duplicate nothing, and keep every control-surface contract — mid-stream
// snapshots, visibility of every returned Ingest, and checkpoint/restore
// — while racing each other and the readers.
//
// Also the routing oracles for both partition policies: with a single
// producer, every shard's checkpointed state must equal a sketch fed that
// shard's slices by a reference router in this file, byte for byte.
//
// This file is part of the TSan CI job (test regex `^(pipeline|obs|
// multi_producer|net)`).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/random.h"
#include "gtest/gtest.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "stream/generators.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace robust_sampling {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

SketchConfig CountMinConfig(uint64_t seed) {
  SketchConfig config;
  config.kind = "count_min";
  config.width = 256;
  config.depth = 4;
  config.seed = seed;
  return config;
}

/// Runs P producer threads, each ingesting its contiguous slice of
/// `stream` through its own registered handle in seeded-random batch
/// sizes. Returns after all joined.
void RunProducers(ShardedPipeline<int64_t>& pipeline,
                  std::span<const int64_t> stream, size_t num_producers,
                  uint64_t seed) {
  std::vector<std::thread> threads;
  const size_t chunk = stream.size() / num_producers;
  for (size_t p = 0; p < num_producers; ++p) {
    const size_t begin = p * chunk;
    const size_t end =
        p + 1 == num_producers ? stream.size() : begin + chunk;
    threads.emplace_back([&pipeline, stream, begin, end, seed, p] {
      auto& producer = pipeline.RegisterProducer();
      Rng rng(MixSeed(seed, uint64_t{p}));
      size_t offset = begin;
      while (offset < end) {
        const size_t len =
            std::min<size_t>(1 + rng.NextBelow(501), end - offset);
        producer.Ingest(stream.subspan(offset, len));
        offset += len;
      }
    });
  }
  for (auto& t : threads) t.join();
}

// --- no loss, no duplication ------------------------------------------------

// CountMin is linear, so its state is invariant under any reordering of
// the same element multiset: a 4-shard hash-partitioned pipeline fed by 4
// racing producers must answer every frequency query exactly like a
// 1-shard reference fed serially — any lost or duplicated element would
// shift some counter.
TEST(MultiProducerTest, NoLossNoDuplicateAgainstSerialReference) {
  constexpr size_t kProducers = 4;
  const auto stream = ZipfIntStream(160000, 5000, 1.2, 1201);

  PipelineOptions options;
  options.num_shards = 4;
  options.partition = PartitionPolicy::kHash;
  ShardedPipeline<int64_t> pipeline(CountMinConfig(1297), options);
  RunProducers(pipeline, stream, kProducers, 1301);

  PipelineOptions reference_options;
  reference_options.num_shards = 1;
  ShardedPipeline<int64_t> reference(CountMinConfig(1297),
                                     reference_options);
  reference.Ingest(stream);

  EXPECT_EQ(pipeline.total_ingested(), stream.size());
  EXPECT_EQ(pipeline.registered_producers(), kProducers);
  const auto sizes = pipeline.ShardStreamSizes();
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, stream.size());

  const auto merged = pipeline.Snapshot();
  const auto single = reference.Snapshot();
  ASSERT_EQ(merged.StreamSize(), single.StreamSize());
  for (int64_t x = 1; x <= 5000; x += 7) {
    ASSERT_EQ(merged.EstimateFrequency(x), single.EstimateFrequency(x))
        << x;
  }
}

// Round-robin with a sampler: conservation (StreamSize == everything the
// producers pushed) under racing producers.
TEST(MultiProducerTest, RoundRobinConservesEveryElement) {
  constexpr size_t kProducers = 4;
  const auto stream = UniformIntStream(200000, 1 << 20, 1303);
  SketchConfig config;
  config.kind = "robust_sample";
  config.eps = 0.1;
  config.delta = 0.05;
  config.seed = 1307;
  PipelineOptions options;
  options.num_shards = 4;
  ShardedPipeline<int64_t> pipeline(config, options);
  RunProducers(pipeline, stream, kProducers, 1309);
  EXPECT_EQ(pipeline.total_ingested(), stream.size());
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), stream.size());
}

// --- control surface under concurrent producers -----------------------------

// Snapshots taken from a control thread while 4 producers race: observed
// StreamSize must be monotone non-decreasing and end exactly at the
// stream length after the producers join.
TEST(MultiProducerTest, MidStreamSnapshotsAreMonotoneUnderIngestion) {
  constexpr size_t kProducers = 4;
  const auto stream = UniformIntStream(150000, 1 << 20, 1319);
  PipelineOptions options;
  options.num_shards = 2;
  options.partition = PartitionPolicy::kHash;
  ShardedPipeline<int64_t> pipeline(CountMinConfig(1321), options);

  std::atomic<bool> done{false};
  size_t last = 0;
  bool monotone = true;
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const size_t size = pipeline.Snapshot().StreamSize();
      if (size < last) monotone = false;
      last = size;
    }
  });
  RunProducers(pipeline, stream, kProducers, 1327);
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_TRUE(monotone);
  EXPECT_LE(last, stream.size());
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), stream.size());
}

// Checkpoints written while producers are still publishing must be
// valid, restorable files (every returned batch plus possibly more,
// nothing half-folded); a checkpoint after quiescence must capture the
// exact final state.
TEST(MultiProducerTest, CheckpointRestoreUnderConcurrentIngestion) {
  constexpr size_t kProducers = 4;
  const auto stream = ZipfIntStream(120000, 4000, 1.2, 1361);
  const std::string mid_path = TempPath("multi_producer_mid.ck");
  const std::string final_path = TempPath("multi_producer_final.ck");

  PipelineOptions options;
  options.num_shards = 2;
  options.partition = PartitionPolicy::kHash;
  ShardedPipeline<int64_t> pipeline(CountMinConfig(1367), options);

  std::atomic<bool> done{false};
  std::thread checkpointer([&] {
    std::string error;
    while (!done.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(pipeline.Checkpoint(mid_path, &error)) << error;
    }
  });
  RunProducers(pipeline, stream, kProducers, 1373);
  done.store(true, std::memory_order_relaxed);
  checkpointer.join();

  // The mid-stream checkpoint restores into a queryable pipeline whose
  // stream size never exceeds what was published.
  std::string error;
  auto mid = ShardedPipeline<int64_t>::Restore(mid_path, options, &error);
  ASSERT_NE(mid, nullptr) << error;
  EXPECT_LE(mid->Snapshot().StreamSize(), stream.size());
  EXPECT_LE(mid->total_ingested(), stream.size());

  // Producers quiescent: the checkpoint is exact and the restored
  // pipeline continues ingestion.
  ASSERT_TRUE(pipeline.Checkpoint(final_path, &error)) << error;
  auto restored =
      ShardedPipeline<int64_t>::Restore(final_path, options, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->Snapshot().StreamSize(), stream.size());
  for (int64_t x = 1; x <= 4000; x += 13) {
    ASSERT_EQ(restored->Snapshot().EstimateFrequency(x),
              pipeline.Snapshot().EstimateFrequency(x))
        << x;
  }
  restored->Ingest(std::span<const int64_t>(stream.data(), 1000));
  EXPECT_EQ(restored->Snapshot().StreamSize(), stream.size() + 1000);
  std::remove(mid_path.c_str());
  std::remove(final_path.c_str());
}

// --- routing oracles ---------------------------------------------------------

// Each shard's serialized state in a checkpoint, read back in shard order.
std::vector<std::vector<uint8_t>> CheckpointShardStates(
    const std::string& path) {
  wire::FileSource file(path);
  std::vector<uint8_t> body;
  std::string error;
  const char magic[4] = {'R', 'S', 'C', 'K'};
  EXPECT_TRUE(wire::ReadFramedBody(file, magic, &body, &error)) << error;
  wire::BufferSource source(body);
  SketchConfig config;
  uint64_t num_shards = 0, rr_start = 0, total_ingested = 0;
  EXPECT_TRUE(wire::ReadRevivalPrologue(source, &config, &error,
                                        SketchRegistry<int64_t>::Global()) &&
              wire::GetVarint(source, &num_shards) &&
              wire::GetVarint(source, &rr_start) &&
              wire::GetVarint(source, &total_ingested))
      << error;
  std::vector<std::vector<uint8_t>> shards(num_shards);
  for (auto& shard : shards) {
    EXPECT_TRUE(wire::GetBytes(source, &shard, wire::kMaxBodyBytes));
  }
  return shards;
}

// The hash scatter must deliver every element x to shard
// MixSeed(x, 0x9e3779b97f4a7c15) % 4, in stream order. The reference
// routes each element itself into per-shard sketches seeded as the
// pipeline seeds them, and every shard's serialized state must match
// byte for byte. Shard by shard on purpose: CountMin merges linearly, so
// a misrouted element would not change the merged snapshot; order
// matters for SpaceSaving, whose evictions follow arrival order.
void ExpectHashPartitionMatchesReference(const SketchConfig& config) {
  constexpr size_t kShards = 4;
  const auto stream = ZipfIntStream(100000, 3000, 1.1, 1399);
  PipelineOptions options;
  options.num_shards = kShards;
  options.partition = PartitionPolicy::kHash;
  ShardedPipeline<int64_t> pipeline(config, options);
  Rng rng(1409);
  for (size_t offset = 0; offset < stream.size();) {
    const size_t len = std::min<size_t>(1 + rng.NextBelow(777),
                                        stream.size() - offset);
    pipeline.Ingest(std::span<const int64_t>(stream.data() + offset, len));
    offset += len;
  }
  const std::string path =
      TempPath("multi_producer_routing_" + config.kind + ".ck");
  std::string error;
  ASSERT_TRUE(pipeline.Checkpoint(path, &error)) << error;
  const auto shards = CheckpointShardStates(path);
  std::remove(path.c_str());
  ASSERT_EQ(shards.size(), kShards);

  std::vector<StreamSketch<int64_t>> reference;
  for (size_t s = 0; s < kShards; ++s) {
    reference.push_back(SketchRegistry<int64_t>::Global().Create(
        config, MixSeed(config.seed, uint64_t{s})));
  }
  for (int64_t x : stream) {
    const uint64_t h = MixSeed(static_cast<uint64_t>(x), 0x9e3779b97f4a7c15);
    reference[h % kShards].Insert(x);
  }
  for (size_t s = 0; s < kShards; ++s) {
    wire::BufferSink expected;
    reference[s].SerializeTo(expected);
    EXPECT_EQ(shards[s], expected.bytes()) << config.kind << " shard " << s;
  }
}

TEST(MultiProducerTest, VectorizedPartitionBitIdenticalCountMin) {
  ExpectHashPartitionMatchesReference(CountMinConfig(1423));
}

TEST(MultiProducerTest, VectorizedPartitionBitIdenticalSpaceSaving) {
  SketchConfig config;
  config.kind = "space_saving";
  config.capacity = 64;
  config.seed = 1427;
  ExpectHashPartitionMatchesReference(config);
}

// Round robin: chunk i of batch b (length floor(m/S) + [i < m mod S],
// empty chunks skipped) goes to shard (b + i) mod S as one InsertBatch
// call. The reference replays that arithmetic into per-shard sketches
// seeded as the pipeline seeds them, and every shard's serialized state
// must match byte for byte. reservoir and robust_sample draw their skips
// per InsertBatch call, so a moved chunk boundary or a reordered fold
// changes their bytes. Batch sizes include ones smaller than S.
void ExpectRoundRobinMatchesReference(const SketchConfig& config) {
  constexpr size_t kShards = 4;
  const auto stream = UniformIntStream(100000, 1 << 20, 1433);
  PipelineOptions options;
  options.num_shards = kShards;
  options.partition = PartitionPolicy::kRoundRobin;
  ShardedPipeline<int64_t> pipeline(config, options);
  std::vector<StreamSketch<int64_t>> reference;
  for (size_t s = 0; s < kShards; ++s) {
    reference.push_back(SketchRegistry<int64_t>::Global().Create(
        config, MixSeed(config.seed, uint64_t{s})));
  }
  Rng rng(1439);
  size_t b = 0;
  for (size_t offset = 0; offset < stream.size(); ++b) {
    const size_t bound = rng.NextBelow(4) == 0 ? 6 : 777;
    const size_t m =
        std::min<size_t>(1 + rng.NextBelow(bound), stream.size() - offset);
    const std::span<const int64_t> batch(stream.data() + offset, m);
    pipeline.Ingest(batch);
    size_t chunk_offset = 0;
    for (size_t i = 0; i < kShards; ++i) {
      const size_t len = m / kShards + (i < m % kShards ? 1 : 0);
      if (len == 0) continue;
      reference[(b + i) % kShards].InsertBatch(
          batch.subspan(chunk_offset, len));
      chunk_offset += len;
    }
    offset += m;
  }
  const std::string path =
      TempPath("multi_producer_rr_routing_" + config.kind + ".ck");
  std::string error;
  ASSERT_TRUE(pipeline.Checkpoint(path, &error)) << error;
  const auto shards = CheckpointShardStates(path);
  std::remove(path.c_str());
  ASSERT_EQ(shards.size(), kShards);
  for (size_t s = 0; s < kShards; ++s) {
    wire::BufferSink expected;
    reference[s].SerializeTo(expected);
    EXPECT_EQ(shards[s], expected.bytes()) << config.kind << " shard " << s;
  }
}

TEST(MultiProducerTest, RoundRobinPartitionBitIdenticalReservoir) {
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 64;
  config.seed = 1447;
  ExpectRoundRobinMatchesReference(config);
}

TEST(MultiProducerTest, RoundRobinPartitionBitIdenticalRobustSample) {
  SketchConfig config;
  config.kind = "robust_sample";
  config.eps = 0.1;
  config.delta = 0.05;
  config.universe_size = uint64_t{1} << 20;
  config.seed = 1451;
  ExpectRoundRobinMatchesReference(config);
}

// --- visibility under racing readers --------------------------------------

// A reader racing an ingesting producer must see every element whose
// Ingest returned before the read, possibly more, never less — and the
// race must be clean under TSan.
TEST(MultiProducerTest, ReadersRaceIngestionCleanly) {
  const auto stream = UniformIntStream(120000, 1 << 20, 1429);
  PipelineOptions options;
  options.num_shards = 4;
  options.partition = PartitionPolicy::kHash;
  ShardedPipeline<int64_t> pipeline(CountMinConfig(1433), options);

  constexpr size_t kBatch = 256;
  constexpr size_t kPrefixBatches = 100;  // flag raised after this many
  std::atomic<size_t> published_before_flag{0};
  std::atomic<bool> flag{false};
  std::thread producer([&] {
    auto& handle = pipeline.RegisterProducer();
    size_t published = 0;
    for (size_t i = 0; i + kBatch <= stream.size(); i += kBatch) {
      handle.Ingest(std::span<const int64_t>(stream.data() + i, kBatch));
      published += kBatch;
      if (i / kBatch + 1 == kPrefixBatches) {
        published_before_flag.store(published, std::memory_order_release);
        flag.store(true, std::memory_order_release);
      }
    }
  });

  // Race the readers against the ingesting producer the whole way
  // through, then check visibility once the flag is up.
  while (!flag.load(std::memory_order_acquire)) {
    pipeline.ShardStreamSizes();
  }
  const size_t fenced = published_before_flag.load(std::memory_order_acquire);
  EXPECT_GE(pipeline.Snapshot().StreamSize(), fenced);
  producer.join();
  EXPECT_EQ(pipeline.Snapshot().StreamSize(), pipeline.total_ingested());
}

}  // namespace
}  // namespace robust_sampling
