// Pipeline quickstart: high-throughput sharded ingestion with mergeable
// snapshots.
//
// 1. Describe the sketch you want with a SketchConfig (any registered
//    kind: robust_sample, reservoir, bernoulli, kll, count_min,
//    misra_gries, space_saving).
// 2. Stand up a ShardedPipeline: N shards, each owning an independently
//    seeded instance. Ingest splits each batch into per-shard slices and
//    folds them on the calling thread into the samplers' skip-sampling
//    InsertBatch hot path, with no copy; the batch memory is free for
//    reuse as soon as Ingest returns (docs/pipeline.md has the design).
// 3. Take a Snapshot() at any point: per-shard states merge into one
//    summary of the entire stream (for reservoirs, an exactly uniform
//    sample of the union — Theorem 1.2 sizing applies unchanged), and
//    query it through the type-erased surface (Rank / Quantile /
//    HeavyHitters, gated by Capabilities()) — no downcasts.
//
// Build & run:  ./build/example_pipeline_ingest

#include <cstdint>
#include <iostream>
#include <span>
#include <vector>

#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "stream/generators.h"

int main() {
  namespace rs = robust_sampling;

  // --- 1. Declare the sketch ------------------------------------------
  rs::SketchConfig config;
  config.kind = "robust_sample";  // Theorem 1.2-sized reservoir sample
  config.eps = 0.1;
  config.delta = 0.05;
  config.universe_size = uint64_t{1} << 20;  // prefix family, ln|R| = ln|U|
  config.seed = 7;
  std::cout << "sketch: " << rs::DescribeSketchConfig(config) << "\n";

  // --- 2. Run batches through a 4-shard pipeline ----------------------
  rs::PipelineOptions options;
  options.num_shards = 4;
  options.partition = rs::PartitionPolicy::kRoundRobin;
  rs::ShardedPipeline<int64_t> pipeline(config, options);

  const auto stream = rs::UniformIntStream(
      2'000'000, static_cast<int64_t>(config.universe_size), /*seed=*/11);
  const size_t batch = 1 << 16;
  for (size_t i = 0; i < stream.size(); i += batch) {
    const size_t len = std::min(batch, stream.size() - i);
    pipeline.Ingest(std::span<const int64_t>(stream.data() + i, len));
  }

  // --- 3. Merge the shards and query the global sample ----------------
  rs::StreamSketch<int64_t> snapshot = pipeline.Snapshot();
  std::cout << "ingested " << snapshot.StreamSize() << " elements across "
            << pipeline.num_shards() << " shards; merged sample holds "
            << snapshot.SpaceItems() << " of them\n";

  // Rank(x) is the merged sample's prefix-density estimate; the same
  // handle would answer Quantile / EstimateFrequency / HeavyHitters.
  for (int64_t shift : {18, 19}) {
    const int64_t threshold = int64_t{1} << shift;
    const double density = snapshot.Rank(static_cast<double>(threshold));
    std::cout << "estimated density of [1, 2^" << shift << "]: " << density
              << "  (truth for uniform data: "
              << static_cast<double>(threshold) /
                     static_cast<double>(config.universe_size)
              << ", guarantee: +/-" << config.eps << ")\n";
  }

  // Any registered kind runs behind the same interface — e.g. heavy
  // hitters via SpaceSaving, merged across the same sharded topology.
  rs::SketchConfig hh_config;
  hh_config.kind = "space_saving";
  hh_config.eps = 0.01;  // 100 counters
  rs::ShardedPipeline<int64_t> hh_pipeline(hh_config, options);
  const auto skewed = rs::ZipfIntStream(500'000, 100'000, 1.3, /*seed=*/13);
  hh_pipeline.Ingest(skewed);
  const auto hh_snapshot = hh_pipeline.Snapshot();
  std::cout << "\ntop heavy hitters of a Zipf(1.3) stream ("
            << hh_snapshot.Name() << "):\n";
  int shown = 0;
  for (const auto& hit : hh_snapshot.HeavyHitters(0.02)) {
    std::cout << "  element " << hit.element << "  freq ~ " << hit.frequency
              << "\n";
    if (++shown == 5) break;
  }
  return 0;
}
