// Golden-blob corpus: frozen snapshot and checkpoint files under
// tests/golden/, one set per retired wire format version, each written by
// the last writer of that version (v1 before the v2 format landed, v2
// before v3). Every test here proves the CURRENT reader still revives
// them with byte-for-byte-equivalent state — the schema-evolution
// contract of docs/wire.md ("readers upgrade, blobs never rot"). The
// blobs must never be regenerated: a regenerated blob silently tests the
// current writer against the current reader, which is a different (and
// much weaker) claim.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/random.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace robust_sampling {
namespace {

// Exactly the configuration the generators used when the sets were
// frozen (v1 in 2026-08, v2 in 2026-10). Do not change any value: the
// blobs embed it, and revival compares against sketches rebuilt from it.
SketchConfig GoldenConfig(const std::string& kind) {
  SketchConfig config;
  config.kind = kind;
  config.eps = 0.1;
  config.delta = 0.05;
  config.universe_size = 512;
  config.capacity = 64;
  config.probability = 0.25;
  config.width = 128;
  config.depth = 3;
  config.seed = 0xC0FFEE;
  return config;
}

// The exact stream every set was built from.
std::vector<int64_t> GoldenStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<int64_t>(rng.NextBelow(512)) + 1);
  }
  return out;
}

std::string GoldenPath(const std::string& file) {
  return std::string(RS_SOURCE_DIR) + "/tests/golden/" + file;
}

// Same full-query comparison as wire_test: two same-kind sketches must
// answer every supported query bit-identically.
void ExpectIdenticalAnswers(const StreamSketch<int64_t>& a,
                            const StreamSketch<int64_t>& b,
                            const std::string& context) {
  ASSERT_EQ(a.Capabilities(), b.Capabilities()) << context;
  EXPECT_EQ(a.Name(), b.Name()) << context;
  EXPECT_EQ(a.StreamSize(), b.StreamSize()) << context;
  EXPECT_EQ(a.SpaceItems(), b.SpaceItems()) << context;
  if (a.Supports(kCapSampleView)) {
    const auto va = a.SampleView();
    const auto vb = b.SampleView();
    EXPECT_EQ(va.last_kept, vb.last_kept) << context;
    ASSERT_EQ(va.elements.size(), vb.elements.size()) << context;
    for (size_t i = 0; i < va.elements.size(); ++i) {
      EXPECT_EQ(va.elements[i], vb.elements[i])
          << context << " sample[" << i << "]";
    }
  }
  if (a.Supports(kCapQuantiles) && a.StreamSize() > 0 && a.SpaceItems() > 0) {
    for (double q = 0.05; q < 1.0; q += 0.05) {
      EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << context << " q=" << q;
    }
    for (double x : {0.0, 100.0, 256.0, 511.0}) {
      EXPECT_EQ(a.Rank(x), b.Rank(x)) << context << " rank(" << x << ")";
    }
  }
  if (a.Supports(kCapFrequencies)) {
    for (int64_t x = 1; x <= 512; x += 7) {
      EXPECT_EQ(a.EstimateFrequency(x), b.EstimateFrequency(x))
          << context << " freq(" << x << ")";
    }
  }
  if (a.Supports(kCapHeavyHitters)) {
    const auto ha = a.HeavyHitters(0.001);
    const auto hb = b.HeavyHitters(0.001);
    ASSERT_EQ(ha.size(), hb.size()) << context;
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].element, hb[i].element) << context;
      EXPECT_EQ(ha[i].frequency, hb[i].frequency) << context;
    }
  }
}

std::string GoldenFile(uint64_t version, const std::string& kind,
                       const std::string& ext) {
  return "v" + std::to_string(version) + "_" + kind + ext;
}

// Every kind has a snapshot blob per retired version, and the current
// reader revives it into exactly the state the old writer serialized:
// identical answers to a freshly built sketch over the same stream, and a
// re-serialization (current writer) byte-identical to the fresh sketch's
// — i.e. the upgrade read lost nothing and invented nothing.
void ExpectSnapshotsReviveByteEquivalently(uint64_t version) {
  const auto stream = GoldenStream(2000, 0x601D);
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const std::string file = GoldenFile(version, kind, ".snap");
    const SketchConfig config = GoldenConfig(kind);
    auto fresh = SketchRegistry<int64_t>::Global().Create(config);
    fresh.InsertBatch(stream);

    wire::FileSource source(GoldenPath(file));
    ASSERT_TRUE(source.open())
        << "missing golden blob " << file
        << " — the corpus under tests/golden/ is frozen, never regenerate";
    std::string error;
    auto revived = wire::ReadSnapshot<int64_t>(source, &error);
    ASSERT_TRUE(revived.valid()) << file << ": " << error;
    ExpectIdenticalAnswers(fresh, revived, file);

    // Byte-level equivalence: the revived state re-serializes (with the
    // current writer) to exactly what the fresh sketch serializes to.
    wire::BufferSink from_revived;
    wire::BufferSink from_fresh;
    ASSERT_TRUE(wire::WriteSnapshot(revived, config, from_revived)) << file;
    ASSERT_TRUE(wire::WriteSnapshot(fresh, config, from_fresh)) << file;
    EXPECT_EQ(from_revived.bytes(), from_fresh.bytes())
        << file << ": revival diverged from fresh state at byte level";
  }
}

// Every kind has a checkpoint blob per retired version (2 shards, the
// full golden stream in 4 batches). Restoring it on the current reader
// and continuing with a suffix must equal a pipeline that ingested
// prefix + suffix without interruption — the cross-version continuation
// contract.
void ExpectCheckpointsRestoreAndContinue(uint64_t version) {
  const auto stream = GoldenStream(2000, 0x601D);
  const auto suffix = GoldenStream(1000, 0x601E);
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const std::string file = GoldenFile(version, kind, ".ck");
    const SketchConfig config = GoldenConfig(kind);
    PipelineOptions options;
    options.num_shards = 2;  // the corpus was checkpointed with 2 shards

    // Reference: uninterrupted run over the same batch sequence the
    // generator used, then the suffix.
    ShardedPipeline<int64_t> uninterrupted(config, options);
    for (size_t b = 0; b < 4; ++b) {
      uninterrupted.Ingest(std::vector<int64_t>(
          stream.begin() + b * 500, stream.begin() + (b + 1) * 500));
    }
    uninterrupted.Ingest(suffix);

    std::string error;
    auto restored = ShardedPipeline<int64_t>::Restore(GoldenPath(file),
                                                      options, &error);
    ASSERT_NE(restored, nullptr) << file << ": " << error;
    EXPECT_EQ(restored->total_ingested(), stream.size()) << file;
    restored->Ingest(suffix);

    ExpectIdenticalAnswers(uninterrupted.Snapshot(), restored->Snapshot(),
                           file);
  }
}

TEST(GoldenBlobTest, V1SnapshotsReviveByteEquivalentlyOnTheCurrentReader) {
  ExpectSnapshotsReviveByteEquivalently(wire::kWireFormatV1);
}

TEST(GoldenBlobTest, V1CheckpointsRestoreAndContinueOnTheCurrentReader) {
  ExpectCheckpointsRestoreAndContinue(wire::kWireFormatV1);
}

TEST(GoldenBlobTest, V2SnapshotsReviveByteEquivalentlyOnTheCurrentReader) {
  ExpectSnapshotsReviveByteEquivalently(wire::kWireFormatV2);
}

TEST(GoldenBlobTest, V2CheckpointsRestoreAndContinueOnTheCurrentReader) {
  ExpectCheckpointsRestoreAndContinue(wire::kWireFormatV2);
}

// The corpus covers every kind the registry knows at every retired
// version, v1 through current - 1: a format bump must add the set cut
// from the last commit of the version it retires (tests/golden/README.md).
TEST(GoldenBlobTest, CorpusCoversEveryRegisteredKind) {
  for (uint64_t version = wire::kWireFormatV1;
       version < wire::kWireFormatCurrent; ++version) {
    for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
      for (const std::string ext : {".snap", ".ck"}) {
        const std::string file = GoldenFile(version, kind, ext);
        wire::FileSource probe(GoldenPath(file));
        EXPECT_TRUE(probe.open()) << "no golden blob " << file;
      }
    }
  }
}

}  // namespace
}  // namespace robust_sampling
