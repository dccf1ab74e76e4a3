// Wire subsystem suite: codec primitives, registry-driven snapshot
// round-trips for every registered kind, corruption/truncation rejection
// (clean errors, never UB or aborts), and the pipeline
// Checkpoint -> kill -> Restore -> continue contract (bit-identical to an
// uninterrupted run).

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/random.h"
#include "gtest/gtest.h"
#include "net/socket_io.h"
#include "obs/catalog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace robust_sampling {
namespace {

// --------------------------------------------------------------- codec ----

TEST(WireCodecTest, VarintRoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             uint64_t{1} << 32,
                             std::numeric_limits<uint64_t>::max() - 1,
                             std::numeric_limits<uint64_t>::max()};
  wire::BufferSink sink;
  for (uint64_t v : values) wire::PutVarint(sink, v);
  wire::BufferSource source(sink.bytes());
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(wire::GetVarint(source, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(source.remaining(), uint64_t{0});
}

TEST(WireCodecTest, ZigzagRoundTripsSignedExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(wire::ZigzagDecode(wire::ZigzagEncode(v)), v);
  }
}

TEST(WireCodecTest, DoubleRoundTripsExactBits) {
  wire::BufferSink sink;
  const double values[] = {0.0, -0.0, 1.5, -3.25e300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  for (double v : values) wire::PutDouble(sink, v);
  wire::BufferSource source(sink.bytes());
  for (double v : values) {
    double got = 0.0;
    ASSERT_TRUE(wire::GetDouble(source, &got));
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(v));
  }
}

TEST(WireCodecTest, TruncatedReadsFailCleanlyAndPoisonTheSource) {
  wire::BufferSink sink;
  wire::PutVarint(sink, uint64_t{1} << 40);
  std::vector<uint8_t> bytes = sink.bytes();
  bytes.pop_back();
  wire::BufferSource source(bytes);
  uint64_t v = 0;
  EXPECT_FALSE(wire::GetVarint(source, &v));
  EXPECT_TRUE(source.failed());
  // Poisoned: even a read that would fit now fails.
  uint8_t byte = 0;
  EXPECT_FALSE(source.Read(&byte, 0));
}

TEST(WireCodecTest, LengthPrefixesAreValidatedAgainstRemainingBytes) {
  wire::BufferSink sink;
  wire::PutVarint(sink, 1000);  // claims 1000 elements...
  sink.Append("xy", 2);         // ...backed by 2 bytes
  wire::BufferSource source(sink.bytes());
  std::vector<int64_t> out;
  EXPECT_FALSE(wire::GetValueVector(source, &out));
  EXPECT_TRUE(source.failed());
}

TEST(WireCodecTest, CountMapRejectsDuplicatesAndZeroCounts) {
  {
    // v2 shape: count | elements fixed64 row | counts fixed64 row.
    wire::BufferSink sink;
    wire::PutVarint(sink, 2);
    wire::PutFixed64(sink, wire::FixedEncodeValue<int64_t>(7));
    wire::PutFixed64(sink, wire::FixedEncodeValue<int64_t>(7));  // duplicate
    wire::PutFixed64(sink, 3);
    wire::PutFixed64(sink, 5);
    wire::BufferSource source(sink.bytes());
    std::unordered_map<int64_t, uint64_t> map;
    EXPECT_FALSE(wire::GetCountMap(source, &map));
  }
  {
    // Elements must arrive sorted (the canonical writer order).
    wire::BufferSink sink;
    wire::PutVarint(sink, 2);
    wire::PutFixed64(sink, wire::FixedEncodeValue<int64_t>(9));
    wire::PutFixed64(sink, wire::FixedEncodeValue<int64_t>(7));
    wire::PutFixed64(sink, 3);
    wire::PutFixed64(sink, 5);
    wire::BufferSource source(sink.bytes());
    std::unordered_map<int64_t, uint64_t> map;
    EXPECT_FALSE(wire::GetCountMap(source, &map));
  }
  {
    wire::BufferSink sink;
    wire::PutVarint(sink, 1);
    wire::PutFixed64(sink, wire::FixedEncodeValue<int64_t>(7));
    wire::PutFixed64(sink, 0);  // zero count
    wire::BufferSource source(sink.bytes());
    std::unordered_map<int64_t, uint64_t> map;
    EXPECT_FALSE(wire::GetCountMap(source, &map));
  }
  // The v1 upgrade reader applies the same rejections to the interleaved
  // varint shape.
  {
    wire::BufferSink sink;
    wire::PutVarint(sink, 2);
    wire::PutVarint(sink, wire::ZigzagEncode(7));
    wire::PutVarint(sink, 3);
    wire::PutVarint(sink, wire::ZigzagEncode(7));  // duplicate element
    wire::PutVarint(sink, 5);
    wire::BufferSource source(sink.bytes());
    source.set_wire_version(wire::kWireFormatV1);
    std::unordered_map<int64_t, uint64_t> map;
    EXPECT_FALSE(wire::GetCountMap(source, &map));
  }
  {
    wire::BufferSink sink;
    wire::PutVarint(sink, 1);
    wire::PutVarint(sink, wire::ZigzagEncode(7));
    wire::PutVarint(sink, 0);  // zero count
    wire::BufferSource source(sink.bytes());
    source.set_wire_version(wire::kWireFormatV1);
    std::unordered_map<int64_t, uint64_t> map;
    EXPECT_FALSE(wire::GetCountMap(source, &map));
  }
}

TEST(WireCodecTest, BufferedSinkMatchesUnbufferedBytes) {
  wire::BufferSink direct;
  wire::BufferSink base;
  {
    // A tiny window forces flushes, window-straddling appends and
    // bypass-sized appends; bytes out must be identical regardless.
    wire::BufferedSink buffered(base, /*capacity=*/16);
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      std::vector<uint8_t> chunk(rng.NextBelow(40),
                                 static_cast<uint8_t>(i));
      direct.Append(chunk.data(), chunk.size());
      buffered.Append(chunk.data(), chunk.size());
    }
  }  // destructor flushes the tail
  EXPECT_EQ(base.bytes(), direct.bytes());
}

TEST(WireCodecTest, BufferedSourceReadsMatchTheUnderlyingBytes) {
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  wire::BufferSource base(data);
  wire::BufferedSource source(base, /*capacity=*/64);
  std::vector<uint8_t> got;
  Rng rng(7);
  while (got.size() < data.size()) {
    // Read sizes straddle the window (including bypass-sized reads).
    const size_t want = std::min<size_t>(1 + rng.NextBelow(150),
                                         data.size() - got.size());
    std::vector<uint8_t> chunk(want);
    ASSERT_TRUE(source.Read(chunk.data(), want));
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got, data);
  uint8_t extra = 0;
  EXPECT_FALSE(source.Read(&extra, 1));  // past EOF fails cleanly
}

TEST(WireCodecTest, FramedBodyDetectsFlippedBitsAnywhere) {
  std::vector<uint8_t> body = {1, 2, 3, 4, 5, 6, 7, 8};
  wire::BufferSink sink;
  wire::WriteFramedBody(sink, "TEST", body);
  const std::vector<uint8_t> good = sink.bytes();
  {
    std::vector<uint8_t> ok_copy = good;
    wire::BufferSource source(ok_copy);
    std::vector<uint8_t> out;
    uint64_t version = 0;
    EXPECT_TRUE(
        wire::ReadFramedBody(source, "TEST", &out, nullptr, &version));
    EXPECT_EQ(out, body);
    EXPECT_EQ(version, wire::kWireFormatCurrent);
  }
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<uint8_t> corrupt = good;
    corrupt[i] ^= 0x40;
    wire::BufferSource source(corrupt);
    std::vector<uint8_t> out;
    std::string error;
    EXPECT_FALSE(wire::ReadFramedBody(source, "TEST", &out, &error))
        << "flip at byte " << i << " was accepted";
    EXPECT_FALSE(error.empty());
  }
}

// v1 frames (no encoding byte, varint body length) must keep reading
// through the upgrade path — hand-built exactly as the v1 writer framed.
TEST(WireCodecTest, FramedBodyReadsV1Frames) {
  const std::vector<uint8_t> body = {9, 8, 7, 6, 5};
  wire::BufferSink sink;
  sink.Append("TEST", 4);
  wire::PutVarint(sink, wire::kWireFormatV1);
  wire::PutVarint(sink, body.size());
  sink.Append(body.data(), body.size());
  wire::PutFixed64(sink, wire::Checksum(body));
  wire::BufferSource source(sink.bytes());
  std::vector<uint8_t> out;
  uint64_t version = 0;
  EXPECT_TRUE(wire::ReadFramedBody(source, "TEST", &out, nullptr, &version));
  EXPECT_EQ(out, body);
  EXPECT_EQ(version, wire::kWireFormatV1);
}

TEST(WireCodecTest, UnknownBodyEncodingIsRejected) {
  std::vector<uint8_t> body = {1, 2, 3};
  wire::BufferSink sink;
  wire::WriteFramedBody(sink, "TEST", body);
  std::vector<uint8_t> bytes = sink.bytes();
  // Layout: magic (4) | version varint (1 byte) | encoding byte | ...
  ASSERT_EQ(bytes[5], 0u);
  bytes[5] = 7;
  wire::BufferSource source(bytes);
  std::vector<uint8_t> out;
  std::string error;
  EXPECT_FALSE(wire::ReadFramedBody(source, "TEST", &out, &error));
  EXPECT_NE(error.find("encoding"), std::string::npos) << error;
}

TEST(WireCodecTest, CompressedFramedBodyRoundTripsOrFallsBack) {
  // Highly compressible body, so zstd always wins when available.
  std::vector<uint8_t> body(4096, 0xAB);
  wire::BufferSink sink;
  wire::WriteFramedBody(sink, "TEST", body, wire::BodyEncoding::kZstd);
  const std::vector<uint8_t> good = sink.bytes();
  if (wire::ZstdSupported()) {
    EXPECT_EQ(good[5], 1u);                // encoding byte says zstd
    EXPECT_LT(good.size(), body.size());   // and it actually shrank
  } else {
    EXPECT_EQ(good[5], 0u);  // silent fallback: readable on any build
  }
  {
    std::vector<uint8_t> ok_copy = good;
    wire::BufferSource source(ok_copy);
    std::vector<uint8_t> out;
    EXPECT_TRUE(wire::ReadFramedBody(source, "TEST", &out, nullptr));
    EXPECT_EQ(out, body);
  }
  // Every single-byte flip must reject — the raw-length prefix and the
  // compressed stream included, not just the checksummed stored body.
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<uint8_t> corrupt = good;
    corrupt[i] ^= 0x40;
    wire::BufferSource source(corrupt);
    std::vector<uint8_t> out;
    std::string error;
    EXPECT_FALSE(wire::ReadFramedBody(source, "TEST", &out, &error))
        << "flip at byte " << i << " was accepted";
  }
}

// ------------------------------------------------- snapshot round trips ----

SketchConfig SmallConfig(const std::string& kind) {
  SketchConfig config;
  config.kind = kind;
  config.eps = 0.1;
  config.delta = 0.05;
  config.universe_size = 512;
  config.capacity = 64;
  config.probability = 0.25;  // read by "bernoulli" only
  config.width = 128;
  config.depth = 3;
  config.seed = 0xC0FFEE;
  return config;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

std::vector<int64_t> TestStream(size_t n, uint64_t seed,
                                uint64_t values = 512) {
  Rng rng(seed);
  std::vector<int64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<int64_t>(rng.NextBelow(values)) + 1);
  }
  return out;
}

// The continuation tests draw from 512 values and from 8,192: more values
// than count_min's 1,024 candidate slots, so its evictions run.
constexpr uint64_t kContinuationValues[] = {512, 8192};

void ExpectSameWireState(const StreamSketch<int64_t>& a,
                         const StreamSketch<int64_t>& b,
                         const std::string& context) {
  wire::BufferSink sa, sb;
  a.SerializeTo(sa);
  b.SerializeTo(sb);
  EXPECT_EQ(sa.bytes(), sb.bytes()) << context;
}

// Asserts that two same-kind sketches answer every supported query
// bit-identically (the round-trip contract).
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
      EXPECT_EQ(va.elements[i], vb.elements[i]) << context << " sample[" << i
                                                << "]";
    }
  }
  // Guard on SpaceItems too: a sampler's Quantile requires a non-empty
  // retained sample.
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

TEST(WireSnapshotTest, EveryRegisteredKindRoundTripsBitIdentically) {
  const auto stream = TestStream(20000, 0x5EED);
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const SketchConfig config = SmallConfig(kind);
    auto original = SketchRegistry<int64_t>::Global().Create(config);
    ASSERT_TRUE(original.Supports(kCapSerialize)) << kind;
    original.InsertBatch(stream);

    wire::BufferSink sink;
    ASSERT_TRUE(wire::WriteSnapshot(original, config, sink)) << kind;

    wire::BufferSource source(sink.bytes());
    std::string error;
    auto revived = wire::ReadSnapshot<int64_t>(source, &error);
    ASSERT_TRUE(revived.valid()) << kind << ": " << error;
    ExpectIdenticalAnswers(original, revived, kind);
  }
}

// RNG state survives the wire: a revived randomized sketch continues with
// the exact same trajectory as the original, so feeding both the same
// suffix keeps them bit-identical — the property that lets a restored
// robust sampler keep its Theorem 1.2 guarantee. Deterministic state
// (count_min's eviction choices) must continue identically too.
TEST(WireSnapshotTest, RevivedSketchesContinueTheExactRngTrajectory) {
  for (uint64_t values : kContinuationValues) {
    const auto prefix = TestStream(8000, 0xAB, values);
    const auto suffix = TestStream(8000, 0xCD, values);
    for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
      const std::string context =
          kind + " over " + std::to_string(values) + " values";
      const SketchConfig config = SmallConfig(kind);
      auto original = SketchRegistry<int64_t>::Global().Create(config);
      original.InsertBatch(prefix);

      wire::BufferSink sink;
      ASSERT_TRUE(wire::WriteSnapshot(original, config, sink)) << context;
      wire::BufferSource source(sink.bytes());
      std::string error;
      auto revived = wire::ReadSnapshot<int64_t>(source, &error);
      ASSERT_TRUE(revived.valid()) << context << ": " << error;

      original.InsertBatch(suffix);
      revived.InsertBatch(suffix);
      ExpectIdenticalAnswers(original, revived, context + " after suffix");
      ExpectSameWireState(original, revived, context + " after suffix");
    }
  }
}

TEST(WireSnapshotTest, EmptySketchesRoundTrip) {
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const SketchConfig config = SmallConfig(kind);
    auto original = SketchRegistry<int64_t>::Global().Create(config);
    wire::BufferSink sink;
    ASSERT_TRUE(wire::WriteSnapshot(original, config, sink)) << kind;
    wire::BufferSource source(sink.bytes());
    std::string error;
    auto revived = wire::ReadSnapshot<int64_t>(source, &error);
    ASSERT_TRUE(revived.valid()) << kind << ": " << error;
    EXPECT_EQ(revived.StreamSize(), 0u) << kind;
  }
}

TEST(WireSnapshotTest, DoubleElementKindsRoundTrip) {
  SketchConfig config = SmallConfig("kll");
  auto original = SketchRegistry<double>::Global().Create(config);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) original.Insert(rng.NextDouble());
  wire::BufferSink sink;
  ASSERT_TRUE(wire::WriteSnapshot(original, config, sink));
  wire::BufferSource source(sink.bytes());
  std::string error;
  auto revived = wire::ReadSnapshot<double>(source, &error);
  ASSERT_TRUE(revived.valid()) << error;
  for (double q = 0.1; q < 1.0; q += 0.1) {
    EXPECT_EQ(original.Quantile(q), revived.Quantile(q)) << q;
  }
}

// Cross-process aggregation in one process (the wire bytes are the process
// boundary): W separately seeded pipelines each ingest one slice of a
// stream and ship a snapshot, and the revived snapshots merge into a
// summary of the whole stream. count_min shares its row hashes
// (config.seed), so counter addition reproduces one pipeline exactly. Each
// robust sample is an eps-approximation of the same stream for the prefix
// system (Theorem 1.2 plus mergeability), so ranks differ by at most 2*eps.
TEST(WireSnapshotTest, SeparatelySeededPipelinesMergeLikeOneStream) {
  constexpr double kEps = 0.05;
  constexpr int64_t kValues = 4096;
  constexpr uint64_t kBaseSeed = 0x7A11;
  constexpr size_t kBatch = 4096;
  const std::vector<int64_t> stream = TestStream(200'000, kBaseSeed, kValues);
  auto run_pipeline = [&](const SketchConfig& config,
                         std::span<const int64_t> slice) {
    PipelineOptions options;
    options.num_shards = 2;
    ShardedPipeline<int64_t> pipeline(config, options);
    for (size_t off = 0; off < slice.size(); off += kBatch) {
      pipeline.Ingest(slice.subspan(off, std::min(kBatch, slice.size() - off)));
    }
    return pipeline.Snapshot();
  };
  for (const std::string kind : {"robust_sample", "count_min"}) {
    SketchConfig config;
    config.kind = kind;
    config.eps = kEps;
    config.delta = 0.05;
    config.universe_size = kValues;
    config.width = 2048;
    config.depth = 4;
    config.seed = kBaseSeed;
    const auto single = run_pipeline(config, stream);
    ASSERT_EQ(single.StreamSize(), stream.size()) << kind;
    for (size_t workers : {2, 4, 8}) {
      const std::string context =
          kind + " over " + std::to_string(workers) + " workers";
      const size_t slice_len = stream.size() / workers;
      StreamSketch<int64_t> merged;
      for (size_t w = 0; w < workers; ++w) {
        SketchConfig worker_config = config;
        if (kind != "count_min") {
          worker_config.seed = MixSeed(kBaseSeed, 1000 + w);
        }
        const size_t off = w * slice_len;
        const size_t len = w + 1 == workers ? stream.size() - off : slice_len;
        const auto snapshot = run_pipeline(
            worker_config, std::span(stream).subspan(off, len));
        wire::BufferSink sink;
        ASSERT_TRUE(wire::WriteSnapshot(snapshot, worker_config, sink))
            << context;
        wire::BufferSource source(sink.bytes());
        std::string error;
        auto revived = wire::ReadSnapshot<int64_t>(source, &error);
        ASSERT_TRUE(revived.valid()) << context << ": " << error;
        if (merged.valid()) {
          merged.MergeFrom(revived);
        } else {
          merged = std::move(revived);
        }
      }
      ASSERT_EQ(merged.StreamSize(), stream.size()) << context;
      if (kind == "count_min") {
        for (int64_t x = 1; x <= kValues; ++x) {
          ASSERT_EQ(merged.EstimateFrequency(x), single.EstimateFrequency(x))
              << context << " freq(" << x << ")";
        }
      } else {
        for (double x = 0.0; x <= kValues; x += 64.0) {
          EXPECT_LE(std::abs(merged.Rank(x) - single.Rank(x)), 2 * kEps)
              << context << " rank(" << x << ")";
        }
      }
    }
  }
}

// --------------------------------------------- corruption / truncation ----

TEST(WireSnapshotTest, TruncationAtEveryPrefixFailsCleanly) {
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const SketchConfig config = SmallConfig(kind);
    auto original = SketchRegistry<int64_t>::Global().Create(config);
    original.InsertBatch(TestStream(2000, 0x77));
    wire::BufferSink sink;
    ASSERT_TRUE(wire::WriteSnapshot(original, config, sink));
    const std::vector<uint8_t>& good = sink.bytes();
    for (size_t len = 0; len < good.size(); ++len) {
      std::vector<uint8_t> truncated(good.begin(),
                                     good.begin() + static_cast<long>(len));
      wire::BufferSource source(truncated);
      std::string error;
      auto revived = wire::ReadSnapshot<int64_t>(source, &error);
      EXPECT_FALSE(revived.valid())
          << kind << ": truncation to " << len << " bytes was accepted";
      EXPECT_FALSE(error.empty()) << kind << " len=" << len;
    }
  }
}

TEST(WireSnapshotTest, RandomByteFlipsAreAlwaysRejected) {
  Rng rng(0xBADC0DE);
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const SketchConfig config = SmallConfig(kind);
    auto original = SketchRegistry<int64_t>::Global().Create(config);
    original.InsertBatch(TestStream(2000, 0x99));
    wire::BufferSink sink;
    ASSERT_TRUE(wire::WriteSnapshot(original, config, sink));
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> corrupt = sink.bytes();
      const size_t pos = static_cast<size_t>(rng.NextBelow(corrupt.size()));
      const uint8_t mask =
          static_cast<uint8_t>(1u << rng.NextBelow(8));
      corrupt[pos] ^= mask;
      wire::BufferSource source(corrupt);
      std::string error;
      auto revived = wire::ReadSnapshot<int64_t>(source, &error);
      EXPECT_FALSE(revived.valid())
          << kind << ": flip of bit " << static_cast<int>(mask) << " at byte "
          << pos << " was accepted";
    }
  }
}

TEST(WireSnapshotTest, UnknownKindAndBadVersionAreRejected) {
  SketchConfig config = SmallConfig("reservoir");
  auto sketch = SketchRegistry<int64_t>::Global().Create(config);
  {
    // A config naming an unregistered kind: build the snapshot by hand.
    wire::BufferSink payload;
    sketch.SerializeTo(payload);
    SketchConfig alien = config;
    alien.kind = "no_such_kind";
    wire::BufferSink body;
    wire::PutString(body, wire::ElementTypeTag<int64_t>());
    wire::WriteSketchConfig(body, alien);
    wire::PutBytes(body, payload.bytes());
    wire::BufferSink sink;
    wire::WriteFramedBody(sink, wire::kSnapshotMagic, body.bytes());
    wire::BufferSource source(sink.bytes());
    std::string error;
    EXPECT_FALSE(wire::ReadSnapshot<int64_t>(source, &error).valid());
    EXPECT_NE(error.find("unknown sketch kind"), std::string::npos) << error;
  }
  {
    // A newer format version must be rejected, not guessed at.
    wire::BufferSink sink;
    ASSERT_TRUE(wire::WriteSnapshot(sketch, config, sink));
    std::vector<uint8_t> bytes = sink.bytes();
    bytes[4] = 9;  // the version varint sits right after the 4-byte magic
    wire::BufferSource source(bytes);
    std::string error;
    EXPECT_FALSE(wire::ReadSnapshot<int64_t>(source, &error).valid());
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
}

// A snapshot written with one element type must not revive as another:
// the envelope carries an element-type tag checked before the config.
TEST(WireSnapshotTest, ElementTypeMismatchIsRejected) {
  SketchConfig config = SmallConfig("reservoir");
  auto sketch = SketchRegistry<int64_t>::Global().Create(config);
  wire::BufferSink sink;
  ASSERT_TRUE(wire::WriteSnapshot(sketch, config, sink));
  wire::BufferSource source(sink.bytes());
  std::string error;
  EXPECT_FALSE(wire::ReadSnapshot<double>(source, &error).valid());
  EXPECT_NE(error.find("element type mismatch"), std::string::npos) << error;
}

// Write/read symmetry: a config outside the wire limits must fail at
// *write* time (nothing emitted), never produce bytes Read would reject.
TEST(WireSnapshotTest, OutOfWireLimitConfigsFailAtWriteTime) {
  SketchConfig config = SmallConfig("space_saving");
  config.capacity = (uint64_t{1} << 26) + 1;  // above the wire capacity cap
  auto sketch = SketchRegistry<int64_t>::Global().Create(config);
  wire::BufferSink sink;
  EXPECT_FALSE(wire::WriteSnapshot(sketch, config, sink));
  EXPECT_TRUE(sink.bytes().empty());

  PipelineOptions options;
  options.num_shards = 2;
  ShardedPipeline<int64_t> pipeline(config, options);
  std::string error;
  const std::string path = TempPath("wire_overlimit.ck");
  EXPECT_FALSE(pipeline.Checkpoint(path, &error));
  EXPECT_NE(error.find("capacity"), std::string::npos) << error;
}

// ----------------------------------------------------- socket shipping ----

// A socket source knows nothing about its length (remaining() is nullopt),
// so decoding straight off a stream socket exercises the codec's hard-cap
// validation branches. Each test ships over a local socket pair; its
// messages are a few KiB, far below the socket buffer, so a same-thread
// write-then-read cannot block.
TEST(WireSocketTest, SnapshotShipsThroughASocketPair) {
  SketchConfig config = SmallConfig("robust_sample");
  auto original = SketchRegistry<int64_t>::Global().Create(config);
  original.InsertBatch(TestStream(4000, 0xF1D0));
  wire::BufferSink expected;
  ASSERT_TRUE(wire::WriteSnapshot(original, config, expected));

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    net::SocketSink sink(fds[1]);
    ASSERT_TRUE(wire::WriteSnapshot(original, config, sink));
    close(fds[1]);
  }
  const uint64_t bytes_in_before = obs::WireBytesIn().Value();
  net::SocketSource source(fds[0]);
  std::string error;
  auto revived = wire::ReadSnapshot<int64_t>(source, &error);
  close(fds[0]);
  ASSERT_TRUE(revived.valid()) << error;
  EXPECT_EQ(obs::WireBytesIn().Value() - bytes_in_before,
            expected.bytes().size());
  ExpectIdenticalAnswers(original, revived, "socket round trip");
}

TEST(WireSocketTest, TruncatedSocketStreamFailsCleanly) {
  SketchConfig config = SmallConfig("reservoir");
  auto original = SketchRegistry<int64_t>::Global().Create(config);
  original.InsertBatch(TestStream(2000, 0xF1D1));
  wire::BufferSink buffered;
  ASSERT_TRUE(wire::WriteSnapshot(original, config, buffered));

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    net::SocketSink sink(fds[1]);
    // Ship only half the message, then hang up.
    sink.Append(buffered.bytes().data(), buffered.bytes().size() / 2);
    close(fds[1]);
  }
  net::SocketSource source(fds[0]);
  std::string error;
  EXPECT_FALSE(wire::ReadSnapshot<int64_t>(source, &error).valid());
  EXPECT_FALSE(error.empty());
  close(fds[0]);
}

// Consecutive snapshots on one stream must ship through a single
// BufferedSource: its read-ahead window may hold the head of the next
// message, so a reader keeps one adapter per stream. Three messages
// through one adapter is the regression check.
TEST(WireSocketTest, ConsecutiveSnapshotsShipThroughOneBufferedSource) {
  SketchConfig config = SmallConfig("robust_sample");
  auto original = SketchRegistry<int64_t>::Global().Create(config);
  original.InsertBatch(TestStream(3000, 0xB1F));

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    net::SocketSink socket_sink(fds[1]);
    wire::BufferedSink sink(socket_sink);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wire::WriteSnapshot(original, config, sink)) << i;
    }
    sink.Flush();
    ASSERT_TRUE(sink.ok());
    close(fds[1]);
  }
  net::SocketSource socket_source(fds[0]);
  wire::BufferedSource source(socket_source);
  for (int i = 0; i < 3; ++i) {
    std::string error;
    auto revived = wire::ReadSnapshot<int64_t>(source, &error);
    ASSERT_TRUE(revived.valid()) << "message " << i << ": " << error;
    ExpectIdenticalAnswers(original, revived, "buffered socket message");
  }
  uint8_t extra = 0;
  EXPECT_FALSE(source.Read(&extra, 1));  // stream fully consumed
  close(fds[0]);
}

// ------------------------------------------------- compression (zstd) ----

// Snapshots requested with BodyEncoding::kZstd must round-trip with
// identical answers for every kind — compressed when support is compiled
// in, silently falling back to an uncompressed (still readable) frame
// when it is not. Either way no caller ever sees an unreadable file.
TEST(WireCompressionTest, CompressedSnapshotsRoundTripEveryKind) {
  const auto stream = TestStream(8000, 0x25D);
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const SketchConfig config = SmallConfig(kind);
    auto original = SketchRegistry<int64_t>::Global().Create(config);
    original.InsertBatch(stream);
    wire::BufferSink sink;
    ASSERT_TRUE(wire::WriteSnapshot(original, config, sink,
                                    wire::BodyEncoding::kZstd))
        << kind;
    const uint8_t encoding = sink.bytes()[5];
    EXPECT_EQ(encoding, wire::ZstdSupported() ? 1u : 0u) << kind;
    wire::BufferSource source(sink.bytes());
    std::string error;
    auto revived = wire::ReadSnapshot<int64_t>(source, &error);
    ASSERT_TRUE(revived.valid()) << kind << ": " << error;
    ExpectIdenticalAnswers(original, revived, kind + " zstd snapshot");
  }
}

// The corruption contract holds for compressed bodies too: every
// truncation prefix and random bit flip must be rejected, never crash,
// never revive.
TEST(WireCompressionTest, CompressedSnapshotTruncationAndFlipsAreRejected) {
  if (!wire::ZstdSupported()) {
    GTEST_SKIP() << "zstd not compiled in; kZstd falls back to uncompressed "
                    "frames already covered by the v2 sweeps";
  }
  const SketchConfig config = SmallConfig("robust_sample");
  auto original = SketchRegistry<int64_t>::Global().Create(config);
  original.InsertBatch(TestStream(4000, 0x25E));
  wire::BufferSink sink;
  ASSERT_TRUE(wire::WriteSnapshot(original, config, sink,
                                  wire::BodyEncoding::kZstd));
  ASSERT_EQ(sink.bytes()[5], 1u);  // actually compressed
  const std::vector<uint8_t> good = sink.bytes();
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> truncated(good.begin(), good.begin() + len);
    wire::BufferSource source(truncated);
    std::string error;
    EXPECT_FALSE(wire::ReadSnapshot<int64_t>(source, &error).valid())
        << "prefix of " << len << " bytes was accepted";
  }
  Rng rng(0x25F);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupt = good;
    const size_t pos = static_cast<size_t>(rng.NextBelow(corrupt.size()));
    corrupt[pos] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    wire::BufferSource source(corrupt);
    std::string error;
    EXPECT_FALSE(wire::ReadSnapshot<int64_t>(source, &error).valid())
        << "flip at byte " << pos << " was accepted";
  }
}

// ------------------------------------------------- checkpoint / restore ----

// Checkpoint -> kill -> Restore -> continue must equal a run that never
// stopped, bit for bit, for every registered kind (everything is
// deterministic given the seed, and the checkpoint carries the RNG state).
TEST(WireCheckpointTest, RestoredPipelineContinuesBitIdentically) {
  constexpr size_t kBatches = 40;
  constexpr size_t kBatchSize = 500;
  for (uint64_t values : kContinuationValues) {
    std::vector<std::vector<int64_t>> batches;
    for (size_t b = 0; b < kBatches; ++b) {
      batches.push_back(TestStream(kBatchSize, 0xF00D + b, values));
    }
    for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
      const std::string context = kind + " over " + std::to_string(values) +
                                  " values, checkpoint/restore";
      const SketchConfig config = SmallConfig(kind);
      PipelineOptions options;
      options.num_shards = 3;

      // Reference: uninterrupted run.
      ShardedPipeline<int64_t> uninterrupted(config, options);
      for (const auto& batch : batches) uninterrupted.Ingest(batch);
      auto expected = uninterrupted.Snapshot();

      // Interrupted run: first half, checkpoint, "crash" (destroy),
      // restore, second half.
      const std::string path = TempPath("wire_checkpoint_" + kind + ".ck");
      {
        ShardedPipeline<int64_t> first(config, options);
        for (size_t b = 0; b < kBatches / 2; ++b) first.Ingest(batches[b]);
        std::string error;
        ASSERT_TRUE(first.Checkpoint(path, &error)) << context << ": "
                                                    << error;
      }
      std::string error;
      auto restored =
          ShardedPipeline<int64_t>::Restore(path, options, &error);
      ASSERT_NE(restored, nullptr) << context << ": " << error;
      EXPECT_EQ(restored->total_ingested(), kBatches / 2 * kBatchSize)
          << context;
      for (size_t b = kBatches / 2; b < kBatches; ++b) {
        restored->Ingest(batches[b]);
      }
      auto actual = restored->Snapshot();
      ExpectIdenticalAnswers(expected, actual, context);
      ExpectSameWireState(expected, actual, context);
      std::remove(path.c_str());
    }
  }
}

TEST(WireCheckpointTest, CheckpointIsRepeatableAndRestorableMidStream) {
  const SketchConfig config = SmallConfig("robust_sample");
  PipelineOptions options;
  options.num_shards = 2;
  const std::string path = TempPath("wire_checkpoint_repeat.ck");
  ShardedPipeline<int64_t> pipeline(config, options);
  std::string error;
  for (int round = 0; round < 3; ++round) {
    pipeline.Ingest(TestStream(1000, 0x1000 + round));
    ASSERT_TRUE(pipeline.Checkpoint(path, &error)) << error;
  }
  auto restored = ShardedPipeline<int64_t>::Restore(path, options, &error);
  ASSERT_NE(restored, nullptr) << error;
  ExpectIdenticalAnswers(pipeline.Snapshot(), restored->Snapshot(),
                         "repeated checkpoint");
  std::remove(path.c_str());
}

// A zstd-compressed checkpoint must restore and continue bit-identically
// to an uninterrupted run — same contract as the uncompressed path. This
// is the round trip the sanitizer CI job exercises under ASan when
// libzstd is present (and the fallback path when it is not).
TEST(WireCheckpointTest, ZstdCheckpointRestoresBitIdentically) {
  const SketchConfig config = SmallConfig("robust_sample");
  PipelineOptions options;
  options.num_shards = 2;
  constexpr size_t kBatches = 8;

  std::vector<std::vector<int64_t>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(TestStream(500, 0x25D0 + b));
  }
  ShardedPipeline<int64_t> uninterrupted(config, options);
  for (const auto& batch : batches) uninterrupted.Ingest(batch);

  const std::string path = TempPath("wire_checkpoint_zstd.ck");
  std::string error;
  {
    ShardedPipeline<int64_t> first(config, options);
    for (size_t b = 0; b < kBatches / 2; ++b) first.Ingest(batches[b]);
    ASSERT_TRUE(
        first.Checkpoint(path, &error, wire::BodyEncoding::kZstd))
        << error;
  }
  auto restored = ShardedPipeline<int64_t>::Restore(path, options, &error);
  ASSERT_NE(restored, nullptr) << error;
  for (size_t b = kBatches / 2; b < kBatches; ++b) {
    restored->Ingest(batches[b]);
  }
  ExpectIdenticalAnswers(uninterrupted.Snapshot(), restored->Snapshot(),
                         "zstd checkpoint/restore");
  std::remove(path.c_str());
}

TEST(WireCheckpointTest, RestoreRejectsBadInputs) {
  const SketchConfig config = SmallConfig("reservoir");
  PipelineOptions options;
  options.num_shards = 2;
  std::string error;

  // Missing file.
  EXPECT_EQ(ShardedPipeline<int64_t>::Restore(TempPath("wire_missing.ck"),
                                              options, &error),
            nullptr);
  EXPECT_FALSE(error.empty());

  const std::string path = TempPath("wire_checkpoint_bad.ck");
  {
    ShardedPipeline<int64_t> pipeline(config, options);
    pipeline.Ingest(TestStream(2000, 0x31));
    ASSERT_TRUE(pipeline.Checkpoint(path, &error)) << error;
  }
  // Shard-count mismatch.
  PipelineOptions wrong = options;
  wrong.num_shards = 4;
  EXPECT_EQ(ShardedPipeline<int64_t>::Restore(path, wrong, &error), nullptr);
  EXPECT_NE(error.find("shards"), std::string::npos) << error;

  // Element-type mismatch: an int64 checkpoint must not revive as double.
  EXPECT_EQ(ShardedPipeline<double>::Restore(path, options, &error), nullptr);
  EXPECT_NE(error.find("element type mismatch"), std::string::npos) << error;

  // Corrupted file: flip one byte in the middle.
  {
    wire::FileSource file(path);
    ASSERT_TRUE(file.open());
  }
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 40, SEEK_SET);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
  EXPECT_EQ(ShardedPipeline<int64_t>::Restore(path, options, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// ------------------------------------------------- flight recorder ----

// A forced wire-codec failure must leave a flight-recorder dump naming
// the failing frame — the observability contract for corrupt snapshots
// and checkpoints (no silent rejection).
TEST(WireFlightRecorderTest, CorruptSnapshotLeavesDumpNamingTheFrame) {
  const SketchConfig config = SmallConfig("reservoir");
  auto sketch = SketchRegistry<int64_t>::Global().Create(config);
  sketch.InsertBatch(TestStream(1000, 0x77));
  wire::BufferSink sink;
  ASSERT_TRUE(wire::WriteSnapshot(sketch, config, sink));

  // Flip one byte in the middle of the body so the envelope checksum
  // catches it.
  std::vector<uint8_t> corrupt(sink.bytes().begin(), sink.bytes().end());
  corrupt[corrupt.size() / 2] ^= 0x40;

  std::string captured;
  obs::FlightRecorder::Global().SetErrorHook(
      [&captured](const std::string& dump) { captured = dump; });
  wire::BufferSource source(corrupt);
  std::string error;
  EXPECT_FALSE(wire::ReadSnapshot<int64_t>(source, &error).valid());
  obs::FlightRecorder::Global().SetErrorHook(nullptr);

  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  // The dump names the snapshot frame magic and the rejection reason.
  EXPECT_NE(captured.find("frame RSNP"), std::string::npos) << captured;
  EXPECT_NE(captured.find("checksum mismatch"), std::string::npos)
      << captured;
}

TEST(WireFlightRecorderTest, CorruptCheckpointLeavesDumpNamingTheFrame) {
  const SketchConfig config = SmallConfig("reservoir");
  PipelineOptions options;
  options.num_shards = 2;
  const std::string path = TempPath("wire_fr_checkpoint.ck");
  std::string error;
  {
    ShardedPipeline<int64_t> pipeline(config, options);
    pipeline.Ingest(TestStream(2000, 0x88));
    ASSERT_TRUE(pipeline.Checkpoint(path, &error)) << error;
  }
  // Truncate the file so the framed read fails partway.
  ASSERT_EQ(truncate(path.c_str(), 20), 0);

  std::string captured;
  obs::FlightRecorder::Global().SetErrorHook(
      [&captured](const std::string& dump) { captured = dump; });
  EXPECT_EQ(ShardedPipeline<int64_t>::Restore(path, options, &error),
            nullptr);
  obs::FlightRecorder::Global().SetErrorHook(nullptr);
  std::remove(path.c_str());

  EXPECT_NE(captured.find("frame RSCK"), std::string::npos) << captured;
}

}  // namespace
}  // namespace robust_sampling
