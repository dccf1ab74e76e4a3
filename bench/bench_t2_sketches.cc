// T2: throughput microbenchmarks for the quantile and heavy-hitter
// substrates (google-benchmark): GK, KLL, sample-based quantiles;
// Misra-Gries, SpaceSaving, CountMin, sample-based heavy hitters; and the
// wire codec (serialize and revive) for every registered sketch kind.

#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "heavy/count_min.h"
#include "heavy/misra_gries.h"
#include "heavy/sample_heavy_hitters.h"
#include "heavy/space_saving.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "quantiles/gk_sketch.h"
#include "quantiles/kll_sketch.h"
#include "quantiles/sample_quantile_sketch.h"
#include "stream/generators.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace robust_sampling {
namespace {

constexpr size_t kStreamLen = 1 << 16;

const std::vector<double>& DoubleStream() {
  static const std::vector<double> stream =
      UniformDoubleStream(kStreamLen, 0.0, 1.0, 11);
  return stream;
}

const std::vector<int64_t>& ZipfStream() {
  static const std::vector<int64_t> stream =
      ZipfIntStream(kStreamLen, 100000, 1.1, 13);
  return stream;
}

void BM_GkSketchInsert(benchmark::State& state) {
  const double eps = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    GkSketch g(eps);
    for (double v : DoubleStream()) g.Insert(v);
    benchmark::DoNotOptimize(g.SpaceItems());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_GkSketchInsert)->Name("t2/gk_insert")->Arg(20)->Arg(100);

void BM_KllSketchInsert(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    KllSketch s(k, 42);
    for (double v : DoubleStream()) s.Insert(v);
    benchmark::DoNotOptimize(s.SpaceItems());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_KllSketchInsert)->Name("t2/kll_insert")->Arg(128)->Arg(512);

void BM_SampleQuantileInsert(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    SampleQuantileSketch s(k, 42);
    for (double v : DoubleStream()) s.Insert(v);
    benchmark::DoNotOptimize(s.SpaceItems());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_SampleQuantileInsert)->Name("t2/sample_quantile_insert")->Arg(512)->Arg(4096);

void BM_MisraGriesInsert(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    MisraGries mg(k);
    for (int64_t v : ZipfStream()) mg.Insert(v);
    benchmark::DoNotOptimize(mg.SpaceItems());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_MisraGriesInsert)->Name("t2/misra_gries_insert")->Arg(64)->Arg(1024);

void BM_SpaceSavingInsert(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    SpaceSaving ss(k);
    for (int64_t v : ZipfStream()) ss.Insert(v);
    benchmark::DoNotOptimize(ss.SpaceItems());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_SpaceSavingInsert)->Name("t2/space_saving_insert")->Arg(64)->Arg(1024);

void BM_CountMinInsert(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    CountMinSketch cm(width, 4, 42);
    for (int64_t v : ZipfStream()) cm.Insert(v);
    benchmark::DoNotOptimize(cm.StreamSize());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_CountMinInsert)->Name("t2/count_min_insert")->Arg(256)->Arg(4096);

void BM_SampleHeavyHittersInsert(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    SampleHeavyHitters shh(k, 42);
    for (int64_t v : ZipfStream()) shh.Insert(v);
    benchmark::DoNotOptimize(shh.SpaceItems());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreamLen));
}
BENCHMARK(BM_SampleHeavyHittersInsert)->Name("t2/sample_heavy_hitters_insert")->Arg(1024)->Arg(8192);

void BM_GkSketchQuery(benchmark::State& state) {
  GkSketch g(0.01);
  for (double v : DoubleStream()) g.Insert(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Quantile(0.5));
  }
}
BENCHMARK(BM_GkSketchQuery)->Name("t2/gk_query");

void BM_KllSketchQuery(benchmark::State& state) {
  KllSketch s(512, 42);
  for (double v : DoubleStream()) s.Insert(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Quantile(0.5));
  }
}
BENCHMARK(BM_KllSketchQuery)->Name("t2/kll_query");

// Wire codec rows, one serialize and one revive per registered kind. Each
// sketch holds the same 200,000 uniform draws over {1..4096}; serialize is
// WriteSnapshot into memory, revive is ReadSnapshot back out of it.
struct CodecFixture {
  SketchConfig config;
  StreamSketch<int64_t> sketch;
  std::vector<uint8_t> snapshot;
};

CodecFixture MakeCodecFixture(const std::string& kind) {
  CodecFixture f;
  f.config.kind = kind;
  f.config.eps = 0.05;
  f.config.delta = 0.05;
  f.config.universe_size = 4096;
  f.config.seed = 0x7A11;
  f.sketch = SketchRegistry<int64_t>::Global().Create(f.config);
  f.sketch.InsertBatch(UniformIntStream(200'000, 4096, 0x7A11));
  wire::BufferSink sink;
  wire::WriteSnapshot(f.sketch, f.config, sink);
  f.snapshot = sink.TakeBytes();
  return f;
}

void BM_Serialize(benchmark::State& state, const std::string& kind) {
  const CodecFixture f = MakeCodecFixture(kind);
  for (auto _ : state) {
    wire::BufferSink sink;
    if (!wire::WriteSnapshot(f.sketch, f.config, sink)) {
      state.SkipWithError("WriteSnapshot failed");
      break;
    }
    benchmark::DoNotOptimize(sink.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.snapshot.size()));
}

void BM_Revive(benchmark::State& state, const std::string& kind) {
  const CodecFixture f = MakeCodecFixture(kind);
  for (auto _ : state) {
    wire::BufferSource source(f.snapshot);
    std::string error;
    auto revived = wire::ReadSnapshot<int64_t>(source, &error);
    if (!revived.valid()) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(revived.StreamSize());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.snapshot.size()));
}

const bool kCodecRowsRegistered = [] {
  for (const std::string& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    benchmark::RegisterBenchmark(("t2/serialize/" + kind).c_str(),
                                 BM_Serialize, kind);
    benchmark::RegisterBenchmark(("t2/revive/" + kind).c_str(), BM_Revive,
                                 kind);
  }
  return true;
}();

}  // namespace
}  // namespace robust_sampling
