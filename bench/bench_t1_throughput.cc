// T1: throughput microbenchmarks for the samplers and the discrepancy
// evaluators (google-benchmark).

#include <cstdint>
#include <vector>

#include "benchmark/benchmark.h"
#include "benchmark_json_main.h"
#include "core/bernoulli_sampler.h"
#include "core/reservoir_sampler.h"
#include "core/weighted_reservoir_sampler.h"
#include "setsystem/discrepancy.h"
#include "stream/generators.h"

namespace robust_sampling {
namespace {

void BM_BernoulliSampler(benchmark::State& state) {
  const double p = static_cast<double>(state.range(0)) / 1000.0;
  const auto stream = UniformIntStream(1 << 16, 1 << 20, 1);
  for (auto _ : state) {
    BernoulliSampler<int64_t> s(p, 42);
    for (int64_t v : stream) s.Insert(v);
    benchmark::DoNotOptimize(s.sample().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_BernoulliSampler)->Name("t1/bernoulli")->Arg(1)->Arg(10)->Arg(100);

void BM_ReservoirAlgorithmR(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto stream = UniformIntStream(1 << 16, 1 << 20, 2);
  for (auto _ : state) {
    ReservoirSampler<int64_t> s(k, 42);
    for (int64_t v : stream) s.Insert(v);
    benchmark::DoNotOptimize(s.sample().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_ReservoirAlgorithmR)->Name("t1/reservoir_r")->Arg(64)->Arg(1024)->Arg(16384);

void BM_WeightedReservoir(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto stream = UniformIntStream(1 << 16, 1 << 20, 3);
  for (auto _ : state) {
    WeightedReservoirSampler<int64_t> s(k, 42);
    for (int64_t v : stream) s.Insert(v, 1.0 + static_cast<double>(v % 7));
    benchmark::DoNotOptimize(s.entries().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_WeightedReservoir)->Name("t1/weighted_reservoir")->Arg(64)->Arg(1024);

void BM_PrefixDiscrepancy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto stream = UniformIntStream(n, 1 << 20, 4);
  const auto sample = UniformIntStream(n / 16, 1 << 20, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrefixDiscrepancy(stream, sample));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_PrefixDiscrepancy)->Name("t1/prefix_discrepancy")->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_IntervalDiscrepancy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto stream = UniformIntStream(n, 1 << 20, 6);
  const auto sample = UniformIntStream(n / 16, 1 << 20, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalDiscrepancy(stream, sample));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IntervalDiscrepancy)->Name("t1/interval_discrepancy")->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace
}  // namespace robust_sampling

int main(int argc, char** argv) {
  return robust_sampling::RunBenchmarksWithJsonDefault("BENCH_t1.json",
                                                       argc, argv);
}
