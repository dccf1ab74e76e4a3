// Closed-loop round benchmark of the Ingest-to-answer path.
//
// One client plays rounds against the whole stack in one process. A round
// ingests R elements per ingest node through ShardedPipeline::Ingest, then
// calls Flush, Snapshot, wire::WriteSnapshot, SnapshotShipper::Offer plus
// WaitUntilDrained on every shipper, then the round's observe queries through
// CollectorClient. The next round starts only after the last answer, so the
// stage times add up to the round: the loop of RunBatchedAdaptiveGame, with
// the deployed stack as the sampler.
//
// The driver times only its own calls into each module's public functions and
// reads deltas of rs_* histograms that already exist. It checks every answer,
// and prints one JSON object (the raw run record) on stdout;
// perfbench/summary.py turns that record into metrics. Run it through
// perfbench/run.py, which builds it and passes:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--trace-out FILE]

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "core/random.h"
#include "heavy/frequency_estimator.h"
#include "net/collector.h"
#include "net/snapshot_shipper.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "stream/zipf.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace robust_sampling {
namespace {

using Element = int64_t;

constexpr double kEps = 0.05;
constexpr double kDelta = 0.05;
constexpr uint64_t kUniverse = uint64_t{1} << 20;
constexpr int64_t kFlows = int64_t{1} << 16;
constexpr double kZipfExponent = 1.1;
constexpr double kHeavyPhi = 0.01;
constexpr size_t kWarmupRounds = 2;
// A run is this many segments. Each sets up a fresh stack (timed: setup_s is
// the median over segments), plays its share of --seconds, checks the final
// answers and tears the stack down. summary.py takes the other end-to-end
// timings from the quieter half of the segments.
constexpr size_t kSegments = 6;
// Tail percentiles need ten samples beyond them: p95 of freshness needs 200
// rounds, p99 of query latency 1,000 queries, from the 3 segments kept. A
// segment keeps playing rounds past its share of --seconds until it has a
// third of both (with margin), up to kMaxSecondsFactor x its share.
constexpr size_t kMinSegmentRounds = 80;
constexpr size_t kMinSegmentQueries = 400;
constexpr double kMaxSecondsFactor = 3.0;
constexpr int kDrainTimeoutMs = 10'000;
constexpr int kClientTimeoutMs = 10'000;
// Span budget of a traced run: 4 MiB in memory, ~18 MiB of chrome-trace
// JSON. quantile-rr's 4,096 Ingest spans per round exhaust it after ~32
// traced rounds; later spans are counted as dropped, and the stage times,
// which the driver takes from its own clocks, are unaffected.
constexpr size_t kMaxSpans = size_t{1} << 17;
// Single-threaded replay budget of the traced run's direct baseline.
constexpr double kDirectSeconds = 0.5;
// Fixed pure-ALU loop timed at both ends of a run (host-noise record).
constexpr uint64_t kAluIterations = uint64_t{1} << 25;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------------ workloads ---

enum class QueryKind { kQuantile, kHeavyHitters, kFrequency };

const char* QueryName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kQuantile:
      return "Quantile";
    case QueryKind::kHeavyHitters:
      return "HeavyHitters";
    case QueryKind::kFrequency:
      return "EstimateFrequency";
  }
  return "?";
}

const char* LocalQueryName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kQuantile:
      return "Collector::Quantile";
    case QueryKind::kHeavyHitters:
      return "Collector::HeavyHitters";
    case QueryKind::kFrequency:
      return "Collector::EstimateFrequency";
  }
  return "?";
}

struct WorkloadSpec {
  const char* name;
  const char* kind;
  PartitionPolicy partition;
  size_t shards;          // per ingest node
  size_t nodes;           // ingest nodes, one shipper each
  size_t batch;           // elements per Ingest call
  size_t round_elements;  // per node
  bool zipf_keys;         // Zipf(1.1) over 2^16 flows; else uniform on 2^20
  bool checkpoint;        // collector checkpoints on every accepted ship,
                          // else only once per segment (forced)
  bool heavy_hitters;     // observe: HeavyHitters(kHeavyPhi) first
  size_t frequency_queries;       // observe: EstimateFrequency per round
  std::vector<double> quantiles;  // observe: Quantile(q) per round
};

// Why these three: hh-zipf loads the sketch kernel (count_min's candidate
// scan during the fold), quantile-rr the pipeline data plane (skip-sampling
// makes the kernel nearly free), fanin-3 the aggregation tier (3 shippers,
// per-ship revives and an fsync'd checkpoint). BENCHMARK.json gates only the
// last two: the candidate scan chases pointers through a 1,024-node map, and
// on a shared host its rate moves by a quarter with other tenants' cache
// traffic, so hh-zipf's medians spread wider than any bound worth having.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"hh-zipf", "count_min", PartitionPolicy::kHash, 2, 1, 4096,
       size_t{1} << 16, true, false, true, 4, {}},
      {"quantile-rr", "robust_sample", PartitionPolicy::kRoundRobin, 2, 1,
       1024, size_t{1} << 22, false, false, false, 0,
       {0.1, 0.5, 0.9, 0.99}},
      {"fanin-3", "robust_sample", PartitionPolicy::kRoundRobin, 1, 3, 4096,
       size_t{1} << 16, false, true, false, 0, {0.5, 0.99}},
  };
  return specs;
}

// ---------------------------------------------------------------- spans ---

struct Span {
  const char* name;
  uint32_t parent;  // 1-based span id, 0 for a root
  uint32_t round;
  uint64_t start_ns;
  uint64_t end_ns;
};

// Keeps the spans of traced rounds in memory; written as chrome-trace JSON at
// exit. Spans nest strictly (each closes before its parent).
class Tracer {
 public:
  void Reserve() { spans_.reserve(kMaxSpans); }

  void SetRound(bool active, uint32_t round) {
    active_ = active;
    round_ = round;
  }

  // Returns the new span's id, or 0 when inactive or over budget.
  uint32_t Open(const char* name, uint64_t start_ns) {
    if (!active_) return 0;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(
        Span{name, open_.empty() ? 0 : open_.back(), round_, start_ns, 0});
    const auto id = static_cast<uint32_t>(spans_.size());
    open_.push_back(id);
    return id;
  }

  void Close(uint32_t id, uint64_t end_ns) {
    if (id == 0) return;
    spans_[id - 1].end_ns = end_ns;
    open_.pop_back();
  }

  size_t size() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }

  // Chrome-trace "X" events on the steady clock in microseconds, the clock
  // and unit of FlightRecorder::DumpChromeTraceJson, so Perfetto opens both.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const uint64_t dur = s.end_ns - s.start_ns;
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,\"pid\":1,"
                    "\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%u,"
                    "\"round\":%u}}",
                    i == 0 ? "" : ",", s.name,
                    static_cast<unsigned long long>(s.start_ns / 1000),
                    static_cast<unsigned long long>(s.start_ns % 1000),
                    static_cast<unsigned long long>(dur / 1000),
                    static_cast<unsigned long long>(dur % 1000), i + 1,
                    s.parent, s.round);
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool active_ = false;
  uint32_t round_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  size_t dropped_ = 0;
};

// Times one call (every round) and records it as a span (traced rounds).
class Timed {
 public:
  Timed(Tracer& tracer, const char* name)
      : tracer_(tracer), start_ns_(NowNs()), id_(tracer.Open(name, start_ns_)) {}

  // Ends the span and returns its duration in nanoseconds.
  uint64_t Stop() {
    end_ns_ = NowNs();
    tracer_.Close(id_, end_ns_);
    return end_ns_ - start_ns_;
  }

  uint64_t start_ns() const { return start_ns_; }
  uint64_t end_ns() const { return end_ns_; }

 private:
  Tracer& tracer_;
  uint64_t start_ns_;
  uint32_t id_;
  uint64_t end_ns_ = 0;
};

// ---------------------------------------------------------------- stack ---

struct IngestNode {
  SketchConfig config;
  std::unique_ptr<ShardedPipeline<Element>> pipeline;
  std::unique_ptr<net::SnapshotShipper> shipper;
};

// Member order is teardown order reversed: the client closes first, then
// shippers and pipelines stop, and the collector stops last.
struct Stack {
  std::unique_ptr<net::Collector<Element>> collector;
  std::vector<IngestNode> nodes;
  net::CollectorClient<Element> client;
  uint64_t elements_per_node = 0;  // ingested so far, every node alike
};

// ------------------------------------------------------------- records ---

enum Stage { kIngest, kFlush, kSnapshot, kSerialize, kShip, kObserve, kStages };
constexpr const char* kStageNames[kStages] = {
    "pipeline.ingest", "pipeline.flush", "pipeline.snapshot",
    "wire.serialize",  "net.ship",       "query.observe"};

struct HistogramDelta {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
};

void AddDelta(HistogramDelta& into, const obs::Histogram::Aggregate& before,
              const obs::Histogram::Aggregate& after) {
  into.count += after.count - before.count;
  into.sum_ns += after.sum - before.sum;
}

struct Record {
  std::vector<double> setup_s;          // per segment
  std::vector<size_t> segment_rounds;   // measured rounds per segment
  std::vector<size_t> segment_queries;  // measured queries per segment
  std::vector<int> traced;
  std::vector<double> round_ms;
  std::vector<double> fresh_ms;
  std::vector<double> stage_ms[kStages];
  std::vector<double> frame_kib;
  std::vector<double> query_us;
  std::vector<std::string> query_kind;
  std::vector<int> query_traced;
  std::vector<double> local_us;
  std::vector<std::string> local_kind;
  std::vector<double> direct_meps;
  uint64_t batches = 0;
  uint64_t stalls = 0;
  uint64_t ships = 0;
  double shard_skew = 0.0;
  HistogramDelta revive, merge, checkpoint;
  uint64_t rss_base_kib = 0;
  uint64_t rss_peak_kib = 0;
  double alu_start_s = 0.0;
  double alu_end_s = 0.0;
};

// --------------------------------------------------------------- helpers ---

volatile uint64_t g_alu_sink = 0;

double AluLoopSeconds() {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  const uint64_t start = NowNs();
  for (uint64_t i = 0; i < kAluIterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 31;
  }
  const uint64_t end = NowNs();
  g_alu_sink = x;
  return static_cast<double>(end - start) * 1e-9;
}

// VmRSS / VmHWM of this process, in KiB (0 when unreadable).
uint64_t StatusKib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename V>
std::string JsonArray(const std::vector<V>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    if constexpr (std::is_same_v<V, std::string>) {
      out += "\"" + values[i] + "\"";
    } else {
      out += JsonNumber(static_cast<double>(values[i]));
    }
  }
  return out + "]";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ----------------------------------------------------------------- bench ---

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, std::string work_dir)
      : spec_(spec), seed_(seed), work_dir_(std::move(work_dir)) {}

  // Generates the seeded input and the reference answers. Not timed.
  void MakeInput() {
    const bool count_min = std::string(spec_.kind) == "count_min";
    inputs_.resize(spec_.nodes);
    for (size_t n = 0; n < spec_.nodes; ++n) {
      Rng rng(MixSeed(seed_, 1 + n));
      std::vector<Element>& pool = inputs_[n];
      pool.reserve(spec_.round_elements);
      if (spec_.zipf_keys) {
        const ZipfDistribution zipf(kFlows, kZipfExponent);
        for (size_t i = 0; i < spec_.round_elements; ++i) {
          pool.push_back(zipf.Sample(rng));
        }
      } else {
        for (size_t i = 0; i < spec_.round_elements; ++i) {
          pool.push_back(static_cast<Element>(rng.NextBelow(kUniverse)) + 1);
        }
      }
      SketchConfig config;
      config.kind = spec_.kind;
      config.eps = kEps;
      config.delta = kDelta;
      config.universe_size = kUniverse;
      // CountMin row hashes must agree across nodes for the collector's
      // merge; samplers are seeded independently per node.
      config.seed = MixSeed(seed_, count_min ? 100 : 100 + n);
      configs_.push_back(config);
    }
    // Every round replays the same pool, so after r rounds the stream is r
    // copies of it: ranks equal the pool's, and CountMin's counters (and
    // stream length) are r times the pool's, which leaves every
    // EstimateFrequency ratio bit-identical to a sketch fed the pool once.
    if (count_min) {
      StreamSketch<Element> reference =
          SketchRegistry<Element>::Global().Create(configs_[0]);
      for (const auto& pool : inputs_) reference.InsertBatch(pool);
      for (int64_t key = 1; key <= 32; ++key) key_set_.push_back(key);
      Rng rng(MixSeed(seed_, 999));
      for (int i = 0; i < 32; ++i) {
        key_set_.push_back(inputs_[0][rng.NextBelow(inputs_[0].size())]);
      }
      for (Element key : key_set_) {
        reference_frequency_.push_back(reference.EstimateFrequency(key));
      }
      reference_heavy_ = reference.HeavyHitters(kHeavyPhi);
    } else {
      for (const auto& pool : inputs_) {
        sorted_.insert(sorted_.end(), pool.begin(), pool.end());
      }
      std::sort(sorted_.begin(), sorted_.end());
    }
  }

  void Run(double seconds, bool trace, const std::string& trace_out) {
    rec_.alu_start_s = AluLoopSeconds();
    MakeInput();
    if (trace) tracer_.Reserve();
    rec_.rss_base_kib = StatusKib("VmRSS");

    tmp_dir_ = work_dir_ + "/tmp-XXXXXX";
    if (mkdtemp(tmp_dir_.data()) == nullptr) {
      Fatal("cannot create a temp dir under " + work_dir_);
    }
    for (size_t s = 0; s < kSegments; ++s) {
      PlaySegment(tmp_dir_ + "/segment-" + std::to_string(s),
                  seconds / kSegments, trace);
    }
    rec_.rss_peak_kib = StatusKib("VmHWM");
    std::error_code ignored;
    std::filesystem::remove_all(tmp_dir_, ignored);

    if (trace) {
      DirectBaseline();
      if (!trace_out.empty() && !tracer_.Write(trace_out)) {
        Fail("cannot write the trace to " + trace_out);
      }
    }
    rec_.alu_end_s = AluLoopSeconds();
  }

  void Print(bool trace) const {
    std::string o = "{";
    o += "\"workload\":\"" + std::string(spec_.name) + "\"";
    o += ",\"seed\":" + std::to_string(seed_);
    o += ",\"trace\":" + std::string(trace ? "1" : "0");
    o += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
    o += ",\"alu_iterations\":" + std::to_string(kAluIterations);
    o += ",\"alu_start_s\":" + JsonNumber(rec_.alu_start_s);
    o += ",\"alu_end_s\":" + JsonNumber(rec_.alu_end_s);
    o += ",\"nodes\":" + std::to_string(spec_.nodes);
    o += ",\"elements_per_round\":" +
         std::to_string(spec_.round_elements * spec_.nodes);
    o += ",\"warmup_rounds\":" + std::to_string(kWarmupRounds);
    o += ",\"setup_s\":" + JsonArray(rec_.setup_s);
    o += ",\"segment_rounds\":" + JsonArray(rec_.segment_rounds);
    o += ",\"segment_queries\":" + JsonArray(rec_.segment_queries);
    o += ",\"rss_base_kib\":" + std::to_string(rec_.rss_base_kib);
    o += ",\"rss_peak_kib\":" + std::to_string(rec_.rss_peak_kib);
    o += ",\"traced\":" + JsonArray(rec_.traced);
    o += ",\"round_ms\":" + JsonArray(rec_.round_ms);
    o += ",\"fresh_ms\":" + JsonArray(rec_.fresh_ms);
    o += ",\"stage_ms\":{";
    for (int s = 0; s < kStages; ++s) {
      if (s > 0) o += ",";
      o += "\"" + std::string(kStageNames[s]) +
           "\":" + JsonArray(rec_.stage_ms[s]);
    }
    o += "}";
    o += ",\"frame_kib\":" + JsonArray(rec_.frame_kib);
    o += ",\"query_us\":" + JsonArray(rec_.query_us);
    o += ",\"query_kind\":" + JsonArray(rec_.query_kind);
    o += ",\"query_traced\":" + JsonArray(rec_.query_traced);
    o += ",\"local_us\":" + JsonArray(rec_.local_us);
    o += ",\"local_kind\":" + JsonArray(rec_.local_kind);
    o += ",\"direct_meps\":" + JsonArray(rec_.direct_meps);
    o += ",\"batches\":" + std::to_string(rec_.batches);
    o += ",\"stalls\":" + std::to_string(rec_.stalls);
    o += ",\"ships\":" + std::to_string(rec_.ships);
    o += ",\"shard_skew\":" + JsonNumber(rec_.shard_skew);
    auto histogram = [&](const char* name, const HistogramDelta& d) {
      o += ",\"" + std::string(name) + "\":{\"count\":" +
           std::to_string(d.count) + ",\"sum_ns\":" + std::to_string(d.sum_ns) +
           "}";
    };
    histogram("revive", rec_.revive);
    histogram("merge", rec_.merge);
    histogram("checkpoint", rec_.checkpoint);
    o += ",\"spans\":" + std::to_string(tracer_.size());
    o += ",\"spans_dropped\":" + std::to_string(tracer_.dropped());
    o += ",\"attempted\":" + std::to_string(attempted_);
    o += ",\"failed\":" + std::to_string(failed_);
    std::vector<std::string> failures;
    for (const std::string& f : failures_) failures.push_back(JsonEscape(f));
    o += ",\"failures\":" + JsonArray(failures);
    o += "}";
    std::printf("%s\n", o.c_str());
  }

  uint64_t failed() const { return failed_; }

 private:
  [[noreturn]] static void Fatal(const std::string& why) {
    std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
    std::exit(2);
  }

  // Counts one operation; a false `ok` counts it as failed.
  void Count(bool ok, const char* what) {
    ++attempted_;
    if (!ok) Fail(what);
  }

  void Fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }

  // Sets up a fresh stack in `dir` and warms it up (timed as one set-up),
  // plays measured rounds on it for `seconds`, checks its final answers and
  // tears it down.
  void PlaySegment(const std::string& dir, double seconds, bool trace) {
    const uint64_t setup_start = NowNs();
    std::unique_ptr<Stack> stack = SetUp(dir);
    for (size_t r = 0; r < kWarmupRounds; ++r) {
      PlayRound(*stack, /*traced=*/false, /*keep=*/false);
    }
    rec_.setup_s.push_back(static_cast<double>(NowNs() - setup_start) * 1e-9);

    const std::string kind = spec_.kind;
    const auto revive0 = obs::WireDeserializeNs(kind).Read();
    const auto merge0 = obs::NetCollectorMergeNs().Read();
    const auto checkpoint0 = obs::NetCheckpointNs().Read();
    uint64_t ships0 = 0, stalls0 = 0;
    for (const IngestNode& node : stack->nodes) {
      ships0 += node.shipper->shipped();
      stalls0 += node.pipeline->backpressure_waits();
    }

    const size_t rounds0 = rec_.round_ms.size();
    const size_t queries0 = rec_.query_us.size();
    const uint64_t start = NowNs();
    for (;;) {
      const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
      const bool enough =
          rec_.round_ms.size() - rounds0 >= kMinSegmentRounds &&
          rec_.query_us.size() - queries0 >= kMinSegmentQueries;
      if ((elapsed >= seconds && enough) ||
          elapsed >= seconds * kMaxSecondsFactor) {
        break;
      }
      // A traced run alternates traced and untraced rounds, so tracing
      // overhead is measured within one run.
      PlayRound(*stack, trace && rec_.round_ms.size() % 2 == 1,
                /*keep=*/true);
    }
    rec_.segment_rounds.push_back(rec_.round_ms.size() - rounds0);
    rec_.segment_queries.push_back(rec_.query_us.size() - queries0);

    // One forced checkpoint per segment, outside the rounds, so that
    // net.checkpoint_ms is measured where the collector never checkpoints on
    // its own.
    Count(stack->collector->Checkpoint(), "Collector::Checkpoint failed");

    AddDelta(rec_.revive, revive0, obs::WireDeserializeNs(kind).Read());
    AddDelta(rec_.merge, merge0, obs::NetCollectorMergeNs().Read());
    AddDelta(rec_.checkpoint, checkpoint0, obs::NetCheckpointNs().Read());
    for (const IngestNode& node : stack->nodes) {
      rec_.ships += node.shipper->shipped();
      rec_.stalls += node.pipeline->backpressure_waits();
      const std::vector<size_t> sizes = node.pipeline->ShardStreamSizes();
      const double max = static_cast<double>(
          *std::max_element(sizes.begin(), sizes.end()));
      double total = 0.0;
      for (size_t v : sizes) total += static_cast<double>(v);
      rec_.shard_skew = std::max(
          rec_.shard_skew, max / (total / static_cast<double>(sizes.size())));
    }
    rec_.ships -= ships0;
    rec_.stalls -= stalls0;

    FinalChecks(*stack);
    for (const IngestNode& node : stack->nodes) {
      Count(node.shipper->failures() == 0, "a shipper reported failed ships");
    }
    Count(stack->collector->rejects() == 0, "the collector rejected input");
  }

  std::unique_ptr<Stack> SetUp(const std::string& dir) {
    auto stack = std::make_unique<Stack>();
    net::CollectorOptions options;
    std::filesystem::create_directories(dir);
    options.checkpoint_path = dir + "/collector.rnck";
    if (!spec_.checkpoint) {
      options.checkpoint_every_snapshots = std::numeric_limits<uint64_t>::max();
    }
    stack->collector = std::make_unique<net::Collector<Element>>(options);
    std::string error;
    if (!stack->collector->Start(&error)) Fatal(error);
    for (size_t n = 0; n < spec_.nodes; ++n) {
      IngestNode node;
      node.config = configs_[n];
      PipelineOptions pipeline_options;
      pipeline_options.num_shards = spec_.shards;
      pipeline_options.partition = spec_.partition;
      pipeline_options.prewarm_batch_elements = spec_.batch;
      node.pipeline = std::make_unique<ShardedPipeline<Element>>(
          node.config, pipeline_options);
      net::ShipperOptions shipper_options;
      shipper_options.port = stack->collector->port();
      shipper_options.shipper_id = n + 1;
      node.shipper = std::make_unique<net::SnapshotShipper>(shipper_options);
      node.shipper->Start();
      stack->nodes.push_back(std::move(node));
    }
    if (!stack->client.Connect("127.0.0.1", stack->collector->port(),
                               kClientTimeoutMs)) {
      Fatal("client cannot connect to the collector");
    }
    return stack;
  }

  void PlayRound(Stack& stack, bool traced, bool keep) {
    const auto round_id = static_cast<uint32_t>(rounds_played_++);
    tracer_.SetRound(traced, round_id);
    uint64_t stage_ns[kStages] = {};
    Timed round(tracer_, "round");

    // Batches interleave across nodes, as if the nodes were fed in parallel.
    uint64_t last_ingest_start = 0;
    uint64_t ingest_calls_ns = 0;
    const size_t batches = spec_.round_elements / spec_.batch;
    const size_t nodes = stack.nodes.size();
    Timed ingest(tracer_, "pipeline.ingest");
    for (size_t b = 0; b < batches; ++b) {
      for (size_t n = 0; n < nodes; ++n) {
        const std::span<const Element> batch(
            inputs_[n].data() + b * spec_.batch, spec_.batch);
        const bool last = b + 1 == batches && n + 1 == nodes;
        bool ok = false;
        if (traced) {
          Timed call(tracer_, "Ingest");
          if (last) last_ingest_start = call.start_ns();
          ok = stack.nodes[n].pipeline->Ingest(batch);
          ingest_calls_ns += call.Stop();
        } else {
          if (last) last_ingest_start = NowNs();
          ok = stack.nodes[n].pipeline->Ingest(batch);
        }
        Count(ok, "Ingest refused a batch");
      }
    }
    const uint64_t ingest_loop_ns = ingest.Stop();
    // Traced rounds time each call, which excludes the span bookkeeping.
    stage_ns[kIngest] = traced ? ingest_calls_ns : ingest_loop_ns;
    stack.elements_per_node += spec_.round_elements;
    if (keep) rec_.batches += batches * nodes;

    Timed flush(tracer_, "pipeline.flush");
    for (IngestNode& node : stack.nodes) {
      Timed call(tracer_, "Flush");
      node.pipeline->Flush();
      call.Stop();
      Count(true, "Flush");
    }
    stage_ns[kFlush] = flush.Stop();

    std::vector<StreamSketch<Element>> snapshots(nodes);
    Timed snapshot(tracer_, "pipeline.snapshot");
    for (size_t n = 0; n < nodes; ++n) {
      Timed call(tracer_, "Snapshot");
      snapshots[n] = stack.nodes[n].pipeline->Snapshot();
      call.Stop();
      Count(snapshots[n].valid(), "Snapshot returned an invalid sketch");
    }
    stage_ns[kSnapshot] = snapshot.Stop();

    std::vector<std::vector<uint8_t>> frames(nodes);
    Timed serialize(tracer_, "wire.serialize");
    for (size_t n = 0; n < nodes; ++n) {
      Timed call(tracer_, "WriteSnapshot");
      wire::BufferSink sink;
      const bool ok =
          wire::WriteSnapshot(snapshots[n], stack.nodes[n].config, sink);
      frames[n] = sink.TakeBytes();
      call.Stop();
      Count(ok, "WriteSnapshot failed");
      if (keep) {
        rec_.frame_kib.push_back(static_cast<double>(frames[n].size()) /
                                 1024.0);
      }
    }
    stage_ns[kSerialize] = serialize.Stop();

    Timed ship(tracer_, "net.ship");
    for (size_t n = 0; n < nodes; ++n) {
      Timed call(tracer_, "Offer");
      stack.nodes[n].shipper->Offer(std::move(frames[n]),
                                    stack.nodes[n].pipeline->total_ingested());
      call.Stop();
      Count(true, "Offer");
    }
    for (IngestNode& node : stack.nodes) {
      Timed call(tracer_, "WaitUntilDrained");
      const bool ok = node.shipper->WaitUntilDrained(kDrainTimeoutMs);
      call.Stop();
      Count(ok, "WaitUntilDrained timed out");
    }
    stage_ns[kShip] = ship.Stop();

    // The round's EstimateFrequency keys rotate through the key set.
    std::vector<size_t> keys;
    for (size_t i = 0; i < spec_.frequency_queries; ++i) {
      keys.push_back((round_id * spec_.frequency_queries + i) %
                     key_set_.size());
    }
    Timed observe(tracer_, "query.observe");
    uint64_t fresh_ns = 0;
    bool covered = false;
    auto answered = [&](QueryKind kind, const Timed& call, bool ok,
                        const net::QueryFreshness& freshness) {
      // Every answer must reflect every element ingested so far.
      const bool fresh =
          ok && freshness.min_watermark == stack.elements_per_node &&
          freshness.contributing_shippers == nodes;
      Count(fresh, "an answer's freshness did not cover the round");
      if (fresh && !covered) {
        covered = true;
        fresh_ns = call.end_ns() - last_ingest_start;
      }
      if (keep) {
        rec_.query_us.push_back(
            static_cast<double>(call.end_ns() - call.start_ns()) * 1e-3);
        rec_.query_kind.push_back(QueryName(kind));
        rec_.query_traced.push_back(traced ? 1 : 0);
      }
    };
    if (spec_.heavy_hitters) {
      Timed call(tracer_, QueryName(QueryKind::kHeavyHitters));
      std::vector<HeavyHitter> hits;
      net::QueryFreshness freshness;
      const bool ok = stack.client.HeavyHitters(kHeavyPhi, &hits, nullptr,
                                                &freshness);
      call.Stop();
      answered(QueryKind::kHeavyHitters, call, ok, freshness);
      Count(ok && hits == reference_heavy_,
            "HeavyHitters differs from the single-process CountMin");
    }
    for (size_t k : keys) {
      Timed call(tracer_, QueryName(QueryKind::kFrequency));
      double estimate = 0.0;
      net::QueryFreshness freshness;
      const bool ok = stack.client.EstimateFrequency(key_set_[k], &estimate,
                                                     nullptr, &freshness);
      call.Stop();
      answered(QueryKind::kFrequency, call, ok, freshness);
      Count(ok && estimate == reference_frequency_[k],
            "EstimateFrequency differs from the single-process CountMin");
    }
    for (double q : spec_.quantiles) {
      Timed call(tracer_, QueryName(QueryKind::kQuantile));
      double value = 0.0;
      net::QueryFreshness freshness;
      const bool ok = stack.client.Quantile(q, &value, nullptr, &freshness);
      call.Stop();
      answered(QueryKind::kQuantile, call, ok, freshness);
      Count(ok && RankWithinEps(q, value),
            "a Quantile answer's true rank is not within eps of q");
    }
    stage_ns[kObserve] = observe.Stop();
    const uint64_t round_ns = round.Stop();
    if (!covered) Fail("no observe answer covered the round");
    if (traced && keep) LocalQueries(stack, keys);
    tracer_.SetRound(false, round_id);

    if (!keep) return;
    rec_.traced.push_back(traced ? 1 : 0);
    rec_.round_ms.push_back(static_cast<double>(round_ns) * 1e-6);
    rec_.fresh_ms.push_back(static_cast<double>(fresh_ns) * 1e-6);
    for (int s = 0; s < kStages; ++s) {
      rec_.stage_ms[s].push_back(static_cast<double>(stage_ns[s]) * 1e-6);
    }
  }

  // The round's observe queries again, in-process: same lock, same merged
  // sketch, no transport. Outside the round's timing.
  void LocalQueries(const Stack& stack, const std::vector<size_t>& keys) {
    const net::Collector<Element>& collector = *stack.collector;
    auto time = [&](QueryKind kind, auto&& query) {
      Timed call(tracer_, LocalQueryName(kind));
      const bool ok = query().has_value();
      rec_.local_us.push_back(static_cast<double>(call.Stop()) * 1e-3);
      rec_.local_kind.push_back(QueryName(kind));
      Count(ok, "an in-process collector query had no answer");
    };
    if (spec_.heavy_hitters) {
      time(QueryKind::kHeavyHitters,
           [&] { return collector.HeavyHitters(kHeavyPhi); });
    }
    for (size_t k : keys) {
      const Element key = key_set_[k];
      time(QueryKind::kFrequency,
           [&] { return collector.EstimateFrequency(key); });
    }
    for (double q : spec_.quantiles) {
      time(QueryKind::kQuantile, [&] { return collector.Quantile(q); });
    }
  }

  // The true rank of `value` in the replayed input is within eps of q.
  bool RankWithinEps(double q, double value) const {
    const double n = static_cast<double>(sorted_.size());
    const auto x = static_cast<Element>(value);
    if (static_cast<double>(x) != value || n == 0.0) return false;
    const auto lo = std::lower_bound(sorted_.begin(), sorted_.end(), x);
    const auto hi = std::upper_bound(lo, sorted_.end(), x);
    const double rank_lo = static_cast<double>(lo - sorted_.begin()) / n;
    const double rank_hi = static_cast<double>(hi - sorted_.begin()) / n;
    return rank_hi >= q - kEps && rank_lo <= q + kEps;
  }

  // After the measured rounds: the full key set (hh-zipf) or a quantile grid
  // (quantile-rr, fanin-3) through the client.
  void FinalChecks(Stack& stack) {
    for (size_t k = 0; k < key_set_.size(); ++k) {
      double estimate = 0.0;
      const bool ok = stack.client.EstimateFrequency(key_set_[k], &estimate);
      Count(ok && estimate == reference_frequency_[k],
            "final EstimateFrequency differs from the single-process "
            "CountMin");
    }
    if (!sorted_.empty()) {
      for (double q : {0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                       0.9, 0.95, 0.99}) {
        double value = 0.0;
        const bool ok = stack.client.Quantile(q, &value);
        Count(ok && RankWithinEps(q, value),
              "a final Quantile answer's true rank is not within eps of q");
      }
    }
  }

  // The same job single-threaded: the workload's batches, in the driver's
  // order, through one registry-created sketch's InsertBatch.
  void DirectBaseline() {
    StreamSketch<Element> sketch =
        SketchRegistry<Element>::Global().Create(configs_[0]);
    const size_t batches = spec_.round_elements / spec_.batch;
    const double elements =
        static_cast<double>(spec_.round_elements * spec_.nodes);
    const uint64_t start = NowNs();
    while (rec_.direct_meps.size() < 3 ||
           static_cast<double>(NowNs() - start) * 1e-9 < kDirectSeconds) {
      const uint64_t pass_start = NowNs();
      for (size_t b = 0; b < batches; ++b) {
        for (const auto& pool : inputs_) {
          sketch.InsertBatch(std::span<const Element>(
              pool.data() + b * spec_.batch, spec_.batch));
        }
      }
      const double pass_s = static_cast<double>(NowNs() - pass_start) * 1e-9;
      rec_.direct_meps.push_back(elements / pass_s * 1e-6);
    }
  }

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const std::string work_dir_;
  std::string tmp_dir_;

  std::vector<std::vector<Element>> inputs_;  // one round's elements per node
  std::vector<SketchConfig> configs_;          // per node
  std::vector<Element> key_set_;               // count_min query keys
  std::vector<double> reference_frequency_;    // per key_set_ entry
  std::vector<HeavyHitter> reference_heavy_;
  std::vector<Element> sorted_;  // every node's input, sorted (quantiles)

  Tracer tracer_;
  Record rec_;
  size_t rounds_played_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

int Main(int argc, char** argv) {
  std::string workload, work_dir, trace_out;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown flag %s\n",
                   flag.c_str());
      return 2;
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Workloads()) {
    if (workload == s.name) spec = &s;
  }
  if (spec == nullptr || !have_seed || seconds <= 0.0 || work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload hh-zipf|quantile-rr|"
                 "fanin-3 --seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  Bench bench(*spec, seed, work_dir);
  bench.Run(seconds, trace, trace_out);
  bench.Print(trace);
  return bench.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace robust_sampling

int main(int argc, char** argv) { return robust_sampling::Main(argc, argv); }
