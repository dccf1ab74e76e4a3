#ifndef ROBUST_SAMPLING_OBS_METRICS_H_
#define ROBUST_SAMPLING_OBS_METRICS_H_

// ---------------------------------------------------------------------------
// Low-overhead runtime metrics: lock-free counters, gauges and log-bucketed
// latency histograms behind a process-global MetricRegistry.
//
// Design constraints, in order:
//  * Instrumented hot paths (per-batch pipeline publishes, per-Append wire
//    writes) must stay allocation-free and contention-free: counters and
//    histograms are striped into cache-line-padded per-thread cells (each
//    thread writes its own stripe with one relaxed fetch_add) and are
//    aggregated only at read time. Registry lookups (mutex + map) happen at
//    registration, never on the update path — call sites cache pointers.
//  * One switch: SetRuntimeEnabled(false) turns every update into one
//    relaxed load and a return. No build mode compiles the metrics out;
//    docs/observability.md records the A/B that showed none is needed.
//  * No dependencies outside the standard library, so every layer —
//    core/, wire/, pipeline/, attacklab/ — may instrument freely.
//
// Exporters: ToJson() (a JSON array of per-metric rows, built on the
// harness MarkdownTable machinery so BENCH_*.json can embed it and
// tools/bench_diff.py can diff the numeric columns) and
// ToPrometheusText() (Prometheus text exposition format, for the future
// TCP collector tier). The metric catalog and naming convention live in
// docs/observability.md; the standard accessors in obs/catalog.h.
// ---------------------------------------------------------------------------

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace robust_sampling {

class MarkdownTable;  // harness/table.h — ToTable() builds one

namespace obs {

/// Optional single label attached to a metric instance (e.g. per sketch
/// kind or per shard). Instances sharing a name but differing in label are
/// distinct time series under one documented base name.
struct MetricLabel {
  std::string key;
  std::string value;
  bool empty() const { return key.empty(); }
};

/// Number of update stripes per counter/histogram. Each thread is assigned
/// a stripe round-robin on first touch, so up to kStripes threads update
/// without ever sharing a cache line; beyond that, threads share stripes
/// (still correct, briefly contended).
inline constexpr size_t kStripes = 16;

/// Histogram buckets are log2-spaced: bucket 0 holds value 0, bucket i
/// (1 <= i < kHistogramBuckets-1) holds values with bit_width == i (upper
/// bound 2^i - 1), and the last bucket is the +Inf overflow. 2^38 ns is
/// ~4.6 minutes — far past any in-process latency this repo measures.
inline constexpr size_t kHistogramBuckets = 40;

namespace internal {
/// This thread's stripe index (assigned on first use).
size_t ThreadStripe();
}  // namespace internal

/// Runtime kill switch, used by benches to measure instrumented vs
/// uninstrumented throughput in one binary (bench_t3's obs-off row).
void SetRuntimeEnabled(bool enabled);
bool RuntimeEnabled();

/// Monotonic nanoseconds (steady clock).
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event count. Update: one relaxed fetch_add on
/// this thread's stripe. Read: sum over stripes (racy-by-design snapshot;
/// exact once updaters quiesce).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (!RuntimeEnabled()) return;
    cells_[internal::ThreadStripe()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kStripes];
};

/// Last-write-wins instantaneous value, plus a monotone SetMax for
/// high-water marks (ring occupancy). Not striped: gauges are written at
/// coarse points (per batch at most), and a high-water mark needs one
/// authoritative cell.
class Gauge {
 public:
  void Set(int64_t v) {
    if (!RuntimeEnabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }

  void Add(int64_t d) {
    if (!RuntimeEnabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }

  /// Raises the gauge to `v` if `v` is larger (high-water mark).
  void SetMax(int64_t v) {
    if (!RuntimeEnabled()) return;
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucketed histogram of non-negative values (latencies in ns, sizes
/// in bytes). Update: three relaxed fetch_adds on this thread's stripe.
class Histogram {
 public:
  void Observe(uint64_t value) {
    if (!RuntimeEnabled()) return;
    Stripe& stripe = stripes_[internal::ThreadStripe()];
    stripe.count.fetch_add(1, std::memory_order_relaxed);
    stripe.sum.fetch_add(value, std::memory_order_relaxed);
    stripe.buckets[BucketIndex(value)].fetch_add(1,
                                                 std::memory_order_relaxed);
  }

  struct Aggregate {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t buckets[kHistogramBuckets] = {};

    /// Upper bound of the bucket where the cumulative count first reaches
    /// q * count (0 when empty). A log2-granular quantile estimate.
    uint64_t ApproxQuantile(double q) const;
    /// Upper bound of the highest non-empty bucket (0 when empty).
    uint64_t ApproxMax() const;
  };

  Aggregate Read() const {
    Aggregate agg;
    for (const Stripe& stripe : stripes_) {
      agg.count += stripe.count.load(std::memory_order_relaxed);
      agg.sum += stripe.sum.load(std::memory_order_relaxed);
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        agg.buckets[b] += stripe.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return agg;
  }

  /// Inclusive upper bound of bucket i (2^i - 1); the last bucket is +Inf.
  static uint64_t BucketUpperBound(size_t i);

  static size_t BucketIndex(uint64_t value) {
    if (value == 0) return 0;
    const size_t width = static_cast<size_t>(std::bit_width(value));
    return width < kHistogramBuckets - 1 ? width : kHistogramBuckets - 1;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kHistogramBuckets] = {};
  };
  Stripe stripes_[kStripes];
};

/// RAII latency span: records elapsed nanoseconds into `histogram` at
/// scope exit.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram& histogram)
      : histogram_(histogram), start_ns_(NowNanos()) {}
  ~ScopedLatencyTimer() { histogram_.Observe(NowNanos() - start_ns_); }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram& histogram_;
  uint64_t start_ns_;
};

/// Process-global metric registry. Get* registers on first use and returns
/// a pointer that stays valid for the process lifetime; repeated calls
/// with the same (name, label) return the same instance. Lookups take a
/// mutex — call once and cache the pointer on hot paths (obs/catalog.h
/// accessors do exactly that).
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  Counter* GetCounter(const std::string& name, const std::string& help = "",
                      const MetricLabel& label = {});
  Gauge* GetGauge(const std::string& name, const std::string& help = "",
                  const MetricLabel& label = {});
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "",
                          const MetricLabel& label = {});

  /// One row per registered metric, sorted by (name, label) so snapshots
  /// are deterministic. Columns: metric | type | value | count | p50 |
  /// p90 | p99 | max — counters/gauges fill `value`, histograms fill
  /// sum-in-`value` plus count and the log2-granular quantile estimates.
  MarkdownTable ToTable() const;

  /// ToTable() rendered as a JSON array of row objects (numeric cells
  /// unquoted) — the payload benches embed into BENCH_*.json under
  /// `"metrics"` when run with --metrics.
  std::string ToJson() const;

  /// Prometheus text exposition format (# HELP/# TYPE lines, cumulative
  /// `_bucket{le=...}` histogram series).
  std::string ToPrometheusText() const;

  /// Registered full names (label-qualified), sorted.
  std::vector<std::string> Names() const;

 private:
  MetricRegistry() = default;
  struct Impl;
  Impl* impl();  // lazily built, leaked on exit (threads may outlive main)
  std::atomic<Impl*> impl_{nullptr};
};

}  // namespace obs
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_OBS_METRICS_H_
