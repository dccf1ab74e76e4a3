#ifndef ROBUST_SAMPLING_PIPELINE_SHARDED_PIPELINE_H_
#define ROBUST_SAMPLING_PIPELINE_SHARDED_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/random.h"
#include "obs/catalog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "pipeline/batch_pool.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/spsc_ring.h"
#include "pipeline/stream_sketch.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace robust_sampling {

/// How Ingest routes elements to shards.
enum class PartitionPolicy {
  /// Content-addressed: element x always lands on shard hash(x) % N.
  /// Deterministic per element regardless of batch boundaries or which
  /// producer delivered it; the right choice when per-shard sketches
  /// answer per-key questions (CountMin, heavy hitters) or when replay
  /// determinism across different batch sizes matters.
  kHash,
  /// Each batch is split into N contiguous chunks, one per shard — zero
  /// per-element routing work and zero-copy fan-out (the chunks are span
  /// slices of one shared buffer), the throughput choice for samplers (a
  /// uniform sample of a union does not care how the union was cut).
  kRoundRobin,
};

/// Tuning for ShardedPipeline.
struct PipelineOptions {
  /// Number of worker shards (each owns one sketch instance and one
  /// thread). Requires >= 1.
  size_t num_shards = 4;
  PartitionPolicy partition = PartitionPolicy::kRoundRobin;
  /// Backpressure bound, expressed as ring capacity: each producer's SPSC
  /// ring into each shard holds at most this many outstanding batch
  /// slices (rounded up to a power of two); that producer's Ingest blocks
  /// while its target ring is full. Requires >= 1.
  size_t ring_capacity = 64;
  /// Pool pre-warm hint: when > 0, the constructor preallocates enough
  /// pooled batch buffers (each with room for this many elements) to cover
  /// each producer's worst-case in-flight load, so steady-state Ingest
  /// performs zero heap allocations from the first batch onward. When 0,
  /// the pools warm up on demand instead (allocation-free only after the
  /// in-flight high-water mark has been seen).
  size_t prewarm_batch_elements = 0;
  /// Admission bound: batches larger than this are *rejected* by
  /// Ingest/IngestBorrowed (return false, nothing queued, counted in
  /// rejected_batches()) rather than silently accepted into one oversized
  /// pooled buffer. 0 disables the bound. Rejection is distinct from
  /// backpressure, which delays but never drops.
  size_t max_batch_elements = 0;
  /// Fan-in width P: the maximum number of producer handles
  /// (RegisterProducer()) this pipeline supports. Every producer gets its
  /// own private SPSC ring into every shard (a P x num_shards matrix), so
  /// producers never contend with each other on the hot path; shard
  /// workers drain their column round-robin. The pipeline-level
  /// Ingest/IngestBorrowed calls are an alias for producer 0's handle.
  /// Requires >= 1. Memory cost is one ring per (producer, shard) pair,
  /// paid at construction.
  size_t max_producers = 1;
};

/// Sharded, batched, multi-producer stream-ingestion engine.
///
/// N worker shards each own an independently seeded sketch (instantiated
/// from one SketchConfig via SketchRegistry<T>). Up to P producers
/// (RegisterProducer()) each own a private fixed-capacity SPSC ring into
/// every shard — a P x N fan-in matrix with no shared MPSC point anywhere
/// on the hot path: a publish is one release store into a ring only its
/// owner ever pushes to, and each shard's worker drains its column of P
/// rings round-robin, parking on a per-shard FanInGate when the whole
/// column is empty. Batches are refcounted pooled buffers (one pool per
/// producer; batch_pool.h) sliced per shard; `IngestBorrowed` feeds
/// caller-owned memory with no copy at all. `Snapshot()` folds the
/// per-shard states into one merged StreamSketch answering for the entire
/// stream.
///
/// Adversarial-robustness note: sharding changes *when* an adversary can
/// observe state (between batches rather than between elements) but not
/// the distribution of any per-shard sample, and the merged snapshot of
/// per-shard reservoirs is distributed exactly as one global reservoir
/// over the union (ReservoirSampler::Merge). Theorem 1.2 sizing therefore
/// applies to the merged sample unchanged (see docs/pipeline.md).
///
/// Threading contract: each Producer handle is single-threaded (one
/// producer thread per handle; handles are independent). The control
/// surface — Flush/Snapshot/Query/Checkpoint/ShardStreamSizes — may be
/// called from any thread, concurrently with active producers: Flush
/// fences *per producer* (every batch whose Ingest call happened-before
/// the Flush is folded before Flush returns; concurrent publishes may or
/// may not be included). Stop requires all producers quiescent.
/// Determinism: with fixed config.seed, fixed batch sizes and a single
/// producer, the merged snapshot is bit-for-bit reproducible under either
/// partitioning policy (kHash is additionally batch-size-invariant, and
/// its per-shard multisets are producer-interleaving-invariant).
template <typename T>
class ShardedPipeline {
 public:
  /// A registered producer's private ingestion handle: one SPSC ring per
  /// shard, a private batch pool, a private round-robin cursor and
  /// private scatter scratch — nothing here is shared with any other
  /// producer, so P producers publish with zero cross-producer contention.
  /// Single-threaded: one thread per handle at a time.
  class Producer {
   public:
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    /// Partitions one batch across the shards: one copy into a pooled
    /// buffer, then per-shard span slices (no per-shard copies, no
    /// allocation in steady state). Blocks when this producer's target
    /// ring is full (backpressure). Returns false — with nothing queued —
    /// only when the batch exceeds `options.max_batch_elements`.
    bool Ingest(std::span<const T> batch) {
      RS_CHECK_MSG(!pipeline_->stopped_.load(std::memory_order_relaxed),
                   "Ingest after Stop");
      if (batch.empty()) return true;
      if (!Admit(batch.size())) return false;
      if (pipeline_->options_.partition == PartitionPolicy::kRoundRobin ||
          pipeline_->shards_.size() == 1) {
        IngestShared(batch);
      } else {
        IngestHashed(batch);
      }
      return true;
    }

    /// True zero-copy ingestion for callers that own stable batch memory
    /// (replaying an in-memory stream, arena-backed network buffers, ...):
    /// shards receive span slices of the *caller's* memory — nothing is
    /// materialized, pooled, or copied. Lifetime contract: `batch` must
    /// stay valid until the next Flush() (or Snapshot()/Query()/Stop(),
    /// which flush). Under kHash the scatter is content-addressed, so the
    /// partition pass still writes into a pooled buffer; the borrowed
    /// fast path applies to kRoundRobin and single-shard topologies.
    /// Routing, determinism, admission and backpressure are identical to
    /// Ingest — the two can be mixed freely.
    bool IngestBorrowed(std::span<const T> batch) {
      RS_CHECK_MSG(!pipeline_->stopped_.load(std::memory_order_relaxed),
                   "Ingest after Stop");
      if (batch.empty()) return true;
      if (!Admit(batch.size())) return false;
      if (pipeline_->options_.partition != PartitionPolicy::kRoundRobin &&
          pipeline_->shards_.size() > 1) {
        IngestHashed(batch);
        return true;
      }
      ScatterRoundRobin(batch.size(), [&](size_t offset, size_t len) {
        return BatchSlice<T>::Borrowed(batch.data() + offset, len);
      });
      return true;
    }

    /// This producer's column index in the P x S ring matrix.
    size_t index() const { return index_; }

   private:
    friend class ShardedPipeline;

    /// One (producer, shard) cell of the fan-in matrix: the private ring
    /// plus the flush protocol's per-lane counters. `pushed` has a single
    /// writer (the owning producer), `completed` has a single writer (the
    /// shard worker); Flush reads both with acquire loads — this is the
    /// per-producer fence that replaces the old single-producer plain
    /// `pushed` counter (which raced once Flush could run concurrently
    /// with another producer's ingestion).
    struct Lane {
      explicit Lane(size_t ring_capacity) : ring(ring_capacity) {}
      SpscRing<BatchSlice<T>> ring;
      alignas(64) std::atomic<uint64_t> pushed{0};
      alignas(64) std::atomic<uint64_t> completed{0};
    };

    Producer(ShardedPipeline* pipeline, size_t index)
        : pipeline_(pipeline), index_(index) {
      const PipelineOptions& options = pipeline->options_;
      lanes_.reserve(options.num_shards);
      for (size_t s = 0; s < options.num_shards; ++s) {
        auto lane = std::make_unique<Lane>(options.ring_capacity);
        lane->ring.AttachConsumerGate(&pipeline->shards_[s]->gate);
        lanes_.push_back(std::move(lane));
      }
      elements_metric_ = &obs::PipelineProducerElements(index);
    }

    /// Admission check shared by Ingest/IngestBorrowed: counts the accept
    /// or the rejection (rejected work must be *visible*, not inferred
    /// from missing elements).
    bool Admit(size_t batch_size) {
      const PipelineOptions& options = pipeline_->options_;
      if (options.max_batch_elements != 0 &&
          batch_size > options.max_batch_elements) {
        pipeline_->rejected_batches_.fetch_add(1, std::memory_order_relaxed);
        obs::PipelineRejectedBatches().Increment();
        return false;
      }
      pipeline_->total_ingested_.fetch_add(batch_size,
                                           std::memory_order_relaxed);
      obs::PipelineIngestBatches().Increment();
      obs::PipelineIngestElements().Increment(batch_size);
      elements_metric_->Increment(batch_size);
      return true;
    }

    /// The round-robin routing arithmetic, shared by the pooled and
    /// borrowed paths so their shard assignment stays bit-identical (the
    /// Ingest/IngestBorrowed snapshot-equality contract). `make_slice`
    /// builds the slice for one contiguous chunk [offset, offset + len).
    template <typename SliceFactory>
    void ScatterRoundRobin(size_t batch_size, SliceFactory&& make_slice) {
      const size_t n = pipeline_->shards_.size();
      const size_t start = static_cast<size_t>(
          rr_start_.load(std::memory_order_relaxed));
      const size_t base = batch_size / n;
      const size_t rem = batch_size % n;
      size_t offset = 0;
      for (size_t i = 0; i < n && offset < batch_size; ++i) {
        const size_t shard = (start + i) % n;
        const size_t len = base + (i < rem ? 1 : 0);
        if (len == 0) continue;
        PushSlice(shard, make_slice(offset, len));
        offset += len;
      }
      // Rotate so that sub-chunk-size batches do not pile onto shard 0.
      // Atomic only because Checkpoint may read the cursor concurrently;
      // this producer thread is the sole writer.
      rr_start_.store((start + 1) % n, std::memory_order_relaxed);
    }

    /// Round-robin (and the single-shard fast path of either policy): the
    /// batch is materialized once into one pooled buffer and every shard
    /// receives a span slice of it.
    void IngestShared(std::span<const T> batch) {
      BatchBuffer<T>* buffer = pool_.Acquire();
      buffer->data.assign(batch.begin(), batch.end());
      ScatterRoundRobin(batch.size(), [&](size_t offset, size_t len) {
        return pool_.MakeSlice(buffer, offset, len);
      });
      pool_.Release(buffer);  // drop the producer ref; slices keep it alive
    }

    /// Vectorized hash partition: one counting-sort-style pass buckets the
    /// whole batch into per-shard contiguous runs of a single pooled
    /// buffer, then publishes one slice per non-empty run. Three tight
    /// loops (hash+count, prefix-sum, scatter) with no per-element
    /// branching on ring state. Scratch vectors keep their capacity across
    /// batches (allocation-free after warm-up). The scatter is stable, so
    /// each shard receives its elements in stream order — the routing
    /// oracle in tests/multi_producer_test.cc checks it shard by shard.
    void IngestHashed(std::span<const T> batch) {
      obs::ScopedLatencyTimer timer(obs::PipelinePartitionNs());
      const size_t n = pipeline_->shards_.size();
      const size_t m = batch.size();
      shard_of_.resize(m);
      counts_.assign(n, 0);
      for (size_t i = 0; i < m; ++i) {
        const auto s = static_cast<uint32_t>(HashElement(batch[i]) % n);
        shard_of_[i] = s;
        ++counts_[s];
      }
      run_start_.resize(n);
      run_cursor_.resize(n);
      size_t offset = 0;
      for (size_t s = 0; s < n; ++s) {
        run_start_[s] = offset;
        run_cursor_[s] = offset;
        offset += counts_[s];
      }
      BatchBuffer<T>* buffer = pool_.Acquire();
      buffer->data.resize(m);
      T* out = buffer->data.data();
      for (size_t i = 0; i < m; ++i) {
        out[run_cursor_[shard_of_[i]]++] = batch[i];
      }
      for (size_t s = 0; s < n; ++s) {
        if (counts_[s] == 0) continue;
        PushSlice(s, pool_.MakeSlice(buffer, run_start_[s], counts_[s]));
      }
      pool_.Release(buffer);
    }

    void PushSlice(size_t shard, BatchSlice<T> slice) {
      Lane& lane = *lanes_[shard];
      if (lane.ring.Push(std::move(slice))) {
        pipeline_->backpressure_waits_.fetch_add(1,
                                                 std::memory_order_relaxed);
        obs::PipelineBackpressureStalls().Increment();
      }
      // Single writer; release pairs with Flush's acquire load so a fence
      // ordered after this Ingest observes the publish.
      lane.pushed.store(lane.pushed.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
      obs::PipelineRingOccupancyHwm().SetMax(
          static_cast<int64_t>(lane.ring.SizeApprox()));
    }

    ShardedPipeline* pipeline_;
    size_t index_;
    BatchPool<T> pool_;  // declared before lanes_: outlives the slices
    std::vector<std::unique_ptr<Lane>> lanes_;  // one ring per shard
    // Round-robin cursor; atomic only for the Checkpoint read, the owning
    // producer thread is the sole writer.
    std::atomic<uint64_t> rr_start_{0};
    // Vectorized-partition scratch (capacity sticky across batches).
    std::vector<uint32_t> shard_of_;
    std::vector<size_t> counts_;
    std::vector<size_t> run_start_;
    std::vector<size_t> run_cursor_;
    obs::Counter* elements_metric_ = nullptr;
  };

  ShardedPipeline(const SketchConfig& config, const PipelineOptions& options)
      : config_(config), options_(options) {
    RS_CHECK_MSG(options.num_shards >= 1, "need at least one shard");
    RS_CHECK_MSG(options.ring_capacity >= 1, "ring capacity must be >= 1");
    RS_CHECK_MSG(options.max_producers >= 1, "need at least one producer");
    const auto& registry = SketchRegistry<T>::Global();
    shards_.reserve(options.num_shards);
    for (size_t s = 0; s < options.num_shards; ++s) {
      auto shard = std::make_unique<Shard>(s);
      shard->sketch =
          registry.Create(config, MixSeed(config.seed, uint64_t{s}));
      shard->elements_metric = &obs::PipelineShardElements(s);
      shards_.push_back(std::move(shard));
    }
    // Cached once, before any worker can touch a sketch: Capabilities()
    // must not read a live sketch concurrently with InsertBatch.
    capabilities_ = shards_[0]->sketch.Capabilities();
    // The whole P x S lane matrix exists before any worker starts, so
    // RegisterProducer is a wait-free index handout and workers can scan
    // a fixed set of rings without ever racing a growing container.
    producers_.reserve(options.max_producers);
    for (size_t p = 0; p < options.max_producers; ++p) {
      producers_.push_back(
          std::unique_ptr<Producer>(new Producer(this, p)));
    }
    if (options.prewarm_batch_elements > 0) {
      // Worst-case in-flight buffers per producer: every ring slot in its
      // row plus one batch in each worker's hands plus the one being
      // filled (each batch pins at most one pooled buffer).
      const size_t ring_cap = producers_[0]->lanes_[0]->ring.capacity();
      for (auto& producer : producers_) {
        producer->pool_.Reserve(options.num_shards * (ring_cap + 2) + 2,
                                options.prewarm_batch_elements);
      }
    }
    for (size_t s = 0; s < options.num_shards; ++s) {
      shards_[s]->worker = std::thread(&ShardedPipeline::WorkerLoop, this,
                                       shards_[s].get());
    }
  }

  ~ShardedPipeline() { Stop(); }

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Claims the next free producer column (0, 1, 2, ... in registration
  /// order) and returns its handle, valid for the pipeline's lifetime.
  /// Thread-safe and wait-free (the lane matrix is preallocated). Checks
  /// that at most `options.max_producers` handles are ever claimed.
  /// Producer 0 doubles as the pipeline-level Ingest/IngestBorrowed path —
  /// claim it *either* via RegisterProducer *or* via the pipeline-level
  /// calls, not both from different threads.
  Producer& RegisterProducer() {
    const size_t index = registered_.fetch_add(1, std::memory_order_relaxed);
    RS_CHECK_MSG(index < producers_.size(),
                 "RegisterProducer beyond options.max_producers");
    return *producers_[index];
  }

  /// Producer handles claimed so far (monotone).
  size_t registered_producers() const {
    return registered_.load(std::memory_order_relaxed);
  }

  /// Single-producer convenience: producer 0's Ingest. See
  /// Producer::Ingest for semantics.
  bool Ingest(std::span<const T> batch) {
    return producers_.front()->Ingest(batch);
  }

  /// Single-producer convenience: producer 0's IngestBorrowed.
  bool IngestBorrowed(std::span<const T> batch) {
    return producers_.front()->IngestBorrowed(batch);
  }

  /// Blocks until every batch published before this call has been folded
  /// into its shard's sketch. The fence is per producer lane: for each
  /// (producer, shard) pair the pushed counter is read once (acquire) and
  /// the wait is for the worker's completion counter to reach it — so
  /// Flush never chases a producer that keeps publishing, it just
  /// guarantees the happened-before prefix. Callable from any thread,
  /// concurrently with active producers.
  void Flush() {
    std::lock_guard<std::mutex> control(control_mu_);
    FlushLocked();
  }

  /// Flushes, then folds the per-shard sketches (in shard order) into one
  /// merged summary of the whole stream. Ingestion state is untouched —
  /// snapshots can be taken mid-stream and repeatedly; each call returns
  /// an independent deep copy. Safe concurrently with active producers:
  /// each shard sketch is copied under that shard's sketch lock (workers
  /// take the same lock per batch, so a copy never observes a half-folded
  /// batch). The returned handle carries the full erased query surface
  /// (Quantile / Rank / EstimateFrequency / HeavyHitters / SampleView,
  /// per Capabilities()).
  StreamSketch<T> Snapshot() {
    std::lock_guard<std::mutex> control(control_mu_);
    return SnapshotLocked();
  }

  /// Serving path: flushes, merges, and evaluates `query` against the
  /// merged snapshot, e.g.
  ///
  ///     double median = pipeline.Query(
  ///         [](const StreamSketch<int64_t>& s) { return s.Quantile(0.5); });
  ///
  /// Each call pays one flush + merge; batch related reads into one lambda
  /// (or hold a Snapshot()) rather than issuing many point queries. The
  /// snapshot dies when Query returns, so the lambda must return owning
  /// values — returning SampleView / span is rejected at compile time;
  /// copy the elements out or hold a Snapshot() instead.
  template <typename Fn>
  auto Query(Fn&& query) {
    using Result =
        std::remove_cvref_t<std::invoke_result_t<Fn&&,
                                                 const StreamSketch<T>&>>;
    static_assert(!std::is_same_v<Result, SketchSampleView<T>> &&
                      !std::is_same_v<Result, std::span<const T>>,
                  "Query() destroys the merged snapshot on return; a view "
                  "result would dangle. Copy the sample into a vector, or "
                  "hold pipeline.Snapshot() yourself.");
    const StreamSketch<T> snapshot = Snapshot();
    return std::forward<Fn>(query)(snapshot);
  }

  /// The query capabilities of the configured sketch kind (identical on
  /// every shard and on merged snapshots). Cached at construction — never
  /// touches a live sketch, so it is safe to call concurrently with
  /// ingestion.
  uint32_t Capabilities() const { return capabilities_; }

  /// Flushes remaining work and joins the worker threads. Idempotent;
  /// called by the destructor. Requires every producer quiescent (no
  /// Ingest during or after Stop). Snapshot() remains valid afterwards.
  void Stop() {
    if (stopped_.exchange(true)) return;
    closed_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->gate.mu);
      shard->gate.cv.notify_all();
    }
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }

  // --- durability (wire/) -------------------------------------------------

  /// Atomically persists the pipeline's complete ingestion state to
  /// `path`: the SketchConfig, shard topology (producer 0's round-robin
  /// cursor included) and every shard sketch's full wire state — RNG
  /// words and all, so a restored robust sampler continues the exact
  /// sampling trajectory and keeps its Theorem 1.2 adversarial guarantee.
  ///
  /// Crash safety: bytes go to `path + ".tmp"` first, are fsync'd, and the
  /// file is renamed over `path` (with a directory fsync), so a crash
  /// mid-checkpoint leaves the previous checkpoint intact; a torn or
  /// corrupted file is rejected by Restore via the envelope checksum.
  ///
  /// Flushes first, then freezes every shard (all sketch locks held in
  /// shard order) while serializing, so the captured states form one
  /// consistent cut even while other producers keep ingesting: the
  /// checkpoint contains every batch published before the call, plus
  /// possibly some later ones, and nothing half-folded. For an *exact*
  /// cut, quiesce the producers first (single-producer callers get this
  /// for free). Returns false with a reason in `error` if the configured
  /// kind is not serializable or on I/O failure. Not to be confused with
  /// the Theorem 1.4 *analysis* CheckpointSchedule in core/checkpoints.h —
  /// see docs/wire.md.
  ///
  /// `encoding` selects the framed-body encoding (kZstd falls back to
  /// uncompressed when support is missing or compression does not shrink
  /// the body — Restore handles either transparently).
  bool Checkpoint(const std::string& path, std::string* error = nullptr,
                  wire::BodyEncoding encoding = wire::BodyEncoding::kNone) {
    obs::ScopedLatencyTimer timer(obs::PipelineCheckpointNs());
    obs::TraceSpan span("pipeline", "checkpoint");
    std::lock_guard<std::mutex> control(control_mu_);
    if ((capabilities_ & kCapSerialize) == 0) {
      return CheckpointFail(
          error, "sketch kind is not serializable: " + config_.kind);
    }
    // Same validation Restore applies: a config outside the wire limits
    // must fail *now*, not produce a checkpoint that can never revive.
    if (!wire::ValidateWireConfig(config_, error)) {
      obs::FlightRecorder::Global().RecordError(
          "pipeline", "checkpoint rejected: config outside wire limits");
      return false;
    }
    FlushLocked();
    wire::BufferSink body;
    {
      // Freeze all shards for the duration of serialization (workers take
      // one sketch lock at a time, so ordered acquisition cannot
      // deadlock); concurrent producers stall on full rings at worst.
      std::vector<std::unique_lock<std::mutex>> frozen;
      frozen.reserve(shards_.size());
      for (auto& shard : shards_) {
        frozen.emplace_back(shard->sketch_mu);
      }
      wire::PutString(body, wire::ElementTypeTag<T>());
      wire::WriteSketchConfig(body, config_);
      wire::PutVarint(body, shards_.size());
      wire::PutVarint(body,
                      producers_[0]->rr_start_.load(std::memory_order_relaxed));
      wire::PutVarint(body, total_ingested_.load(std::memory_order_relaxed));
      for (auto& shard : shards_) {
        wire::BufferSink payload;
        shard->sketch.SerializeTo(payload);
        wire::PutBytes(body, payload.bytes());
      }
    }
    obs::PipelineCheckpointBytes().Observe(body.bytes().size());
    std::string reason;
    if (!wire::AtomicWriteFile(path, kCheckpointMagic, body.bytes(), encoding,
                               &reason)) {
      return CheckpointFail(error, std::move(reason));
    }
    return true;
  }

  /// Rebuilds a pipeline from a Checkpoint() file: revives the stored
  /// config, reconstructs the shard sketches through SketchRegistry<T>,
  /// and resumes exactly where the checkpointed pipeline stopped —
  /// continuing ingestion yields bit-identical snapshots to a run that
  /// never stopped (asserted in tests/wire_test.cc). `options.num_shards`
  /// must match the checkpoint's shard count (state is per-shard);
  /// the remaining options — max_producers included — are free to differ
  /// (the persisted round-robin cursor restores into producer 0, the
  /// handle that continues a single-producer trajectory bit-identically).
  /// Returns nullptr with a reason in `error` on any malformed, truncated
  /// or incompatible file.
  static std::unique_ptr<ShardedPipeline> Restore(
      const std::string& path, const PipelineOptions& options,
      std::string* error = nullptr) {
    obs::ScopedLatencyTimer timer(obs::PipelineRestoreNs());
    obs::TraceSpan span("pipeline", "restore");
    wire::FileSource file(path);
    if (!file.open()) {
      RestoreFail(error, "cannot open checkpoint: " + path);
      return nullptr;
    }
    std::vector<uint8_t> body;
    uint64_t version = wire::kWireFormatCurrent;
    if (!wire::ReadFramedBody(file, kCheckpointMagic, &body, error,
                              &version)) {
      // The codec already recorded the frame-level error event.
      return nullptr;
    }
    // The frame version governs the nested payload encodings too — stamp
    // it onto the body and every per-shard payload source.
    wire::BufferSource source(body);
    source.set_wire_version(version);
    SketchConfig config;
    if (!wire::ReadRevivalPrologue(source, &config, error,
                                   SketchRegistry<T>::Global())) {
      // Keep the prologue's specific reason in *error; just trace it.
      obs::FlightRecorder::Global().RecordError(
          "pipeline", "restore: checkpoint prologue rejected");
      return nullptr;
    }
    uint64_t num_shards = 0, rr_start = 0, total_ingested = 0;
    if (!wire::GetVarint(source, &num_shards) ||
        !wire::GetVarint(source, &rr_start) ||
        !wire::GetVarint(source, &total_ingested) || num_shards < 1 ||
        rr_start >= num_shards) {
      RestoreFail(error, "malformed checkpoint topology");
      return nullptr;
    }
    if (num_shards != options.num_shards) {
      RestoreFail(error, "checkpoint has " + std::to_string(num_shards) +
                             " shards, options request " +
                             std::to_string(options.num_shards));
      return nullptr;
    }
    auto pipeline = std::make_unique<ShardedPipeline>(config, options);
    if ((pipeline->capabilities_ & kCapSerialize) == 0) {
      RestoreFail(error, "kind is not serializable for this element type: " +
                             config.kind);
      return nullptr;
    }
    // Workers are parked on their fan-in gates and only touch a sketch
    // after a push, so replacing shard states here is race-free; the
    // ring's release/acquire hand-off publishes these writes to the
    // workers.
    for (auto& shard : pipeline->shards_) {
      std::vector<uint8_t> payload;
      if (!wire::GetBytes(source, &payload, wire::kMaxBodyBytes)) {
        RestoreFail(error, "malformed shard payload");
        return nullptr;
      }
      wire::BufferSource payload_source(payload);
      payload_source.set_wire_version(version);
      if (!shard->sketch.DeserializeFrom(payload_source) ||
          payload_source.remaining() != uint64_t{0}) {
        RestoreFail(error, "malformed shard sketch state");
        return nullptr;
      }
    }
    if (source.remaining() != uint64_t{0}) {
      RestoreFail(error, "trailing bytes after checkpoint body");
      return nullptr;
    }
    pipeline->producers_[0]->rr_start_.store(rr_start,
                                             std::memory_order_relaxed);
    pipeline->total_ingested_.store(total_ingested,
                                    std::memory_order_relaxed);
    return pipeline;
  }

  /// Elements handed to Ingest so far across all producers (including
  /// ones still queued; excluding rejected batches).
  size_t total_ingested() const {
    return total_ingested_.load(std::memory_order_relaxed);
  }

  /// Batches refused by Ingest/IngestBorrowed (any producer) for
  /// exceeding options.max_batch_elements. These were *dropped at the
  /// door* — nothing from them was queued or sketched.
  size_t rejected_batches() const {
    return rejected_batches_.load(std::memory_order_relaxed);
  }

  /// Publishes that found their target shard ring full and had to block.
  /// Nonzero means producers outran workers (backpressure engaged); unlike
  /// rejection, no data was lost.
  size_t backpressure_waits() const {
    return backpressure_waits_.load(std::memory_order_relaxed);
  }

  /// Approximate queued batch slices in shard `s`'s fan-in column, summed
  /// over all producer rings. Monitoring only.
  size_t ShardQueueDepth(size_t s) const {
    size_t depth = 0;
    for (const auto& producer : producers_) {
      depth += producer->lanes_[s]->ring.SizeApprox();
    }
    return depth;
  }

  /// Per-shard stream sizes (flushes first).
  std::vector<size_t> ShardStreamSizes() {
    std::lock_guard<std::mutex> control(control_mu_);
    FlushLocked();
    std::vector<size_t> out;
    out.reserve(shards_.size());
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->sketch_mu);
      out.push_back(shard->sketch.StreamSize());
    }
    return out;
  }

  /// Pooled batch buffers created so far, across all producer pools. Flat
  /// across steady-state batches — the pipeline's allocation-free
  /// evidence (asserted in tests).
  size_t PooledBuffers() const {
    size_t total = 0;
    for (const auto& producer : producers_) {
      total += producer->pool_.AllocatedBuffers();
    }
    return total;
  }

  size_t num_shards() const { return shards_.size(); }
  size_t max_producers() const { return producers_.size(); }
  const SketchConfig& config() const { return config_; }
  const PipelineOptions& options() const { return options_; }

 private:
  static constexpr char kCheckpointMagic[4] = {'R', 'S', 'C', 'K'};

  static bool Fail(std::string* error, std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return false;
  }

  static bool CheckpointFail(std::string* error, std::string reason) {
    obs::FlightRecorder::Global().RecordError("pipeline",
                                              "checkpoint: " + reason);
    return Fail(error, std::move(reason));
  }

  static void RestoreFail(std::string* error, std::string reason) {
    obs::FlightRecorder::Global().RecordError("pipeline",
                                              "restore: " + reason);
    Fail(error, std::move(reason));
  }

  struct Shard {
    explicit Shard(size_t index) : index(index) {}

    const size_t index;

    /// The fan-in column's shared consumer-side wakeup channel: every
    /// producer's ring into this shard notifies here, and the worker
    /// parks here when the whole column is empty.
    FanInGate gate;

    /// Guards the sketch at batch granularity: the worker holds it across
    /// each InsertBatch, Snapshot/Checkpoint hold it while copying or
    /// serializing. Uncontended (a few ns per batch) unless a control
    /// call is actively reading — this is what makes Snapshot and
    /// Checkpoint safe while *other* producers keep ingesting.
    std::mutex sketch_mu;
    StreamSketch<T> sketch;
    std::thread worker;

    // Flush wakeup channel: the worker notifies after each completion iff
    // a flusher declared itself waiting (same Dekker-style protocol as
    // the ring's blocked edge). The per-lane pushed/completed counters
    // that the flusher actually fences on live in Producer::Lane.
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::atomic<bool> flush_waiting{false};

    // Cached at construction so the worker's per-batch increment never
    // takes the registry lock (null only before the constructor wires it).
    obs::Counter* elements_metric = nullptr;
  };

  static uint64_t HashElement(const T& x) {
    if constexpr (std::is_integral_v<T>) {
      // std::hash of an integer is typically the identity; mix so that
      // dense key ranges spread evenly across shards.
      return MixSeed(static_cast<uint64_t>(x), 0x9e3779b97f4a7c15ULL);
    } else {
      return MixSeed(static_cast<uint64_t>(std::hash<T>{}(x)),
                     0x9e3779b97f4a7c15ULL);
    }
  }

  /// See Flush(). Caller holds control_mu_.
  void FlushLocked() {
    obs::ScopedLatencyTimer timer(obs::PipelineFlushNs());
    for (auto& shard : shards_) {
      for (auto& producer : producers_) {
        auto& lane = *producer->lanes_[shard->index];
        const uint64_t target = lane.pushed.load(std::memory_order_acquire);
        if (lane.completed.load(std::memory_order_acquire) >= target) {
          continue;
        }
        std::unique_lock<std::mutex> lock(shard->done_mu);
        shard->flush_waiting.store(true, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        shard->done_cv.wait(lock, [&lane, target] {
          return lane.completed.load(std::memory_order_acquire) >= target;
        });
        shard->flush_waiting.store(false, std::memory_order_relaxed);
      }
    }
  }

  /// See Snapshot(). Caller holds control_mu_.
  StreamSketch<T> SnapshotLocked() {
    FlushLocked();
    StreamSketch<T> merged = CopyShardSketch(0);
    for (size_t s = 1; s < shards_.size(); ++s) {
      const StreamSketch<T> piece = CopyShardSketch(s);
      merged.MergeFrom(piece);
    }
    return merged;
  }

  StreamSketch<T> CopyShardSketch(size_t s) {
    std::lock_guard<std::mutex> lock(shards_[s]->sketch_mu);
    return shards_[s]->sketch;
  }

  /// Shard worker: drains its column of the P x S ring matrix round-robin
  /// (rotating the sweep start for fairness), folds each slice under the
  /// shard's sketch lock, and parks on the shard's FanInGate when the
  /// whole column is empty. Exits once the pipeline is closed and a full
  /// sweep finds nothing left.
  void WorkerLoop(Shard* shard) {
    const size_t num_producers = producers_.size();
    BatchSlice<T> slice;
    size_t sweep_start = 0;
    auto sweep = [&]() -> bool {
      bool did_work = false;
      for (size_t i = 0; i < num_producers; ++i) {
        const size_t p = (sweep_start + i) % num_producers;
        auto& lane = *producers_[p]->lanes_[shard->index];
        if (lane.ring.TryPop(slice)) {
          did_work = true;
          ProcessSlice(shard, lane, slice);
        }
      }
      sweep_start = (sweep_start + 1) % num_producers;
      return did_work;
    };
    auto column_empty = [&]() -> bool {
      for (size_t p = 0; p < num_producers; ++p) {
        if (!producers_[p]->lanes_[shard->index]->ring.EmptyApprox()) {
          return false;
        }
      }
      return true;
    };
    for (;;) {
      if (sweep()) continue;
      if (closed_.load(std::memory_order_acquire)) {
        // Producers are quiescent by the Stop contract: one clean sweep
        // after observing closed_ proves the column is drained.
        if (!sweep()) return;
        continue;
      }
      // Declare-then-recheck against every producer's publish-then-check
      // (seq_cst fences on both sides): either a producer sees the
      // waiting flag and notifies the gate, or we see its new tail here
      // and never sleep.
      shard->gate.waiting.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (column_empty() && !closed_.load(std::memory_order_relaxed)) {
        std::unique_lock<std::mutex> lock(shard->gate.mu);
        shard->gate.cv.wait(lock, [&] {
          return closed_.load(std::memory_order_relaxed) || !column_empty();
        });
      }
      shard->gate.waiting.store(false, std::memory_order_relaxed);
    }
  }

  void ProcessSlice(Shard* shard, typename Producer::Lane& lane,
                    BatchSlice<T>& slice) {
    const size_t n = slice.span().size();
    {
      std::lock_guard<std::mutex> lock(shard->sketch_mu);
      shard->sketch.InsertBatch(slice.span());
    }
    shard->elements_metric->Increment(n);
    slice.Release();  // recycle the buffer before signaling completion
    lane.completed.fetch_add(1, std::memory_order_release);
    // Wake a Flush() waiter, if any (same declare/recheck protocol as
    // the ring's blocked edge).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (shard->flush_waiting.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(shard->done_mu);
      shard->done_cv.notify_all();
    }
  }

  SketchConfig config_;
  PipelineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // The P producer columns; the full matrix is built at construction (see
  // RegisterProducer). Destroyed after shards_ workers are joined via
  // ~ShardedPipeline -> Stop(), and declared after shards_ so shard
  // destruction (which no longer touches lanes) is ordering-safe either
  // way.
  std::vector<std::unique_ptr<Producer>> producers_;
  std::atomic<size_t> registered_{0};
  std::atomic<uint64_t> total_ingested_{0};
  std::atomic<uint64_t> rejected_batches_{0};
  std::atomic<uint64_t> backpressure_waits_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> closed_{false};
  // Serializes the control surface (Flush/Snapshot/Checkpoint/...)
  // against itself; producers never take it.
  std::mutex control_mu_;
  uint32_t capabilities_ = 0;
};

}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_PIPELINE_SHARDED_PIPELINE_H_
