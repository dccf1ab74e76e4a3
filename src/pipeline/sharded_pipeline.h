#ifndef ROBUST_SAMPLING_PIPELINE_SHARDED_PIPELINE_H_
#define ROBUST_SAMPLING_PIPELINE_SHARDED_PIPELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/random.h"
#include "obs/catalog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
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
  /// per-element routing work and no copy (each shard folds its chunk
  /// straight from the caller's span), the throughput choice for samplers
  /// (a uniform sample of a union does not care how the union was cut).
  kRoundRobin,
};

/// Tuning for ShardedPipeline.
struct PipelineOptions {
  /// Number of shards (each owns one independently seeded sketch).
  /// Requires >= 1.
  size_t num_shards = 4;
  PartitionPolicy partition = PartitionPolicy::kRoundRobin;
  /// When > 0 and the hash path is in use (kHash with more than one
  /// shard), each producer reserves its scatter scratch for batches of
  /// this many elements, so hash-partitioned Ingest allocates nothing from
  /// its first batch. Round-robin never allocates and ignores it.
  size_t prewarm_batch_elements = 0;
  /// Admission bound: batches larger than this are *rejected* by Ingest
  /// (return false, nothing folded, counted in rejected_batches()). 0
  /// disables the bound.
  size_t max_batch_elements = 0;
};

/// Sharded, batched, multi-producer stream-ingestion engine.
///
/// N shards each own an independently seeded sketch (instantiated from one
/// SketchConfig via SketchRegistry<T>) behind a per-shard lock. Ingest
/// routes a batch into per-shard slices and folds each slice into its
/// shard's sketch on the calling thread, one shard lock at a time, so a
/// batch is in the sketch when Ingest returns. Readers (`Snapshot()`,
/// `Checkpoint()`) copy or serialize each shard under the same lock and
/// merge, in the shape of Rinberg et al., "Fast Concurrent Data Sketches"
/// (PPoPP 2020). `Snapshot()` folds the per-shard states into one merged
/// StreamSketch answering for the entire stream.
///
/// Adversarial-robustness note: sharding changes *when* an adversary can
/// observe state (between batches rather than between elements) but not
/// the distribution of any per-shard sample, and the merged snapshot of
/// per-shard reservoirs is distributed exactly as one global reservoir
/// over the union (ReservoirSampler::Merge). Theorem 1.2 sizing therefore
/// applies to the merged sample unchanged (see docs/pipeline.md).
///
/// Threading contract: each Producer handle is single-threaded (one
/// thread per handle; handles are independent and may ingest
/// concurrently, sharing the shard locks). The control surface —
/// Snapshot/Query/Checkpoint/ShardStreamSizes/RegisterProducer — may be
/// called from any thread, concurrently with active producers; it sees
/// every batch whose Ingest returned before the call, and possibly parts
/// of batches being folded concurrently (never half a slice). Ingest
/// keeps no reference to the caller's memory after it returns.
/// Determinism: with fixed config.seed, fixed batch sizes and a single
/// producer, the merged snapshot is bit-for-bit reproducible under either
/// partitioning policy (kHash is additionally batch-size-invariant, and
/// its per-shard multisets are producer-interleaving-invariant).
template <typename T>
class ShardedPipeline {
 public:
  /// A registered producer's ingestion handle: a private round-robin
  /// cursor and private hash-scatter scratch. Single-threaded: one thread
  /// per handle at a time.
  class Producer {
   public:
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    /// Partitions one batch across the shards and folds each shard's slice
    /// into its sketch under that shard's lock before returning. Routing
    /// allocates nothing in steady state (the hash path once its scratch
    /// has seen the batch size, or from the first batch with prewarm); the
    /// folds allocate only if the sketch kind does (samplers and count_min
    /// do not). Returns false — with nothing folded — only when the batch
    /// exceeds `options.max_batch_elements`.
    bool Ingest(std::span<const T> batch) {
      RS_CHECK_MSG(!pipeline_->stopped_.load(std::memory_order_relaxed),
                   "Ingest after Stop");
      if (batch.empty()) return true;
      if (!Admit(batch.size())) return false;
      if (pipeline_->options_.partition == PartitionPolicy::kRoundRobin ||
          pipeline_->shards_.size() == 1) {
        IngestRoundRobin(batch);
      } else {
        IngestHashed(batch);
      }
      return true;
    }

   private:
    friend class ShardedPipeline;

    Producer(ShardedPipeline* pipeline, size_t index) : pipeline_(pipeline) {
      const PipelineOptions& options = pipeline->options_;
      if (options.partition == PartitionPolicy::kHash &&
          options.num_shards > 1) {
        counts_.reserve(options.num_shards);
        run_cursor_.reserve(options.num_shards);
        shard_of_.reserve(options.prewarm_batch_elements);
        scatter_.reserve(options.prewarm_batch_elements);
      }
      elements_metric_ = &obs::PipelineProducerElements(index);
    }

    /// Counts the accept or the rejection (rejected work must be
    /// *visible*, not inferred from missing elements).
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

    /// Round robin (and the single-shard path of either policy): chunk i
    /// of the batch (length floor(m/N) + [i < m mod N]) goes to shard
    /// (start + i) mod N, folded straight from the caller's span.
    void IngestRoundRobin(std::span<const T> batch) {
      const size_t n = pipeline_->shards_.size();
      const size_t start = static_cast<size_t>(
          rr_start_.load(std::memory_order_relaxed));
      const size_t base = batch.size() / n;
      const size_t rem = batch.size() % n;
      size_t offset = 0;
      for (size_t i = 0; i < n && offset < batch.size(); ++i) {
        const size_t len = base + (i < rem ? 1 : 0);
        if (len == 0) continue;
        pipeline_->Fold((start + i) % n, batch.subspan(offset, len));
        offset += len;
      }
      // Rotate so that sub-chunk-size batches do not pile onto shard 0.
      // Atomic only because Checkpoint may read the cursor concurrently;
      // this producer thread is the sole writer.
      rr_start_.store((start + 1) % n, std::memory_order_relaxed);
    }

    /// Hash partition: one counting-sort pass buckets the whole batch into
    /// per-shard contiguous runs of the scratch buffer (hash+count,
    /// prefix-sum, scatter), then folds each non-empty run. The scatter is
    /// stable, so each shard receives its elements in stream order — the
    /// routing oracle in tests/multi_producer_test.cc checks it shard by
    /// shard. Scratch capacity is sticky across batches.
    void IngestHashed(std::span<const T> batch) {
      const size_t n = pipeline_->shards_.size();
      const size_t m = batch.size();
      {
        obs::ScopedLatencyTimer timer(obs::PipelinePartitionNs());
        shard_of_.resize(m);
        counts_.assign(n, 0);
        for (size_t i = 0; i < m; ++i) {
          const auto s = static_cast<uint32_t>(HashElement(batch[i]) % n);
          shard_of_[i] = s;
          ++counts_[s];
        }
        run_cursor_.resize(n);
        size_t offset = 0;
        for (size_t s = 0; s < n; ++s) {
          run_cursor_[s] = offset;
          offset += counts_[s];
        }
        scatter_.resize(m);
        for (size_t i = 0; i < m; ++i) {
          scatter_[run_cursor_[shard_of_[i]]++] = batch[i];
        }
      }
      // run_cursor_[s] now ends shard s's run.
      for (size_t s = 0; s < n; ++s) {
        if (counts_[s] == 0) continue;
        pipeline_->Fold(s, std::span<const T>(
                               scatter_.data() + run_cursor_[s] - counts_[s],
                               counts_[s]));
      }
    }

    ShardedPipeline* pipeline_;
    // Round-robin cursor; atomic only for the Checkpoint read, the owning
    // producer thread is the sole writer.
    std::atomic<uint64_t> rr_start_{0};
    // Hash-partition scratch (capacity sticky across batches).
    std::vector<uint32_t> shard_of_;
    std::vector<size_t> counts_;
    std::vector<size_t> run_cursor_;
    std::vector<T> scatter_;
    obs::Counter* elements_metric_ = nullptr;
  };

  ShardedPipeline(const SketchConfig& config, const PipelineOptions& options)
      : config_(config), options_(options) {
    RS_CHECK_MSG(options.num_shards >= 1, "need at least one shard");
    const auto& registry = SketchRegistry<T>::Global();
    shards_.reserve(options.num_shards);
    for (size_t s = 0; s < options.num_shards; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->sketch =
          registry.Create(config, MixSeed(config.seed, uint64_t{s}));
      shard->elements_metric = &obs::PipelineShardElements(s);
      shards_.push_back(std::move(shard));
    }
    // Cached once: Capabilities() must not read a live sketch
    // concurrently with InsertBatch.
    capabilities_ = shards_[0]->sketch.Capabilities();
    producers_.push_back(std::unique_ptr<Producer>(new Producer(this, 0)));
    primary_ = producers_.front().get();
  }

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Hands out producer handles 0, 1, 2, ... in registration order, each
  /// valid for the pipeline's lifetime; a handle is made on first claim.
  /// Thread-safe. Producer 0 doubles as the pipeline-level Ingest path —
  /// claim it *either* via RegisterProducer *or* via the pipeline-level
  /// call, not both from different threads.
  Producer& RegisterProducer() {
    std::lock_guard<std::mutex> control(control_mu_);
    const size_t index = registered_.load(std::memory_order_relaxed);
    if (index == producers_.size()) {
      producers_.push_back(
          std::unique_ptr<Producer>(new Producer(this, index)));
    }
    registered_.store(index + 1, std::memory_order_relaxed);
    return *producers_[index];
  }

  /// Producer handles claimed so far (monotone).
  size_t registered_producers() const {
    return registered_.load(std::memory_order_relaxed);
  }

  /// Single-producer convenience: producer 0's Ingest. See
  /// Producer::Ingest for semantics.
  bool Ingest(std::span<const T> batch) { return primary_->Ingest(batch); }

  /// Returns at once: Ingest folds a batch before it returns, so nothing
  /// is ever pending. Kept so callers that fence before reading compile.
  void Flush() {}

  /// Folds the per-shard sketches (in shard order) into one merged
  /// summary of the whole stream. Ingestion state is untouched —
  /// snapshots can be taken mid-stream and repeatedly; each call returns
  /// an independent deep copy. Safe concurrently with active producers:
  /// each shard sketch is copied under that shard's lock (producers fold
  /// under the same lock, so a copy never observes a half-folded slice).
  /// The returned handle carries the full erased query surface (Quantile
  /// / Rank / EstimateFrequency / HeavyHitters / SampleView, per
  /// Capabilities()).
  StreamSketch<T> Snapshot() {
    std::lock_guard<std::mutex> control(control_mu_);
    StreamSketch<T> merged = CopyShardSketch(0);
    for (size_t s = 1; s < shards_.size(); ++s) {
      const StreamSketch<T> piece = CopyShardSketch(s);
      merged.MergeFrom(piece);
    }
    return merged;
  }

  /// Serving path: merges, and evaluates `query` against the merged
  /// snapshot, e.g.
  ///
  ///     double median = pipeline.Query(
  ///         [](const StreamSketch<int64_t>& s) { return s.Quantile(0.5); });
  ///
  /// Each call pays one merge; batch related reads into one lambda (or
  /// hold a Snapshot()) rather than issuing many point queries. The
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

  /// Refuses further ingestion (a later Ingest is a checked error).
  /// Idempotent; every Ingest that returned is already folded, so
  /// Snapshot() and Checkpoint() see the whole stream afterwards.
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

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
  /// Freezes every shard (all sketch locks held in shard order) while
  /// serializing, so the captured states form one consistent cut even
  /// while other producers keep ingesting: the checkpoint contains every
  /// batch whose Ingest returned before the call, plus possibly some
  /// slices of later ones, and nothing half-folded. For an *exact*
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
    wire::BufferSink body;
    {
      // Freeze all shards for the duration of serialization (a producer
      // holds one sketch lock at a time, so ordered acquisition cannot
      // deadlock); concurrent producers wait on the lock at worst.
      std::vector<std::unique_lock<std::mutex>> frozen;
      frozen.reserve(shards_.size());
      for (auto& shard : shards_) {
        frozen.emplace_back(shard->sketch_mu);
      }
      wire::PutString(body, wire::ElementTypeTag<T>());
      wire::WriteSketchConfig(body, config_);
      wire::PutVarint(body, shards_.size());
      wire::PutVarint(body,
                      primary_->rr_start_.load(std::memory_order_relaxed));
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
  /// the remaining options are free to differ. The persisted round-robin
  /// cursor restores into producer 0, the handle that continues a
  /// single-producer trajectory bit-identically.
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
    // No handle to the new pipeline exists outside this function yet, so
    // replacing shard states here is race-free.
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
    pipeline->primary_->rr_start_.store(rr_start, std::memory_order_relaxed);
    pipeline->total_ingested_.store(total_ingested,
                                    std::memory_order_relaxed);
    return pipeline;
  }

  /// Elements accepted by Ingest so far across all producers (rejected
  /// batches excluded). Counted at admission, so a concurrent Snapshot may
  /// trail it by the batches still being folded.
  size_t total_ingested() const {
    return total_ingested_.load(std::memory_order_relaxed);
  }

  /// Batches refused by Ingest (any producer) for exceeding
  /// options.max_batch_elements. These were *dropped at the door* —
  /// nothing from them was sketched.
  size_t rejected_batches() const {
    return rejected_batches_.load(std::memory_order_relaxed);
  }

  /// Always 0: Ingest folds on the calling thread and never waits on a
  /// queue. Kept for callers that report stalls per batch.
  size_t backpressure_waits() const { return 0; }

  /// Per-shard stream sizes.
  std::vector<size_t> ShardStreamSizes() {
    std::vector<size_t> out;
    out.reserve(shards_.size());
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->sketch_mu);
      out.push_back(shard->sketch.StreamSize());
    }
    return out;
  }

  size_t num_shards() const { return shards_.size(); }
  const SketchConfig& config() const { return config_; }

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
    /// Guards the sketch at slice granularity: producers hold it across
    /// each InsertBatch, Snapshot/Checkpoint hold it while copying or
    /// serializing — this is what makes Snapshot and Checkpoint safe while
    /// producers keep ingesting.
    std::mutex sketch_mu;
    StreamSketch<T> sketch;
    // Cached at construction so a fold never takes the registry lock.
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

  /// Folds one slice into shard `s` under its lock.
  void Fold(size_t s, std::span<const T> slice) {
    Shard& shard = *shards_[s];
    {
      std::lock_guard<std::mutex> lock(shard.sketch_mu);
      shard.sketch.InsertBatch(slice);
    }
    shard.elements_metric->Increment(slice.size());
  }

  StreamSketch<T> CopyShardSketch(size_t s) {
    std::lock_guard<std::mutex> lock(shards_[s]->sketch_mu);
    return shards_[s]->sketch;
  }

  SketchConfig config_;
  PipelineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Grows under control_mu_ (RegisterProducer); producer 0 is made at
  // construction and cached in primary_ for the lock-free pipeline-level
  // Ingest.
  std::vector<std::unique_ptr<Producer>> producers_;
  Producer* primary_ = nullptr;
  std::atomic<size_t> registered_{0};
  std::atomic<uint64_t> total_ingested_{0};
  std::atomic<uint64_t> rejected_batches_{0};
  std::atomic<bool> stopped_{false};
  // Serializes the control surface (Snapshot/Checkpoint/RegisterProducer)
  // against itself; producers never take it.
  std::mutex control_mu_;
  uint32_t capabilities_ = 0;
};

}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_PIPELINE_SHARDED_PIPELINE_H_
