#ifndef ROBUST_SAMPLING_PIPELINE_STREAM_SKETCH_H_
#define ROBUST_SAMPLING_PIPELINE_STREAM_SKETCH_H_

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bernoulli_sampler.h"
#include "core/check.h"
#include "core/reservoir_sampler.h"
#include "core/robust_sample.h"
#include "heavy/count_min.h"
#include "heavy/frequency_estimator.h"
#include "heavy/misra_gries.h"
#include "heavy/space_saving.h"
#include "quantiles/kll_sketch.h"
#include "wire/codec.h"

namespace robust_sampling {

/// The uniform surface every pipeline-driveable sketch adapter must offer.
/// Adapters (below) bridge concrete samplers/sketches — whatever their
/// native element type and merge spelling — onto this shape.
template <typename A, typename T>
concept SketchAdapter = requires(A a, const A ca, const T& x,
                                 std::span<const T> xs) {
  { a.Insert(x) };
  { a.InsertBatch(xs) };
  { a.MergeFrom(ca) };
  { ca.StreamSize() } -> std::convertible_to<size_t>;
  { ca.SpaceItems() } -> std::convertible_to<size_t>;
  { ca.Name() } -> std::convertible_to<std::string>;
} && std::copy_constructible<A>;

// ---------------------------------------------------------------------------
// Optional query capabilities.
//
// Beyond the mandatory ingest surface above, an adapter may implement any of
// four query hooks. StreamSketch<T>::Wrap discovers them per adapter type
// with `if constexpr` / requires-clauses — no inheritance, no registration —
// and exposes them through the type-erased handle, so callers probe
// `Capabilities()` instead of downcasting. This is the sanctioned extension
// point for custom sketch kinds (see docs/registry.md for the built-in
// capability matrix).
// ---------------------------------------------------------------------------

/// Bitmask of the optional query capabilities a sketch supports.
enum SketchCapability : uint32_t {
  /// `SampleView()`: the retained elements + whether the last insert was
  /// kept — the full adversary-visible state of the paper's Section 2 game.
  kCapSampleView = 1u << 0,
  /// `Quantile(q)` / `Rank(x)` over a double-ordered domain.
  kCapQuantiles = 1u << 1,
  /// `EstimateFrequency(x)`: relative frequency of one element.
  kCapFrequencies = 1u << 2,
  /// `HeavyHitters(phi)`: all elements at estimated frequency >= phi.
  kCapHeavyHitters = 1u << 3,
  /// `SerializeTo(sink)` / `DeserializeFrom(source)`: full state (RNG
  /// included) crosses process boundaries via the wire codec; the basis of
  /// snapshot shipping and pipeline checkpoint/restore (src/wire/).
  kCapSerialize = 1u << 4,
};

/// The adversary-visible state of a sampling sketch (paper Section 2: the
/// state sigma_i *is* the current sample, observed in full after every
/// insertion). `elements` views the adapter's own storage and is valid until
/// the next non-const operation on the sketch.
template <typename T>
struct SketchSampleView {
  std::span<const T> elements;
  /// Whether the most recently inserted element entered the sample (for a
  /// batch: whether the batch's final element did).
  bool last_kept = false;
};

/// Adapter hook: expose the retained sample (samplers only).
template <typename A, typename T>
concept SampleViewableAdapter = requires(const A ca) {
  { ca.SampleView() } -> std::convertible_to<SketchSampleView<T>>;
};

/// Adapter hook: rank/quantile queries over a double-ordered domain.
template <typename A>
concept QuantileQueryableAdapter = requires(const A ca, double q) {
  { ca.Quantile(q) } -> std::convertible_to<double>;
  { ca.Rank(q) } -> std::convertible_to<double>;
};

/// Adapter hook: per-element relative-frequency estimates.
template <typename A, typename T>
concept FrequencyQueryableAdapter = requires(const A ca, const T& x) {
  { ca.EstimateFrequency(x) } -> std::convertible_to<double>;
};

/// Adapter hook: heavy-hitter reports.
template <typename A>
concept HeavyHitterQueryableAdapter = requires(const A ca, double phi) {
  { ca.HeavyHitters(phi) } -> std::convertible_to<std::vector<HeavyHitter>>;
};

/// Adapter hook: wire serialization. SerializeTo writes the adapter's full
/// state (sink tracks media errors); DeserializeFrom replaces it, returning
/// false — never aborting — on malformed bytes. Implementations must
/// round-trip exactly: a revived sketch answers every query identically
/// and, where randomized, continues with the same RNG trajectory.
template <typename A>
concept SerializableAdapter = requires(const A ca, A a, wire::ByteSink& sink,
                                       wire::ByteSource& source) {
  { ca.SerializeTo(sink) };
  { a.DeserializeFrom(source) } -> std::convertible_to<bool>;
};

namespace sample_query {

// Shared sample-based query implementations: the paper's whole point is
// that a (robust) uniform sample answers quantile, frequency and
// heavy-hitter queries for the stream (Corollaries 1.5 / 1.6), so the three
// sampler adapters route their query hooks through these helpers.

/// Empirical q-quantile of the sample, with the QuantileSketch convention
/// (smallest value whose rank fraction is >= q). q must lie in [0, 1], as
/// for KllSketch::Quantile; NaN fails the check.
template <typename T>
  requires std::convertible_to<T, double>
double Quantile(std::span<const T> sample, double q) {
  RS_CHECK_MSG(!sample.empty(), "quantile query on an empty sample");
  RS_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q outside [0, 1]");
  std::vector<double> sorted;
  sorted.reserve(sample.size());
  for (const T& v : sample) sorted.push_back(static_cast<double>(v));
  std::sort(sorted.begin(), sorted.end());
  const double m = static_cast<double>(sorted.size());
  int64_t idx = static_cast<int64_t>(std::ceil(q * m)) - 1;
  idx = std::clamp(idx, int64_t{0},
                   static_cast<int64_t>(sorted.size()) - 1);
  return sorted[static_cast<size_t>(idx)];
}

/// Fraction of sample elements <= x (the sample's estimate of the stream's
/// prefix density d_{(-inf, x]}).
template <typename T>
  requires std::convertible_to<T, double>
double Rank(std::span<const T> sample, double x) {
  if (sample.empty()) return 0.0;
  size_t hits = 0;
  for (const T& v : sample) hits += static_cast<double>(v) <= x;
  return static_cast<double>(hits) / static_cast<double>(sample.size());
}

/// Relative frequency of x within the sample (the Corollary 1.6 estimator
/// for the stream frequency of x).
template <typename T>
  requires std::equality_comparable<T>
double Frequency(std::span<const T> sample, const T& x) {
  if (sample.empty()) return 0.0;
  size_t hits = 0;
  for (const T& v : sample) hits += v == x;
  return static_cast<double>(hits) / static_cast<double>(sample.size());
}

/// All elements whose sample frequency is >= phi, in canonical report
/// order. For the (alpha, eps) contract, query at phi = alpha - eps/3
/// (Corollary 1.6's slack).
template <typename T>
  requires std::convertible_to<T, int64_t>
std::vector<HeavyHitter> HeavyHitters(std::span<const T> sample,
                                      double phi) {
  std::vector<HeavyHitter> out;
  if (sample.empty()) return out;
  std::unordered_map<int64_t, size_t> counts;
  for (const T& v : sample) ++counts[static_cast<int64_t>(v)];
  const double m = static_cast<double>(sample.size());
  for (const auto& [element, count] : counts) {
    const double freq = static_cast<double>(count) / m;
    if (freq >= phi) out.push_back(HeavyHitter{element, freq});
  }
  SortHeavyHitters(&out);
  return out;
}

}  // namespace sample_query

/// CRTP mixin supplying the full sample-backed query hook set to sampler
/// adapters. `Derived::sketch()` must expose `sample()` (a vector of
/// retained elements) and `last_kept()`; each hook is enabled exactly when
/// T supports it, so the capability concepts above see the right subset.
/// Keeping the three sampler adapters on one implementation guarantees
/// they answer queries identically (the Corollary 1.5 / 1.6 estimators).
template <typename Derived, typename T>
class SampleQueryHooks {
 public:
  SketchSampleView<T> SampleView() const {
    return {std::span<const T>(self().sketch().sample()),
            self().sketch().last_kept()};
  }
  /// Requires a non-empty sample (the QuantileSketch convention: a
  /// quantile of nothing has no value; Rank/Frequency degrade to 0.0).
  double Quantile(double q) const
    requires std::convertible_to<T, double>
  {
    return sample_query::Quantile<T>(self().sketch().sample(), q);
  }
  double Rank(double x) const
    requires std::convertible_to<T, double>
  {
    return sample_query::Rank<T>(self().sketch().sample(), x);
  }
  double EstimateFrequency(const T& x) const
    requires std::equality_comparable<T>
  {
    return sample_query::Frequency<T>(self().sketch().sample(), x);
  }
  std::vector<HeavyHitter> HeavyHitters(double phi) const
    requires std::convertible_to<T, int64_t>
  {
    return sample_query::HeavyHitters<T>(self().sketch().sample(), phi);
  }

 private:
  const Derived& self() const {
    return static_cast<const Derived&>(*this);
  }
};

/// Type-erased handle to one streaming sketch/sampler instance.
///
/// The pipeline drives heterogeneous summaries (reservoir samples, KLL,
/// CountMin, ...) through this one interface: batched insertion, merge of
/// same-kind instances, size introspection — and *queries*. Every optional
/// query hook the wrapped adapter implements (SampleView / Quantile / Rank /
/// EstimateFrequency / HeavyHitters) is surfaced here; `Capabilities()`
/// reports which ones, so callers probe support without downcasting. This
/// makes a merged ShardedPipeline snapshot directly servable and lets any
/// registered kind — including custom ones — face AttackLab adversaries.
/// The type-erasure tax is paid per batch and per query, never per element.
///
/// `TryAs<Adapter>()` remains as an interop escape hatch for
/// adapter-specific state that is not a query (none of the in-tree callers
/// need it on the query path anymore).
///
/// Copying a StreamSketch deep-copies the underlying sketch (used by
/// ShardedPipeline::Snapshot to fold per-shard states without disturbing
/// ingestion).
template <typename T>
class StreamSketch {
 public:
  /// Empty handle; every operation except `valid()` aborts until assigned.
  StreamSketch() = default;

  /// Wraps an adapter instance, discovering its query capabilities.
  template <SketchAdapter<T> A>
  static StreamSketch Wrap(A adapter) {
    StreamSketch s;
    s.model_ = std::make_unique<Model<A>>(std::move(adapter));
    return s;
  }

  StreamSketch(const StreamSketch& other)
      : model_(other.model_ ? other.model_->Clone() : nullptr) {}
  StreamSketch& operator=(const StreamSketch& other) {
    if (this != &other) {
      model_ = other.model_ ? other.model_->Clone() : nullptr;
    }
    return *this;
  }
  StreamSketch(StreamSketch&&) noexcept = default;
  StreamSketch& operator=(StreamSketch&&) noexcept = default;

  bool valid() const { return model_ != nullptr; }

  /// Processes one stream element.
  void Insert(const T& x) {
    RS_CHECK_MSG(model_ != nullptr, "empty StreamSketch");
    model_->Insert(x);
  }

  /// Processes a batch of stream elements (the pipeline hot path).
  void InsertBatch(std::span<const T> xs) {
    RS_CHECK_MSG(model_ != nullptr, "empty StreamSketch");
    model_->InsertBatch(xs);
  }

  /// Folds `other` into this sketch. Both handles must wrap the same
  /// adapter type (verified at runtime); the underlying Merge defines the
  /// semantics (uniform subsample of the union, counter addition, ...).
  void MergeFrom(const StreamSketch& other) {
    RS_CHECK_MSG(model_ != nullptr && other.model_ != nullptr,
                 "empty StreamSketch");
    model_->MergeFrom(*other.model_);
  }

  /// Number of stream elements processed.
  size_t StreamSize() const {
    RS_CHECK_MSG(model_ != nullptr, "empty StreamSketch");
    return model_->StreamSize();
  }

  /// Number of items/counters currently retained.
  size_t SpaceItems() const {
    RS_CHECK_MSG(model_ != nullptr, "empty StreamSketch");
    return model_->SpaceItems();
  }

  /// Algorithm name for reports.
  std::string Name() const {
    RS_CHECK_MSG(model_ != nullptr, "empty StreamSketch");
    return model_->Name();
  }

  // --- query surface ------------------------------------------------------

  /// Bitmask of the SketchCapability hooks the wrapped adapter implements.
  uint32_t Capabilities() const {
    RS_CHECK_MSG(model_ != nullptr, "empty StreamSketch");
    return model_->Capabilities();
  }

  /// Whether the wrapped adapter implements `capability`.
  bool Supports(SketchCapability capability) const {
    return (Capabilities() & capability) != 0;
  }

  /// The adversary-visible sample (Section 2 observation contract).
  /// Requires kCapSampleView; the view stays valid until the next non-const
  /// operation on this sketch.
  SketchSampleView<T> SampleView() const {
    RS_CHECK_MSG(Supports(kCapSampleView),
                 ("sketch has no sample view: " + Name()).c_str());
    return model_->SampleView();
  }

  /// Estimated q-quantile of the stream. Requires kCapQuantiles.
  double Quantile(double q) const {
    RS_CHECK_MSG(Supports(kCapQuantiles),
                 ("sketch does not support quantile queries: " + Name())
                     .c_str());
    return model_->Quantile(q);
  }

  /// Estimated fraction of stream elements <= x. Requires kCapQuantiles.
  double Rank(double x) const {
    RS_CHECK_MSG(Supports(kCapQuantiles),
                 ("sketch does not support quantile queries: " + Name())
                     .c_str());
    return model_->Rank(x);
  }

  /// Estimated relative frequency of x. Requires kCapFrequencies.
  double EstimateFrequency(const T& x) const {
    RS_CHECK_MSG(Supports(kCapFrequencies),
                 ("sketch does not support frequency queries: " + Name())
                     .c_str());
    return model_->EstimateFrequency(x);
  }

  /// Elements at estimated frequency >= phi, in canonical report order.
  /// Requires kCapHeavyHitters.
  std::vector<HeavyHitter> HeavyHitters(double phi) const {
    RS_CHECK_MSG(Supports(kCapHeavyHitters),
                 ("sketch does not support heavy-hitter queries: " + Name())
                     .c_str());
    return model_->HeavyHitters(phi);
  }

  // --- wire surface -------------------------------------------------------

  /// Writes the wrapped adapter's full state to `sink` (payload bytes
  /// only — wire/snapshot.h adds the self-describing envelope). Requires
  /// kCapSerialize; check `sink.ok()` afterwards for media errors.
  void SerializeTo(wire::ByteSink& sink) const {
    RS_CHECK_MSG(Supports(kCapSerialize),
                 ("sketch is not serializable: " + Name()).c_str());
    model_->SerializeTo(sink);
  }

  /// Replaces the wrapped adapter's state from payload bytes previously
  /// written by `SerializeTo` on the same kind. Returns false on malformed
  /// input (the handle stays valid, contents unspecified); never aborts on
  /// bad bytes. Requires kCapSerialize.
  bool DeserializeFrom(wire::ByteSource& source) {
    RS_CHECK_MSG(Supports(kCapSerialize),
                 ("sketch is not serializable: " + Name()).c_str());
    return model_->DeserializeFrom(source);
  }

  // --- interop escape hatch ----------------------------------------------

  /// Downcast to a concrete adapter for adapter-specific state beyond the
  /// query surface; nullptr if this handle wraps a different adapter type.
  template <SketchAdapter<T> A>
  A* TryAs() {
    auto* m = dynamic_cast<Model<A>*>(model_.get());
    return m ? &m->adapter() : nullptr;
  }
  template <SketchAdapter<T> A>
  const A* TryAs() const {
    const auto* m = dynamic_cast<const Model<A>*>(model_.get());
    return m ? &m->adapter() : nullptr;
  }

  /// Downcast that aborts instead of returning nullptr.
  template <SketchAdapter<T> A>
  A& As() {
    A* a = TryAs<A>();
    RS_CHECK_MSG(a != nullptr, "StreamSketch wraps a different sketch type");
    return *a;
  }
  template <SketchAdapter<T> A>
  const A& As() const {
    const A* a = TryAs<A>();
    RS_CHECK_MSG(a != nullptr, "StreamSketch wraps a different sketch type");
    return *a;
  }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void Insert(const T& x) = 0;
    virtual void InsertBatch(std::span<const T> xs) = 0;
    virtual void MergeFrom(const Concept& other) = 0;
    virtual size_t StreamSize() const = 0;
    virtual size_t SpaceItems() const = 0;
    virtual std::string Name() const = 0;
    virtual uint32_t Capabilities() const = 0;
    virtual SketchSampleView<T> SampleView() const = 0;
    virtual double Quantile(double q) const = 0;
    virtual double Rank(double x) const = 0;
    virtual double EstimateFrequency(const T& x) const = 0;
    virtual std::vector<HeavyHitter> HeavyHitters(double phi) const = 0;
    virtual void SerializeTo(wire::ByteSink& sink) const = 0;
    virtual bool DeserializeFrom(wire::ByteSource& source) = 0;
    virtual std::unique_ptr<Concept> Clone() const = 0;
  };

  template <SketchAdapter<T> A>
  struct Model final : Concept {
    explicit Model(A a) : adapter_(std::move(a)) {}
    void Insert(const T& x) override { adapter_.Insert(x); }
    void InsertBatch(std::span<const T> xs) override {
      adapter_.InsertBatch(xs);
    }
    void MergeFrom(const Concept& other) override {
      const auto* peer = dynamic_cast<const Model*>(&other);
      RS_CHECK_MSG(peer != nullptr,
                   "cannot merge StreamSketches of different kinds");
      adapter_.MergeFrom(peer->adapter_);
    }
    size_t StreamSize() const override { return adapter_.StreamSize(); }
    size_t SpaceItems() const override { return adapter_.SpaceItems(); }
    std::string Name() const override { return adapter_.Name(); }

    uint32_t Capabilities() const override {
      uint32_t caps = 0;
      if constexpr (SampleViewableAdapter<A, T>) caps |= kCapSampleView;
      if constexpr (QuantileQueryableAdapter<A>) caps |= kCapQuantiles;
      if constexpr (FrequencyQueryableAdapter<A, T>) caps |= kCapFrequencies;
      if constexpr (HeavyHitterQueryableAdapter<A>) caps |= kCapHeavyHitters;
      if constexpr (SerializableAdapter<A>) caps |= kCapSerialize;
      return caps;
    }
    SketchSampleView<T> SampleView() const override {
      if constexpr (SampleViewableAdapter<A, T>) {
        return adapter_.SampleView();
      } else {
        RS_CHECK_MSG(false, "sketch has no sample view");
        return {};
      }
    }
    double Quantile(double q) const override {
      if constexpr (QuantileQueryableAdapter<A>) {
        return adapter_.Quantile(q);
      } else {
        RS_CHECK_MSG(false, "sketch does not support quantile queries");
        return 0.0;
      }
    }
    double Rank(double x) const override {
      if constexpr (QuantileQueryableAdapter<A>) {
        return adapter_.Rank(x);
      } else {
        RS_CHECK_MSG(false, "sketch does not support quantile queries");
        return 0.0;
      }
    }
    double EstimateFrequency(const T& x) const override {
      if constexpr (FrequencyQueryableAdapter<A, T>) {
        return adapter_.EstimateFrequency(x);
      } else {
        RS_CHECK_MSG(false, "sketch does not support frequency queries");
        return 0.0;
      }
    }
    std::vector<HeavyHitter> HeavyHitters(double phi) const override {
      if constexpr (HeavyHitterQueryableAdapter<A>) {
        return adapter_.HeavyHitters(phi);
      } else {
        RS_CHECK_MSG(false, "sketch does not support heavy-hitter queries");
        return {};
      }
    }
    void SerializeTo(wire::ByteSink& sink) const override {
      if constexpr (SerializableAdapter<A>) {
        adapter_.SerializeTo(sink);
      } else {
        RS_CHECK_MSG(false, "sketch is not serializable");
      }
    }
    bool DeserializeFrom(wire::ByteSource& source) override {
      if constexpr (SerializableAdapter<A>) {
        return adapter_.DeserializeFrom(source);
      } else {
        RS_CHECK_MSG(false, "sketch is not serializable");
        return false;
      }
    }

    std::unique_ptr<Concept> Clone() const override {
      return std::make_unique<Model>(adapter_);
    }
    A& adapter() { return adapter_; }
    const A& adapter() const { return adapter_; }

    A adapter_;
  };

  std::unique_ptr<Concept> model_;
};

// ---------------------------------------------------------------------------
// Built-in adapters. Each wraps one concrete summary; queries flow through
// the capability hooks (the `sketch()` accessor remains for interop with
// code that needs the concrete type).
// ---------------------------------------------------------------------------

/// RobustSample<T> behind the uniform surface (the paper's Theorem 1.2
/// sampler; merge = uniform subsample of the union at unchanged eps/delta).
/// Full query capability set: the robust sample *is* the answer store for
/// quantile / frequency / heavy-hitter queries (Corollaries 1.5, 1.6).
template <typename T>
class RobustSampleAdapter
    : public SampleQueryHooks<RobustSampleAdapter<T>, T> {
 public:
  explicit RobustSampleAdapter(RobustSample<T> s) : s_(std::move(s)) {}
  void Insert(const T& x) { s_.Insert(x); }
  void InsertBatch(std::span<const T> xs) { s_.InsertBatch(xs); }
  void MergeFrom(const RobustSampleAdapter& other) { s_.Merge(other.s_); }
  size_t StreamSize() const { return s_.stream_size(); }
  size_t SpaceItems() const { return s_.sample().size(); }
  std::string Name() const {
    return "robust_sample(k=" + std::to_string(s_.capacity()) + ")";
  }

  void SerializeTo(wire::ByteSink& sink) const
    requires wire::WireValue<T>
  {
    s_.SerializeTo(sink);
  }
  bool DeserializeFrom(wire::ByteSource& source)
    requires wire::WireValue<T>
  {
    return s_.DeserializeFrom(source);
  }

  RobustSample<T>& sketch() { return s_; }
  const RobustSample<T>& sketch() const { return s_; }

 private:
  RobustSample<T> s_;
};

/// Plain ReservoirSampler<T> (Algorithm R) behind the uniform surface.
/// Same query capability set as RobustSampleAdapter (whether the answers
/// are adversarially trustworthy depends on how k was sized).
template <typename T>
class ReservoirAdapter
    : public SampleQueryHooks<ReservoirAdapter<T>, T> {
 public:
  explicit ReservoirAdapter(ReservoirSampler<T> s) : s_(std::move(s)) {}
  void Insert(const T& x) { s_.Insert(x); }
  void InsertBatch(std::span<const T> xs) { s_.InsertBatch(xs); }
  void MergeFrom(const ReservoirAdapter& other) { s_.Merge(other.s_); }
  size_t StreamSize() const { return s_.stream_size(); }
  size_t SpaceItems() const { return s_.sample().size(); }
  std::string Name() const {
    return "reservoir(k=" + std::to_string(s_.capacity()) + ")";
  }

  void SerializeTo(wire::ByteSink& sink) const
    requires wire::WireValue<T>
  {
    s_.SerializeTo(sink);
  }
  bool DeserializeFrom(wire::ByteSource& source)
    requires wire::WireValue<T>
  {
    return s_.DeserializeFrom(source);
  }

  ReservoirSampler<T>& sketch() { return s_; }
  const ReservoirSampler<T>& sketch() const { return s_; }

 private:
  ReservoirSampler<T> s_;
};

/// BernoulliSampler<T> behind the uniform surface.
template <typename T>
class BernoulliAdapter
    : public SampleQueryHooks<BernoulliAdapter<T>, T> {
 public:
  explicit BernoulliAdapter(BernoulliSampler<T> s) : s_(std::move(s)) {}
  void Insert(const T& x) { s_.Insert(x); }
  void InsertBatch(std::span<const T> xs) { s_.InsertBatch(xs); }
  void MergeFrom(const BernoulliAdapter& other) { s_.Merge(other.s_); }
  size_t StreamSize() const { return s_.stream_size(); }
  size_t SpaceItems() const { return s_.sample().size(); }
  std::string Name() const {
    return "bernoulli(p=" + std::to_string(s_.p()) + ")";
  }

  void SerializeTo(wire::ByteSink& sink) const
    requires wire::WireValue<T>
  {
    s_.SerializeTo(sink);
  }
  bool DeserializeFrom(wire::ByteSource& source)
    requires wire::WireValue<T>
  {
    return s_.DeserializeFrom(source);
  }

  BernoulliSampler<T>& sketch() { return s_; }
  const BernoulliSampler<T>& sketch() const { return s_; }

 private:
  BernoulliSampler<T> s_;
};

/// KllSketch behind the uniform surface; stream elements convert to double.
/// Quantile-capable only: KLL retains no adversary-visible sample.
template <typename T>
  requires std::convertible_to<T, double>
class KllAdapter {
 public:
  explicit KllAdapter(KllSketch s) : s_(std::move(s)) {}
  void Insert(const T& x) { s_.Insert(static_cast<double>(x)); }
  void InsertBatch(std::span<const T> xs) {
    if constexpr (std::same_as<T, double>) {
      s_.InsertBatch(xs);
    } else {
      for (const T& x : xs) s_.Insert(static_cast<double>(x));
    }
  }
  void MergeFrom(const KllAdapter& other) { s_.Merge(other.s_); }
  size_t StreamSize() const { return s_.StreamSize(); }
  size_t SpaceItems() const { return s_.SpaceItems(); }
  std::string Name() const { return s_.Name(); }

  double Quantile(double q) const { return s_.Quantile(q); }
  double Rank(double x) const { return s_.RankFraction(x); }

  void SerializeTo(wire::ByteSink& sink) const { s_.SerializeTo(sink); }
  bool DeserializeFrom(wire::ByteSource& source) {
    return s_.DeserializeFrom(source);
  }

  KllSketch& sketch() { return s_; }
  const KllSketch& sketch() const { return s_; }

 private:
  KllSketch s_;
};

/// Shared shape for the three int64-keyed frequency summaries.
/// Frequency/heavy-hitter capable; no sample view, no quantiles.
template <typename T, typename S>
  requires std::convertible_to<T, int64_t>
class FrequencyAdapter {
 public:
  explicit FrequencyAdapter(S s) : s_(std::move(s)) {}
  void Insert(const T& x) { s_.Insert(static_cast<int64_t>(x)); }
  void InsertBatch(std::span<const T> xs) {
    if constexpr (std::same_as<T, int64_t>) {
      s_.InsertBatch(xs);
    } else {
      for (const T& x : xs) s_.Insert(static_cast<int64_t>(x));
    }
  }
  void MergeFrom(const FrequencyAdapter& other) { s_.Merge(other.s_); }
  size_t StreamSize() const { return s_.StreamSize(); }
  size_t SpaceItems() const { return s_.SpaceItems(); }
  std::string Name() const { return s_.Name(); }

  double EstimateFrequency(const T& x) const {
    return s_.EstimateFrequency(static_cast<int64_t>(x));
  }
  std::vector<HeavyHitter> HeavyHitters(double phi) const {
    return s_.HeavyHitters(phi);
  }

  void SerializeTo(wire::ByteSink& sink) const { s_.SerializeTo(sink); }
  bool DeserializeFrom(wire::ByteSource& source) {
    return s_.DeserializeFrom(source);
  }

  S& sketch() { return s_; }
  const S& sketch() const { return s_; }

 private:
  S s_;
};

template <typename T>
using CountMinAdapter = FrequencyAdapter<T, CountMinSketch>;
template <typename T>
using MisraGriesAdapter = FrequencyAdapter<T, MisraGries>;
template <typename T>
using SpaceSavingAdapter = FrequencyAdapter<T, SpaceSaving>;

}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_PIPELINE_STREAM_SKETCH_H_
