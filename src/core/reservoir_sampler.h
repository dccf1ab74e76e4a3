#ifndef ROBUST_SAMPLING_CORE_RESERVOIR_SAMPLER_H_
#define ROBUST_SAMPLING_CORE_RESERVOIR_SAMPLER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/random.h"
#include "wire/codec.h"

namespace robust_sampling {

/// ReservoirSample(k) — classical reservoir sampling (Vitter's Algorithm R;
/// paper Section 2 pseudocode), the paper's second protagonist.
///
/// Maintains a uniform random subset of fixed size k: the first k elements
/// are stored with probability one; element i > k replaces a uniformly
/// random reservoir slot with probability k/i.
///
/// Robustness (Theorem 1.2): with
///   k >= 2 * (ln|R| + ln(2/delta)) / eps^2
/// the final sample is an eps-approximation w.r.t. (U, R) with probability
/// >= 1 - delta against any adaptive adversary. Continuous robustness
/// (Theorem 1.4) additionally needs only + ln(1/eps) + ln ln n inside the
/// parenthesis. See core/sample_bounds.h.
template <typename T>
class ReservoirSampler {
 public:
  /// Creates a reservoir of capacity `k`. Requires k >= 1.
  ReservoirSampler(size_t k, uint64_t seed) : k_(k), rng_(seed) {
    RS_CHECK_MSG(k >= 1, "reservoir capacity must be >= 1");
    sample_.reserve(k);
  }

  /// Processes one stream element per Algorithm R.
  void Insert(const T& x) {
    ++stream_size_;
    last_evicted_.reset();
    if (sample_.size() < k_) {
      sample_.push_back(x);
      last_kept_ = true;
      return;
    }
    // Keep with probability k/i by drawing j uniform in [0, i) and replacing
    // slot j if j < k. This is the standard single-draw formulation and is
    // exactly equivalent to the paper's two-step (flip k/i, then pick a slot).
    const uint64_t j = rng_.NextBelow(stream_size_);
    if (j < k_) {
      last_evicted_ = sample_[j];
      sample_[j] = x;
      last_kept_ = true;
    } else {
      last_kept_ = false;
    }
  }

  /// Processes a batch of stream elements.
  ///
  /// Distributionally identical to calling `Insert` on each element in
  /// order, but runs in O(k log(n/k)) expected random draws per stream
  /// instead of one per element: once the reservoir is full, acceptance
  /// positions inside the batch are generated by geometric skip sampling
  /// against the dominating probability k/(i+1) and thinned down to the
  /// exact Algorithm R acceptance probability k/i (an inhomogeneous
  /// Bernoulli process simulated by thinning).
  ///
  /// Adversarial-model note: no skip state survives past the end of the
  /// batch — unlike Li's Algorithm L, which pre-commits its next
  /// acceptance position — so the carried state is exactly Algorithm R's
  /// (sample, stream position). An adversary that observes the sampler
  /// between batches therefore learns nothing about future acceptances;
  /// batching only *coarsens* the adaptivity granularity, so Theorem 1.2's
  /// guarantee applies a fortiori.
  ///
  /// `last_kept()` refers to the final element of the batch;
  /// `last_evicted()` is not tracked across a batch and reads empty.
  void InsertBatch(std::span<const T> xs) {
    size_t idx = 0;
    const size_t m = xs.size();
    last_evicted_.reset();
    // Fill phase: the first k stream elements are kept with certainty.
    while (idx < m && sample_.size() < k_) {
      sample_.push_back(xs[idx]);
      ++idx;
      ++stream_size_;
      last_kept_ = true;
    }
    if (idx == m) return;
    // Skip phase over global positions (pos, end].
    const uint64_t start = stream_size_;
    const uint64_t end = start + static_cast<uint64_t>(m - idx);
    uint64_t pos = start;
    last_kept_ = false;
    while (pos < end) {
      // Acceptance probability at position l is k/l, decreasing in l, so
      // p_max = k/(pos+1) dominates every remaining position of the batch.
      const double p_max =
          static_cast<double>(k_) / static_cast<double>(pos + 1);
      const double u = rng_.NextDouble();  // uniform in [0, 1)
      // Geometric(p_max) count of dominated non-events before the next
      // candidate; 1 - u lies in (0, 1] so the log is finite.
      const double g = std::floor(std::log1p(-u) / std::log1p(-p_max));
      if (!(g < static_cast<double>(end - pos))) {
        pos = end;
        break;
      }
      const uint64_t cand = pos + 1 + static_cast<uint64_t>(g);
      // Thin the candidate down from p_max to the true probability k/cand:
      // accept with probability (k/cand) / p_max = (pos+1)/cand.
      if (rng_.NextBelow(cand) < pos + 1) {
        const uint64_t slot = rng_.NextBelow(k_);
        sample_[static_cast<size_t>(slot)] =
            xs[idx + static_cast<size_t>(cand - start - 1)];
        last_kept_ = cand == end;
      }
      pos = cand;
    }
    stream_size_ = end;
  }

  /// Folds another reservoir (over a disjoint stream) into this one.
  ///
  /// After the call, this sampler's state is distributed exactly as if a
  /// single reservoir of capacity k had processed some interleaving of the
  /// two streams: the merged sample is a uniform min(k, n1+n2)-subset of
  /// the union. Uses the weighted-subsampling argument behind the
  /// distributed protocols (cf. distributed/distributed_reservoir.{h,cc}):
  /// each output slot draws its source stream with probability
  /// proportional to that stream's remaining size, then takes a uniform
  /// not-yet-chosen element of the source's sample. Requires equal
  /// capacities. Consumes this sampler's RNG; `other` is untouched.
  void Merge(const ReservoirSampler& other) {
    RS_CHECK_MSG(k_ == other.k_,
                 "cannot merge reservoirs with different capacities");
    uint64_t na = stream_size_;
    uint64_t nb = other.stream_size_;
    std::vector<T> a = std::move(sample_);
    std::vector<T> b = other.sample_;
    const uint64_t total = na + nb;
    const size_t target =
        static_cast<size_t>(std::min<uint64_t>(k_, total));
    std::vector<T> merged;
    merged.reserve(target);
    size_t a_avail = a.size();
    size_t b_avail = b.size();
    while (merged.size() < target) {
      const bool from_a = rng_.NextBelow(na + nb) < na;
      std::vector<T>& src = from_a ? a : b;
      size_t& avail = from_a ? a_avail : b_avail;
      uint64_t& remaining = from_a ? na : nb;
      RS_DCHECK(avail >= 1);
      const size_t i = static_cast<size_t>(rng_.NextBelow(avail));
      merged.push_back(src[i]);
      std::swap(src[i], src[avail - 1]);
      --avail;
      --remaining;
    }
    sample_ = std::move(merged);
    stream_size_ = total;
    last_kept_ = false;
    last_evicted_.reset();
  }

  /// The current reservoir contents S_i (adversary-visible state).
  const std::vector<T>& sample() const { return sample_; }

  /// Number of stream elements processed so far.
  size_t stream_size() const { return stream_size_; }

  /// Whether the most recently inserted element entered the reservoir.
  bool last_kept() const { return last_kept_; }

  /// The element evicted by the most recent insertion, if any.
  const std::optional<T>& last_evicted() const { return last_evicted_; }

  /// The reservoir capacity k.
  size_t capacity() const { return k_; }

  /// Discards the sample and stream position, keeping the RNG state.
  void Reset() {
    sample_.clear();
    stream_size_ = 0;
    last_kept_ = false;
    last_evicted_.reset();
  }

  /// Wire format (docs/wire.md): full state including the RNG words, so a
  /// revived sampler continues the exact Algorithm R trajectory — the
  /// Theorem 1.2 guarantee survives a checkpoint/restore cycle.
  void SerializeTo(wire::ByteSink& sink) const
    requires wire::WireValue<T>
  {
    wire::PutVarint(sink, k_);
    wire::PutStateWords(sink, rng_.state());
    wire::PutVarint(sink, stream_size_);
    wire::PutValueVector<T>(sink, sample_);
    wire::PutVarint(sink, last_kept_ ? 1 : 0);
    wire::PutVarint(sink, last_evicted_.has_value() ? 1 : 0);
    if (last_evicted_.has_value()) wire::PutValue(sink, *last_evicted_);
  }

  /// Replaces this sampler's state from the wire. Returns false (leaving
  /// the source failed and this sampler unspecified-but-valid) on any
  /// malformed input; never aborts.
  bool DeserializeFrom(wire::ByteSource& source)
    requires wire::WireValue<T>
  {
    uint64_t k = 0, stream_size = 0, last_kept = 0, has_evicted = 0;
    std::array<uint64_t, 4> rng_words{};
    std::vector<T> sample;
    if (!wire::GetVarint(source, &k) ||
        !wire::GetStateWords(source, &rng_words) ||
        !wire::GetVarint(source, &stream_size) ||
        !wire::GetValueVector(source, &sample) ||
        !wire::GetVarint(source, &last_kept) ||
        !wire::GetVarint(source, &has_evicted)) {
      return false;
    }
    std::optional<T> evicted;
    if (has_evicted > 1) return source.Fail();
    if (has_evicted == 1) {
      T v{};
      if (!wire::GetValue(source, &v)) return false;
      evicted = v;
    }
    // Structural invariants of Algorithm R state.
    if (k < 1 || last_kept > 1 || sample.size() > k ||
        sample.size() > stream_size ||
        (stream_size < k && sample.size() != stream_size)) {
      return source.Fail();
    }
    k_ = static_cast<size_t>(k);
    rng_.set_state(rng_words);
    stream_size_ = static_cast<size_t>(stream_size);
    sample_ = std::move(sample);
    last_kept_ = last_kept == 1;
    last_evicted_ = std::move(evicted);
    return true;
  }

 private:
  size_t k_;
  Rng rng_;
  std::vector<T> sample_;
  size_t stream_size_ = 0;
  bool last_kept_ = false;
  std::optional<T> last_evicted_;
};

}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_CORE_RESERVOIR_SAMPLER_H_
