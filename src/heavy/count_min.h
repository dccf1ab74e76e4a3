#ifndef ROBUST_SAMPLING_HEAVY_COUNT_MIN_H_
#define ROBUST_SAMPLING_HEAVY_COUNT_MIN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "heavy/frequency_estimator.h"
#include "wire/codec.h"

namespace robust_sampling {

/// CountMin sketch (Cormode–Muthukrishnan 2005): depth x width counter
/// matrix with pairwise-independent row hashes; the estimate of x is the
/// minimum of its depth counters (one-sided overestimate; static guarantee
/// error <= e*n/width with prob. 1 - e^{-depth}).
///
/// Role in this repository: the *linear sketch* comparator. Hardt–Woodruff
/// [HW13] (cited in the paper's introduction) showed linear sketches are
/// inherently non-robust to adaptive inputs; an adversary that can observe
/// estimates can discover colliding elements and stuff the target's
/// counters. Experiment E8 runs exactly that attack, contrasting with the
/// robust sampled estimator of Corollary 1.6.
///
/// Heavy-hitter reporting tracks candidates in a side map capped at
/// `max_candidates` (the standard sketch+heap construction), each with
/// its insertion count since it entered. When a new element arrives at a
/// full map, the candidate with the lowest count is evicted, ties going to
/// the largest element — the same entry Merge's trim drops. The rule
/// reads only the map's content, so a revived sketch evicts exactly as
/// the original would.
class CountMinSketch : public FrequencyEstimator {
 public:
  /// Requires width >= 2, depth >= 1. With `conservative_update` set, an
  /// insertion only raises the counters that equal the current minimum
  /// (Estan–Varghese conservative update): estimates remain one-sided
  /// overestimates but are never larger than plain CountMin's.
  CountMinSketch(size_t width, size_t depth, uint64_t seed,
                 size_t max_candidates = 1024,
                 bool conservative_update = false);

  void Insert(int64_t x) override;
  void InsertBatch(std::span<const int64_t> xs) override;

  /// Merges another CountMin sketch into this one by adding counters
  /// pointwise (linear-sketch mergeability). Requires identical geometry
  /// *and* identical row hash functions, i.e. both sketches must have been
  /// constructed from the same seed — which is how the pipeline registry
  /// instantiates per-shard CountMin sketches. Estimates remain one-sided
  /// overestimates; for conservative-update sketches the merged counters
  /// are still valid upper bounds (the sum of two per-stream upper bounds),
  /// though no longer as tight as single-stream conservative updating.
  /// Candidate maps are merged and trimmed back to `max_candidates`.
  void Merge(const CountMinSketch& other);
  double EstimateFrequency(int64_t x) const override;
  std::vector<HeavyHitter> HeavyHitters(double threshold) const override;
  size_t StreamSize() const override { return n_; }
  size_t SpaceItems() const override { return width_ * depth_; }
  std::string Name() const override;

  size_t width() const { return width_; }
  size_t depth() const { return depth_; }
  bool conservative_update() const { return conservative_update_; }

  /// Estimated absolute count (min over rows) — the raw sketch readout.
  uint64_t EstimateCount(int64_t x) const;

  /// The row-r bucket index of x (exposed so tests and the E8 adversary can
  /// reason about collisions).
  size_t Bucket(size_t row, int64_t x) const;

  /// Wire format (docs/wire.md): geometry, row seeds (so merged revivals
  /// keep hash compatibility), counters, candidate map (sorted by element
  /// for deterministic bytes) and n.
  void SerializeTo(wire::ByteSink& sink) const;

  /// Replaces this sketch's state from the wire; false on malformed
  /// input, never aborts.
  bool DeserializeFrom(wire::ByteSource& source);

 private:
  /// Removes and returns the next eviction victim from victims_.
  int64_t PopVictim();

  size_t width_;
  size_t depth_;
  std::vector<uint64_t> row_seeds_;
  std::vector<std::vector<uint64_t>> counters_;  // [depth][width]
  std::unordered_map<int64_t, uint64_t> candidates_;  // element -> insertions
  // Max-heap (by element) holding every candidate at count victims_count_,
  // the minimum, plus stale entries raised since (skipped on pop). Empty
  // until the first eviction and after Merge/DeserializeFrom; refilled by
  // one scan when it runs dry. Only evictions push, and they only happen
  // at a full map, so a newcomer into a non-full map needs no entry.
  std::vector<int64_t> victims_;
  uint64_t victims_count_ = 0;
  size_t max_candidates_;
  bool conservative_update_;
  size_t n_ = 0;
};

}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_HEAVY_COUNT_MIN_H_
