#ifndef ROBUST_SAMPLING_HEAVY_SPACE_SAVING_H_
#define ROBUST_SAMPLING_HEAVY_SPACE_SAVING_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "heavy/frequency_estimator.h"
#include "wire/codec.h"

namespace robust_sampling {

/// SpaceSaving (Metwally–Agrawal–El Abbadi 2005) with k counters.
///
/// Keeps exactly k (element, count) pairs; an unseen element replaces the
/// current minimum-count entry and inherits its count + 1, giving one-sided
/// overestimates with error <= n/k. Deterministic, hence adversarially
/// robust; the second deterministic baseline for experiment E8.
///
/// Implementation: hash map element -> count plus an ordered multimap
/// count -> element for O(log k) minimum eviction; among entries tied at
/// the minimum count, the one that reached it first is evicted.
class SpaceSaving : public FrequencyEstimator {
 public:
  /// Requires num_counters >= 1.
  explicit SpaceSaving(size_t num_counters);

  void Insert(int64_t x) override;
  void InsertBatch(std::span<const int64_t> xs) override;

  /// Merges another SpaceSaving summary into this one (Agarwal et al.
  /// mergeable-summaries semantics; SpaceSaving is isomorphic to
  /// Misra-Gries): counts are added pointwise over the union of tracked
  /// elements, then the k largest entries are retained. Estimates stay
  /// one-sided overestimates with total error <= (n1 + n2)/k. Requires
  /// equal counter budgets.
  void Merge(const SpaceSaving& other);
  double EstimateFrequency(int64_t x) const override;
  std::vector<HeavyHitter> HeavyHitters(double threshold) const override;
  size_t StreamSize() const override { return n_; }
  size_t SpaceItems() const override { return counts_.size(); }
  std::string Name() const override;

  size_t num_counters() const { return k_; }

  /// Wire format (docs/wire.md): k, n, counts sorted by element; the
  /// count-ordered eviction index is rebuilt on restore. The wire does not
  /// carry the arrival order of entries tied at the minimum count, so a
  /// revived summary may evict a different tied entry than the original
  /// would have: the n/k bound holds, but continuing ingestion is not
  /// bit-identical to the original (the one kind where it is not).
  void SerializeTo(wire::ByteSink& sink) const;

  /// Replaces this summary's state from the wire; false on malformed
  /// input, never aborts.
  bool DeserializeFrom(wire::ByteSource& source);

 private:
  void Bump(int64_t x, uint64_t old_count, uint64_t new_count);

  size_t k_;
  std::unordered_map<int64_t, uint64_t> counts_;
  std::multimap<uint64_t, int64_t> by_count_;
  size_t n_ = 0;
};

}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_HEAVY_SPACE_SAVING_H_
