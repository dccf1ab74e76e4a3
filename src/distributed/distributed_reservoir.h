#ifndef ROBUST_SAMPLING_DISTRIBUTED_DISTRIBUTED_RESERVOIR_H_
#define ROBUST_SAMPLING_DISTRIBUTED_DISTRIBUTED_RESERVOIR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/random.h"

namespace robust_sampling {

/// Message-efficient continuous random sampling from distributed streams —
/// the setting of Chung–Tirthapura–Woodruff (cited in the paper's related
/// work, Section 1.3 [CTW16]; see also Cormode et al. [CMYZ12]).
///
/// m sites each observe a local stream; a coordinator must continuously
/// hold a uniform (without-replacement) sample of size k of the *union* of
/// all streams, exchanging as few messages as possible.
///
/// Protocol (bottom-k by random tags, the core of the message-optimal
/// scheme): every arriving item draws a uniform 64-bit tag. A site forwards
/// an item to the coordinator only if its tag is below the site's last
/// known threshold (initially infinity); the coordinator keeps the k
/// smallest-tagged items seen, and whenever its k-th smallest tag drops it
/// broadcasts the new threshold to all sites. The k smallest tags of the
/// union are a uniform k-subset, so the coordinator's sample is exactly a
/// reservoir sample of the union — and the expected message count is
/// O((m + k log n) ) rather than n.
///
/// This simulation counts site->coordinator messages and coordinator
/// broadcasts so experiments/tests can verify the communication bound.
///
/// Relationship to src/wire/: this class studies the *communication
/// complexity* of continuous distributed sampling inside one process;
/// actually shipping sketch state across process boundaries (periodic
/// snapshot aggregation, checkpoint/restore) is the wire subsystem's job
/// — see wire/snapshot.h, and net/collector.h for the shipper/collector
/// tier that merges shipped snapshots (the mergeable-summaries route).
class DistributedReservoir {
 public:
  /// Requires num_sites >= 1 and k >= 1.
  DistributedReservoir(int num_sites, size_t k, uint64_t seed);

  /// Site `site` observes one item.
  void Insert(int site, int64_t value);

  /// The coordinator's current sample: a uniform min(k, n)-subset of all
  /// items observed so far, in no particular order.
  std::vector<int64_t> Sample() const;

  /// Number of items forwarded site -> coordinator.
  size_t messages_sent() const { return messages_sent_; }

  /// Number of threshold broadcasts coordinator -> sites.
  size_t broadcasts() const { return broadcasts_; }

  /// Total items observed across all sites.
  size_t total_items() const { return total_items_; }

  size_t capacity() const { return k_; }
  int num_sites() const { return num_sites_; }

 private:
  struct Tagged {
    uint64_t tag;
    int64_t value;

    bool operator<(const Tagged& other) const { return tag < other.tag; }
  };

  int num_sites_;
  size_t k_;
  std::vector<Rng> site_rngs_;
  std::vector<uint64_t> site_thresholds_;  // last broadcast threshold
  std::vector<Tagged> coordinator_heap_;   // max-heap of k smallest tags
  size_t messages_sent_ = 0;
  size_t broadcasts_ = 0;
  size_t total_items_ = 0;
};

}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_DISTRIBUTED_DISTRIBUTED_RESERVOIR_H_
