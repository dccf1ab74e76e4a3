#include "heavy/count_min.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/random.h"

namespace robust_sampling {

CountMinSketch::CountMinSketch(size_t width, size_t depth, uint64_t seed,
                               size_t max_candidates,
                               bool conservative_update)
    : width_(width),
      depth_(depth),
      max_candidates_(max_candidates),
      conservative_update_(conservative_update) {
  RS_CHECK_MSG(width >= 2, "width must be >= 2");
  RS_CHECK_MSG(depth >= 1, "depth must be >= 1");
  RS_CHECK_MSG(max_candidates >= 1, "need at least one candidate slot");
  SplitMix64 sm(seed);
  row_seeds_.resize(depth_);
  for (auto& s : row_seeds_) s = sm.Next();
  counters_.assign(depth_, std::vector<uint64_t>(width_, 0));
  candidates_.reserve(max_candidates_);
}

size_t CountMinSketch::Bucket(size_t row, int64_t x) const {
  RS_DCHECK(row < depth_);
  SplitMix64 sm(static_cast<uint64_t>(x) ^ row_seeds_[row]);
  return static_cast<size_t>(sm.Next() % width_);
}

void CountMinSketch::Insert(int64_t x) {
  ++n_;
  if (conservative_update_) {
    // Raise only the counters at the current minimum: the estimate after
    // the update is exactly min + 1, and no counter overshoots it.
    const uint64_t target = EstimateCount(x) + 1;
    for (size_t r = 0; r < depth_; ++r) {
      uint64_t& c = counters_[r][Bucket(r, x)];
      c = std::max(c, target);
    }
  } else {
    for (size_t r = 0; r < depth_; ++r) {
      ++counters_[r][Bucket(r, x)];
    }
  }
  // Candidate tracking for heavy-hitter reporting.
  auto it = candidates_.find(x);
  if (it != candidates_.end()) {
    ++it->second;
  } else if (candidates_.size() < max_candidates_) {
    candidates_.emplace(x, 1);
  } else {
    // Evict by the rule in count_min.h; the victim's node is renamed to
    // x, so a miss allocates nothing. x is now the only candidate at
    // count 1.
    auto node = candidates_.extract(PopVictim());
    node.key() = x;
    node.mapped() = 1;
    candidates_.insert(std::move(node));
    if (victims_count_ != 1) {
      victims_.clear();
      victims_count_ = 1;
    }
    victims_.push_back(x);
    std::push_heap(victims_.begin(), victims_.end());
  }
}

int64_t CountMinSketch::PopVictim() {
  for (;;) {
    if (victims_.empty()) {
      // Refill with every candidate at the minimum count (one scan; its
      // capacity then covers the whole table, so later refills and
      // pushes never allocate).
      victims_.reserve(candidates_.size());
      victims_count_ = std::numeric_limits<uint64_t>::max();
      for (const auto& [elem, count] : candidates_) {
        if (count < victims_count_) {
          victims_.clear();
          victims_count_ = count;
        }
        if (count == victims_count_) victims_.push_back(elem);
      }
      std::make_heap(victims_.begin(), victims_.end());
    }
    std::pop_heap(victims_.begin(), victims_.end());
    const int64_t x = victims_.back();
    victims_.pop_back();
    // Skip entries whose count has risen since they were pushed.
    const auto it = candidates_.find(x);
    if (it != candidates_.end() && it->second == victims_count_) return x;
  }
}

void CountMinSketch::InsertBatch(std::span<const int64_t> xs) {
  // Devirtualized inner loop: one indirect call per batch, not per element.
  for (int64_t x : xs) CountMinSketch::Insert(x);
}

void CountMinSketch::Merge(const CountMinSketch& other) {
  RS_CHECK_MSG(width_ == other.width_ && depth_ == other.depth_,
               "cannot merge CountMin sketches with different geometry");
  RS_CHECK_MSG(row_seeds_ == other.row_seeds_,
               "cannot merge CountMin sketches with different hash rows");
  for (size_t r = 0; r < depth_; ++r) {
    for (size_t c = 0; c < width_; ++c) {
      counters_[r][c] += other.counters_[r][c];
    }
  }
  n_ += other.n_;
  for (const auto& [elem, insertions] : other.candidates_) {
    candidates_[elem] += insertions;
  }
  if (candidates_.size() > max_candidates_) {
    // Keep the max_candidates_ most-inserted candidates in one pass
    // (ties broken by element for determinism).
    std::vector<std::pair<int64_t, uint64_t>> entries(candidates_.begin(),
                                                      candidates_.end());
    std::nth_element(entries.begin(),
                     entries.begin() + (max_candidates_ - 1), entries.end(),
                     [](const auto& a, const auto& b) {
                       return a.second != b.second ? a.second > b.second
                                                   : a.first < b.first;
                     });
    entries.resize(max_candidates_);
    candidates_ = std::unordered_map<int64_t, uint64_t>(entries.begin(),
                                                        entries.end());
  }
  victims_.clear();
}

uint64_t CountMinSketch::EstimateCount(int64_t x) const {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (size_t r = 0; r < depth_; ++r) {
    best = std::min(best, counters_[r][Bucket(r, x)]);
  }
  return best;
}

double CountMinSketch::EstimateFrequency(int64_t x) const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(EstimateCount(x)) / static_cast<double>(n_);
}

std::vector<HeavyHitter> CountMinSketch::HeavyHitters(
    double threshold) const {
  std::vector<HeavyHitter> out;
  if (n_ == 0) return out;
  for (const auto& [elem, unused_insertions] : candidates_) {
    const double f = EstimateFrequency(elem);
    if (f >= threshold) out.push_back(HeavyHitter{elem, f});
  }
  SortHeavyHitters(&out);
  return out;
}

void CountMinSketch::SerializeTo(wire::ByteSink& sink) const {
  wire::PutVarint(sink, width_);
  wire::PutVarint(sink, depth_);
  wire::PutVarint(sink, max_candidates_);
  wire::PutVarint(sink, conservative_update_ ? 1 : 0);
  wire::PutVarint(sink, n_);
  wire::PutFixed64Array(sink, row_seeds_);
  // v2: each counter row is one fixed64 bulk Append (width * 8 bytes)
  // instead of width varints — this was the serializer whose per-cell
  // emission dominated snapshot shipping.
  for (const auto& row : counters_) {
    wire::PutFixed64Array(sink, row);
  }
  wire::PutCountMap(sink, candidates_);
}

bool CountMinSketch::DeserializeFrom(wire::ByteSource& source) {
  uint64_t width = 0, depth = 0, max_candidates = 0, conservative = 0, n = 0;
  if (!wire::GetVarint(source, &width) || !wire::GetVarint(source, &depth) ||
      !wire::GetVarint(source, &max_candidates) ||
      !wire::GetVarint(source, &conservative) ||
      !wire::GetVarint(source, &n)) {
    return false;
  }
  if (width < 2 || depth < 1 || conservative > 1 || max_candidates < 1 ||
      max_candidates > wire::kMaxVectorElements ||
      depth > wire::kMaxVectorElements / width) {  // overflow-safe w*d cap
    return source.Fail();
  }
  std::vector<uint64_t> row_seeds(static_cast<size_t>(depth));
  if (!wire::GetFixed64Array(source, row_seeds.data(), row_seeds.size())) {
    return false;
  }
  std::vector<std::vector<uint64_t>> counters(
      static_cast<size_t>(depth),
      std::vector<uint64_t>(static_cast<size_t>(width), 0));
  if (source.wire_version() >= wire::kWireFormatV2) {
    for (auto& row : counters) {
      if (!wire::GetFixed64Array(source, row.data(), row.size())) {
        return false;
      }
      for (uint64_t c : row) {
        // Every counter is a sum of insertion increments, so none can
        // exceed the stream length.
        if (c > n) return source.Fail();
      }
    }
  } else {
    // v1 upgrade reader: per-cell varints.
    for (auto& row : counters) {
      for (uint64_t& c : row) {
        if (!wire::GetVarint(source, &c)) return false;
        if (c > n) return source.Fail();
      }
    }
  }
  std::unordered_map<int64_t, uint64_t> candidates;
  if (!wire::GetCountMap(source, &candidates, max_candidates)) return false;
  width_ = static_cast<size_t>(width);
  depth_ = static_cast<size_t>(depth);
  max_candidates_ = static_cast<size_t>(max_candidates);
  conservative_update_ = conservative == 1;
  n_ = static_cast<size_t>(n);
  row_seeds_ = std::move(row_seeds);
  counters_ = std::move(counters);
  candidates_ = std::move(candidates);
  victims_.clear();
  return true;
}

std::string CountMinSketch::Name() const {
  return std::string(conservative_update_ ? "count-min-cu(" : "count-min(") +
         std::to_string(width_) + "x" + std::to_string(depth_) + ")";
}

}  // namespace robust_sampling
