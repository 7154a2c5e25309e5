#ifndef PS2_DISPATCH_MERGER_H_
#define PS2_DISPATCH_MERGER_H_

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "core/query.h"

namespace ps2 {

// The merger component (Figure 1): removes duplicated matching results
// before delivery. Duplicates arise whenever a query is stored on several
// workers (wide regions under space partitioning, multi-term routing under
// text partitioning) and an object reaches more than one of them.
//
// Role today: the synchronous cluster still dedups through this component
// inline, but the threaded engine's workers filter through the sharded
// ShardedDedupWindow (common/dedup_window.h) instead — the merger is off
// the threaded hot path.
//
// Deduplication state is bounded: (query, object) keys are remembered in a
// FIFO window of `window_capacity` entries. The stream is roughly ordered by
// object id, so duplicates of a pair arrive close together and a window far
// larger than the worker fan-out suffices (duplicates of one object arrive
// within one object's fan-out of each other).
class Merger {
 public:
  explicit Merger(size_t window_capacity = 1 << 20)
      : capacity_(window_capacity) {}

  // Returns true when the match is new (should be delivered) and false for
  // a duplicate.
  bool Accept(const MatchResult& m);

  uint64_t delivered() const { return delivered_; }
  uint64_t duplicates() const { return duplicates_; }

  size_t MemoryBytes() const {
    return seen_.size() * (sizeof(uint64_t) + 16) +
           fifo_.size() * sizeof(uint64_t);
  }

 private:
  static uint64_t Key(const MatchResult& m) {
    // 64-bit mix of (query, object); collision odds are negligible for the
    // window sizes used (and a collision only suppresses one delivery).
    uint64_t h = m.query_id * 0x9E3779B97F4A7C15ULL;
    h ^= m.object_id + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  }

  size_t capacity_;
  std::unordered_set<uint64_t> seen_;
  std::deque<uint64_t> fifo_;
  uint64_t delivered_ = 0;
  uint64_t duplicates_ = 0;
};

}  // namespace ps2

#endif  // PS2_DISPATCH_MERGER_H_
