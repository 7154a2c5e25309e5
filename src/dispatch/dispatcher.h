#ifndef PS2_DISPATCH_DISPATCHER_H_
#define PS2_DISPATCH_DISPATCHER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/query.h"
#include "dispatch/dispatch_stats.h"
#include "dispatch/gridt_index.h"

namespace ps2 {

// The dispatcher component (Figure 1): consumes the merged stream of
// spatio-textual objects and query insert/delete requests and produces the
// per-worker deliveries dictated by the gridt index, while keeping the
// statistics the load controller needs (per-worker tallies, discard counts,
// fan-out). In the threaded runtime several dispatcher threads share one
// GridtIndex; this class is the single-threaded routing core.
class Dispatcher {
 public:
  // One routed delivery: which worker receives the tuple, and (for query
  // updates) which cells it applies to there.
  struct Delivery {
    WorkerId worker = 0;
    std::vector<CellId> cells;  // empty for objects
  };

  // `index` is shared with the load controller; not owned.
  explicit Dispatcher(GridtIndex* index) : index_(index) {}

  // Routes one tuple, appending deliveries. Objects that match no live
  // query key are discarded (counted, no deliveries).
  void Route(const StreamTuple& tuple, std::vector<Delivery>* out);

  // --- statistics ----------------------------------------------------------
  // One Stats instance belongs to one thread; the threaded engine keeps a
  // private copy per dispatcher thread and merges on stop.
  using Stats = DispatchStats;
  const Stats& stats() const { return stats_; }

  GridtIndex& index() { return *index_; }

 private:
  GridtIndex* index_;
  Stats stats_;
  std::vector<WorkerId> scratch_workers_;
};

}  // namespace ps2

#endif  // PS2_DISPATCH_DISPATCHER_H_
