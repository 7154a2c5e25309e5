#ifndef PS2_ADJUST_GLOBAL_ADJUST_H_
#define PS2_ADJUST_GLOBAL_ADJUST_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/workload_stats.h"
#include "dispatch/gridt_index.h"
#include "partition/plan.h"

namespace ps2 {

// Global load adjustment (Section V-B): periodically check whether a full
// workload repartitioning pays off on a recent sample; if so, install the
// new strategy *alongside* the old one. Old STS queries keep routing through
// the old strategy, new queries through the new one, and objects through
// both — the paper's "temporary compromise" that avoids a bulk migration.
// Once few old queries remain, the stragglers are re-registered under the
// new strategy and the old one is dropped.
//
// This class owns the double-buffered routing; the embedding system feeds
// it the tuples (see PS2Stream::Publish/Subscribe and the Fig 16 bench).
class DualStrategyRouter {
 public:
  explicit DualStrategyRouter(std::unique_ptr<GridtIndex> primary)
      : primary_(std::move(primary)) {}

  // Installs a repartitioned plan. Subsequent inserts route through the new
  // index; live queries stay pinned to the old one for deletion routing.
  void InstallNewPlan(std::unique_ptr<GridtIndex> next);

  bool InTransition() const { return old_ != nullptr; }
  size_t OldQueryCount() const;

  GridtIndex& primary() { return *primary_; }

  // Routing. Objects take the union of both strategies' destinations while
  // a transition is in flight.
  void RouteObject(const SpatioTextualObject& o,
                   std::vector<WorkerId>* out) const;
  std::vector<PartitionPlan::QueryRoute> RouteInsert(const STSQuery& q);
  std::vector<PartitionPlan::QueryRoute> RouteDelete(const STSQuery& q);

  // True when the old strategy has drained below `threshold` queries and
  // should be retired. Retirement (re-registering stragglers) is performed
  // by the caller via TakeOldQueriesAndRetire since it must touch workers.
  bool ReadyToRetire(size_t threshold) const {
    return InTransition() && OldQueryCount() <= threshold;
  }

  // Returns (and clears) the remaining old queries; the caller re-routes
  // them through the new strategy and migrates the worker state. Drops the
  // old index.
  std::vector<STSQuery> TakeOldQueriesAndRetire();

  size_t MemoryBytes() const;

 private:
  struct LiveQuery {
    STSQuery query;
    bool old_generation = false;  // registered under the old strategy
  };

  std::unique_ptr<GridtIndex> primary_;
  std::unique_ptr<GridtIndex> old_;
  // All live queries with their registration generation (full queries are
  // kept so stragglers can be re-registered on retirement).
  std::unordered_map<QueryId, LiveQuery> live_;
};

// Decides whether a repartitioning is worthwhile: rebuilds a candidate plan
// on `sample` and compares estimated total load against the current plan.
struct RepartitionDecision {
  bool repartition = false;
  double current_load = 0.0;
  double candidate_load = 0.0;
  PartitionPlan candidate;
};

RepartitionDecision EvaluateRepartition(const PartitionPlan& current,
                                        const WorkloadSample& sample,
                                        const Vocabulary& vocab,
                                        const PartitionConfig& config,
                                        double improvement_threshold = 0.10);

}  // namespace ps2

#endif  // PS2_ADJUST_GLOBAL_ADJUST_H_
