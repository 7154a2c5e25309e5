#ifndef PS2_ADJUST_LOAD_CONTROLLER_H_
#define PS2_ADJUST_LOAD_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adjust/global_adjust.h"
#include "adjust/local_adjust.h"
#include "adjust/migration_executor.h"

namespace ps2 {

struct LoadControllerConfig {
  LocalAdjustConfig adjust;
  // Periodically evaluate whether a full repartitioning (Section V-B) would
  // beat local adjustments. Check() only *records* the decision: acting on
  // it (dual-strategy routing) is the embedding runtime's call.
  bool evaluate_global = false;
  size_t global_check_every = 8;  // local checks between global evaluations
  PartitionConfig partition;
  double global_improvement_threshold = 0.10;
};

// The load-adjustment control plane shared by every runtime. The simulator
// and the synchronous PS2Stream facade call Check() inline between tuples;
// ThreadedEngine runs it on a dedicated controller thread against live
// per-worker tallies, with movements staged through its live executor.
// The controller itself is single-threaded — callers serialize Check().
class LoadController {
 public:
  explicit LoadController(const LoadControllerConfig& config);

  // One balance check over externally measured per-worker loads; movements
  // go through `exec`. Returns the adjustment report (triggered == false
  // when the balance constraint holds).
  AdjustReport Check(Cluster& cluster, const std::vector<double>& loads,
                     const WorkloadSample& window, MigrationExecutor& exec);

  // Synchronous convenience: loads from the cluster's tallies, movements
  // applied inline, global evaluation (if configured) run inline too.
  AdjustReport Check(Cluster& cluster, const WorkloadSample& window);

  // Runs the Section V-B repartition evaluation when its cadence is due.
  // Advisory: only records the decision. The threaded engine calls this
  // *outside* its migration critical section — building a candidate plan is
  // far too slow to run while the routing writer lock and the workers' Gi2
  // locks are held. Returns true when a repartition is recommended.
  bool MaybeEvaluateGlobal(Cluster& cluster, const WorkloadSample& window);

  // --- accounting -----------------------------------------------------------
  struct Totals {
    uint64_t checks = 0;
    uint64_t triggered = 0;     // balance violations observed
    uint64_t adjustments = 0;   // checks that actually moved something
    uint64_t cells_moved = 0;
    uint64_t queries_moved = 0;
    uint64_t bytes_moved = 0;
  };
  const Totals& totals() const { return totals_; }

  // Latest global repartition evaluation (nullptr until one ran).
  const RepartitionDecision* last_global_decision() const {
    return global_decision_.get();
  }
  uint64_t global_evaluations() const { return global_evaluations_; }

  const LoadControllerConfig& config() const { return config_; }

 private:
  LoadControllerConfig config_;
  LocalLoadAdjuster adjuster_;
  Totals totals_;
  std::unique_ptr<RepartitionDecision> global_decision_;
  uint64_t global_evaluations_ = 0;
};

}  // namespace ps2

#endif  // PS2_ADJUST_LOAD_CONTROLLER_H_
