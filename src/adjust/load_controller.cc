#include "adjust/load_controller.h"

namespace ps2 {

LoadController::LoadController(const LoadControllerConfig& config)
    : config_(config), adjuster_(config.adjust) {}

AdjustReport LoadController::Check(Cluster& cluster,
                                   const std::vector<double>& loads,
                                   const WorkloadSample& window,
                                   MigrationExecutor& exec) {
  ++totals_.checks;
  AdjustReport report = adjuster_.Adjust(cluster, window, loads, exec);
  if (report.triggered) {
    ++totals_.triggered;
    const bool moved = report.queries_moved > 0 || report.phase1_splits > 0 ||
                       report.phase1_merges > 0 ||
                       !report.selection.cells.empty();
    if (moved) {
      ++totals_.adjustments;
      totals_.cells_moved += report.selection.cells.size() +
                             report.phase1_splits + report.phase1_merges;
      totals_.queries_moved += report.queries_moved;
      totals_.bytes_moved += report.bytes_migrated;
    }
  }
  return report;
}

bool LoadController::MaybeEvaluateGlobal(Cluster& cluster,
                                         const WorkloadSample& window) {
  if (!config_.evaluate_global || config_.global_check_every == 0 ||
      totals_.checks % config_.global_check_every != 0 || window.empty()) {
    return false;
  }
  ++global_evaluations_;
  global_decision_ = std::make_unique<RepartitionDecision>(
      EvaluateRepartition(cluster.router().plan(), window, cluster.vocab(),
                          config_.partition,
                          config_.global_improvement_threshold));
  return global_decision_->repartition;
}

AdjustReport LoadController::Check(Cluster& cluster,
                                   const WorkloadSample& window) {
  SyncMigrationExecutor exec(cluster);
  AdjustReport report = Check(
      cluster, cluster.WorkerLoads(config_.adjust.cost), window, exec);
  MaybeEvaluateGlobal(cluster, window);
  return report;
}

}  // namespace ps2
