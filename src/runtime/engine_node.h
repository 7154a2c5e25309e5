#ifndef PS2_RUNTIME_ENGINE_NODE_H_
#define PS2_RUNTIME_ENGINE_NODE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/delivery_sink.h"
#include "persist/durability.h"
#include "runtime/cluster.h"
#include "runtime/threaded_engine.h"

namespace ps2 {

// One PS2Stream node — the paper's dispatcher -> worker -> merger pipeline
// as a unit: a Cluster, the ThreadedEngine running it once started, and the
// DurabilityManager journaling it when durable. The single-engine facade
// holds one node; the shard fabric holds one per shard. This is the only
// code that builds, mutates, starts, checkpoints and recovers that stack,
// so both deployments share one WAL-before-apply ordering, one
// sync-vs-started split and one recovery sequence.
//
// Two modes, one contract: before Start() (and after Stop()) every call is
// applied inline on the cluster; while started, calls are submitted to the
// engine and the worker threads apply them. Mutations reach the WAL before
// either. Single producer: every method is called from one control thread.
class EngineNode {
 public:
  // `vocab` is the shared vocabulary (not owned; must outlive the node).
  // `engine` is the per-start engine template; Start() fills in the WAL and
  // delivery sink.
  EngineNode(const Vocabulary* vocab, ClusterOptions cluster,
             EngineOptions engine);

  EngineNode(const EngineNode&) = delete;
  EngineNode& operator=(const EngineNode&) = delete;

  // The bootstrap plan: built by the named partitioner from `sample`, or —
  // no sample or an unknown partitioner — a uniform grid assignment so the
  // service still works (the first global adjustment can fix it later).
  static PartitionPlan BootstrapPlan(const std::string& partitioner,
                                     const WorkloadSample& sample,
                                     const Vocabulary& vocab,
                                     const PartitionConfig& config);

  // (Re)builds an empty cluster over `plan`. The engine must be stopped.
  void Build(PartitionPlan plan);

  // --- durability -----------------------------------------------------------
  // Opens a fresh durable directory at `config.dir` with the built state
  // (vocabulary + plan, no queries) as recovery point zero. False — and the
  // node stays non-durable — when the directory cannot be initialized.
  bool InitDurability(const DurabilityConfig& config);
  // Rebuilds the index from a recovered directory: re-inserts every
  // recovered query `admit` accepts (it may rewrite the query first, e.g.
  // remap its term ids; false skips it) into the built cluster, opens a new
  // load window, then resumes logging at `config.dir` after the replayed
  // WAL chain. False when logging cannot resume: the index is rebuilt but
  // the node is not durable.
  bool Recover(const RecoveredState& state, const DurabilityConfig& config,
               const std::function<bool(STSQuery&)>& admit);
  // Captures and commits a checkpoint: rotates the WAL, then completes
  // `view` with the vocabulary, the live plan and (include_snapshot) the
  // routing snapshot. The caller fills in ids, queries and top-k state.
  // False when the node is not durable or the write fails.
  bool Checkpoint(CheckpointView view);
  // The live plan: copied under the routing writer lock while started, so
  // installed migrations never interleave.
  PartitionPlan PlanCopy();

  // --- mutations (WAL-before-apply) -----------------------------------------
  void Insert(const STSQuery& query);
  void Delete(const STSQuery& query);
  // Moving subscriber: journals `new_query` as one update record, then
  // deletes `old_query` (when given: the old region's postings must drain
  // first, since a same-id insert binds the live slot) and inserts
  // `new_query`.
  void Update(const STSQuery* old_query, const STSQuery& new_query);
  // Publishes an object stamped `publish_us`. Started: submitted to the
  // engine, whose workers dedup and deliver into the sink it was started
  // with. Sync: matched inline, and every match the cluster's merger and
  // then `sink`'s window accept is delivered into `sink` before returning.
  // False when the engine stopped mid-submit.
  bool Publish(const SpatioTextualObject& object, int64_t publish_us,
               DeliverySink* sink);

  // --- engine ---------------------------------------------------------------
  // Spawns a ThreadedEngine over the cluster, journaling migrations to the
  // node's WAL and delivering into `sink`.
  void Start(DeliverySink* sink);
  // Drains the engine and returns its report (empty when not started). The
  // stopped engine stays inspectable through engine().
  RunReport Stop();
  bool started() const { return engine_ != nullptr && engine_->running(); }
  // Blocks until everything submitted so far is fully processed; no-op in
  // sync mode, where every call already completed inline.
  void Quiesce();
  // Live data-plane ring occupancy (zeros when not started).
  void DataPlaneFill(uint64_t* pending, uint64_t* capacity) const;
  // Crash teardown: aborts the engine without draining, then drops the WAL
  // — abandoning its unwritten batch as a crash would, or (`abandon_wal`
  // false) closing it cleanly. The cluster stays readable.
  void Crash(bool abandon_wal = true);

  // --- components -----------------------------------------------------------
  Cluster& cluster() { return *cluster_; }
  ThreadedEngine* engine() { return engine_.get(); }
  DurabilityManager* durability() { return durability_.get(); }

 private:
  // Applies one query tuple: submitted when started, processed inline
  // otherwise.
  void ApplyQuery(const StreamTuple& tuple);
  // The routing snapshot a checkpoint embeds (nullptr unless
  // include_snapshot).
  std::shared_ptr<const RoutingSnapshot> CheckpointSnapshot();

  const Vocabulary* vocab_;
  ClusterOptions cluster_options_;
  EngineOptions engine_options_;
  std::unique_ptr<Cluster> cluster_;
  // Declared before engine_: a running engine journals to the WAL, so it
  // must be destroyed first.
  std::unique_ptr<DurabilityManager> durability_;
  std::unique_ptr<ThreadedEngine> engine_;
  // Sync-mode Publish scratch, reused across calls.
  std::vector<MatchResult> fresh_;
  std::vector<Delivery> accepted_;
};

}  // namespace ps2

#endif  // PS2_RUNTIME_ENGINE_NODE_H_
