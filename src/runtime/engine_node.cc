#include "runtime/engine_node.h"

#include <utility>

#include "partition/plan.h"

namespace ps2 {

EngineNode::EngineNode(const Vocabulary* vocab, ClusterOptions cluster,
                       EngineOptions engine)
    : vocab_(vocab),
      cluster_options_(std::move(cluster)),
      engine_options_(std::move(engine)) {}

PartitionPlan EngineNode::BootstrapPlan(const std::string& partitioner,
                                        const WorkloadSample& sample,
                                        const Vocabulary& vocab,
                                        const PartitionConfig& config) {
  const auto built = MakePartitioner(partitioner);
  if (built != nullptr && !sample.empty()) {
    return built->Build(sample, vocab, config);
  }
  PartitionPlan plan;
  plan.grid = GridSpec(sample.empty() ? Rect(0, 0, 1, 1) : sample.Bounds(),
                       config.grid_k);
  plan.num_workers = config.num_workers;
  plan.cells.resize(plan.grid.NumCells());
  for (CellId c = 0; c < plan.grid.NumCells(); ++c) {
    plan.cells[c].worker = static_cast<WorkerId>(c % config.num_workers);
  }
  return plan;
}

void EngineNode::Build(PartitionPlan plan) {
  engine_.reset();
  cluster_ = std::make_unique<Cluster>(std::move(plan), vocab_,
                                       cluster_options_);
}

// --- durability --------------------------------------------------------------

std::shared_ptr<const RoutingSnapshot> EngineNode::CheckpointSnapshot() {
  if (!durability_->config().include_snapshot) return nullptr;
  if (started()) return engine_->routing_snapshot();
  return SnapshotRouter(&cluster_->router()).Current();
}

bool EngineNode::InitDurability(const DurabilityConfig& config) {
  durability_ = std::make_unique<DurabilityManager>(config);
  CheckpointView view;
  view.vocab = vocab_;
  view.plan = &cluster_->router().plan();
  const auto snapshot = CheckpointSnapshot();
  view.snapshot = snapshot.get();
  if (!durability_->Initialize(view)) durability_.reset();
  return durability_ != nullptr;
}

bool EngineNode::Recover(const RecoveredState& state,
                         const DurabilityConfig& config,
                         const std::function<bool(STSQuery&)>& admit) {
  // Re-inserting through the recovered plan rebuilds the gridt H2 entries
  // and the per-worker GI2 indexes in one pass.
  for (STSQuery q : state.queries) {
    if (admit(q)) cluster_->Process(StreamTuple::OfInsert(q));
  }
  cluster_->ResetLoadWindow();
  durability_ = std::make_unique<DurabilityManager>(config);
  // Resume logging on the *last* segment of the replayed chain, not the
  // committed checkpoint's: a crash between WAL rotation and checkpoint
  // commit leaves an orphan later segment, and appending to an earlier one
  // would let the next recovery's LSN high-water filter the orphan's
  // records out.
  const uint64_t resume_seq =
      state.checkpoint_seq +
      (state.wal_segments > 0 ? static_cast<uint64_t>(state.wal_segments) - 1
                              : 0);
  if (!durability_->Resume(resume_seq, state.last_lsn + 1)) {
    durability_.reset();
    return false;
  }
  return true;
}

PartitionPlan EngineNode::PlanCopy() {
  return started() ? engine_->PlanCopy() : cluster_->router().plan();
}

bool EngineNode::Checkpoint(CheckpointView view) {
  if (durability_ == nullptr) return false;
  const uint64_t seq = durability_->BeginCheckpoint();
  if (seq == 0) return false;
  // Ordering matters: the WAL was just rotated, so any migration the
  // controller installs from here on lands in the new segment; the plan
  // copy below is taken under the routing writer lock and therefore sees
  // every migration journaled to the *old* segment. Either way nothing is
  // lost, and replaying an already-captured route is idempotent.
  view.vocab = vocab_;
  const PartitionPlan plan = PlanCopy();
  view.plan = &plan;
  const auto snapshot = CheckpointSnapshot();
  view.snapshot = snapshot.get();
  return durability_->CommitCheckpoint(seq, std::move(view));
}

// --- mutations ---------------------------------------------------------------

void EngineNode::ApplyQuery(const StreamTuple& tuple) {
  if (started()) {
    engine_->Submit(tuple);
  } else {
    cluster_->Process(tuple);
  }
}

// Each mutation reaches the WAL first: once the append returns (durable per
// the configured sync mode), a crash at any later point recovers it.
void EngineNode::Insert(const STSQuery& query) {
  if (durability_ != nullptr) {
    durability_->wal().AppendSubscribe(query, *vocab_);
  }
  ApplyQuery(StreamTuple::OfInsert(query));
}

void EngineNode::Delete(const STSQuery& query) {
  if (durability_ != nullptr) durability_->wal().AppendUnsubscribe(query.id);
  ApplyQuery(StreamTuple::OfDelete(query));
}

void EngineNode::Update(const STSQuery* old_query, const STSQuery& new_query) {
  if (durability_ != nullptr) {
    durability_->wal().AppendUpdate(new_query, *vocab_);
  }
  // Both halves ride the query-update path — dispatcher-pinned FIFO rings
  // when started — so the pair never reorders against itself or later
  // updates.
  if (old_query != nullptr) ApplyQuery(StreamTuple::OfDelete(*old_query));
  ApplyQuery(StreamTuple::OfInsert(new_query));
}

bool EngineNode::Publish(const SpatioTextualObject& object,
                         int64_t publish_us, DeliverySink* sink) {
  const StreamTuple tuple = StreamTuple::OfObject(object);
  if (started()) return engine_->Submit(tuple, publish_us);
  fresh_.clear();
  cluster_->Process(tuple, &fresh_);
  // Gate on the sink's window even though the cluster's merger already
  // deduplicated: it is the window the started-mode workers filter
  // through, so sharing it keeps a node that alternates between modes from
  // re-delivering a pair across the transition.
  accepted_.clear();
  for (const MatchResult& m : fresh_) {
    if (!sink->AcceptFresh(m.query_id, m.object_id)) continue;
    Delivery d;
    d.query_id = m.query_id;
    d.object_id = m.object_id;
    d.publish_us = publish_us;
    d.score = m.score;
    d.expire_us = m.expire_us;
    accepted_.push_back(d);
  }
  if (!accepted_.empty()) {
    sink->DeliverBatch(accepted_.data(), accepted_.size());
  }
  return true;
}

// --- engine ------------------------------------------------------------------

void EngineNode::Start(DeliverySink* sink) {
  EngineOptions opts = engine_options_;
  if (durability_ != nullptr) opts.wal = &durability_->wal();
  opts.delivery = sink;
  engine_ = std::make_unique<ThreadedEngine>(*cluster_, opts);
  engine_->Start();
}

RunReport EngineNode::Stop() {
  return started() ? engine_->Stop() : RunReport{};
}

void EngineNode::Quiesce() {
  if (started()) engine_->Quiesce();
}

void EngineNode::DataPlaneFill(uint64_t* pending, uint64_t* capacity) const {
  *pending = 0;
  *capacity = 0;
  if (started()) engine_->DataPlaneFill(pending, capacity);
}

void EngineNode::Crash(bool abandon_wal) {
  if (started()) engine_->Abort();
  engine_.reset();
  // Abandon, not Close: a graceful close would flush the WAL's pending
  // batch, making the "crash" more durable than the sync mode guaranteed.
  if (durability_ != nullptr && abandon_wal) durability_->Abandon();
  durability_.reset();
}

}  // namespace ps2
