#include "runtime/ps2stream.h"

#include <algorithm>
#include <filesystem>

#include "adjust/touch_tracking_executor.h"
#include "common/stopwatch.h"
#include "partition/plan.h"

namespace ps2 {

namespace {

// Gathers the per-shard option subset the fabric consumes out of the
// facade's option block.
ShardedEngineConfig FabricConfig(const PS2StreamOptions& options) {
  ShardedEngineConfig config;
  config.fabric = options.sharding;
  config.partitioner = options.partitioner;
  config.partition = options.partition;
  config.cluster = options.cluster;
  config.engine = options.engine;
  config.engine.window_capacity = options.window_capacity;
  config.durability = options.durability;
  return config;
}

// The single-engine node: the facade's engine options plus its Phase-I
// window and, with auto_adjust, the online controller.
std::unique_ptr<EngineNode> MakeNode(const PS2StreamOptions& options,
                                     const Vocabulary* vocab) {
  EngineOptions engine = options.engine;
  engine.window_capacity = options.window_capacity;
  if (options.auto_adjust) {
    engine.controller.enabled = true;
    engine.controller.config.adjust = options.adjust;
    engine.controller.min_tuples = options.adjust_check_interval;
  }
  return std::make_unique<EngineNode>(vocab, options.cluster,
                                      std::move(engine));
}

}  // namespace

PS2Stream::PS2Stream(PS2StreamOptions options)
    : options_(std::move(options)),
      delivery_(std::make_unique<DeliveryRouter>()),
      quota_(options_.quota),
      overload_(options_.overload),
      alive_(std::make_shared<int>(0)) {
  LoadControllerConfig config;
  config.adjust = options_.adjust;
  controller_ = std::make_unique<LoadController>(config);
  // Top-k admission sits between the router's dedup window and the
  // sessions; with no top-k subscriptions registered it is one relaxed
  // atomic load per batch.
  delivery_->SetTopK(&topk_);
}

PS2Stream::~PS2Stream() {
  // The exporter thread snapshots live facade state; stop it before any of
  // that state starts tearing down.
  StopMetricsExporter();
  // Invalidate RAII Subscription handles first: a handle destroyed (on
  // this thread) after this point no-ops instead of re-entering a dying
  // facade. The token orders handle-vs-facade *destruction order*, not
  // cross-thread teardown — like the rest of the control plane, handles
  // and the facade must be destroyed from one thread.
  alive_.reset();
  // Through Stop(), not engine_->Stop(): the facade variant puts sessions
  // into draining mode first, so a worker parked on a full kBlock session
  // cannot wedge the join.
  if (started()) Stop();
}

void PS2Stream::Bootstrap(const WorkloadSample& sample) {
  AccumulateVocabularyCounts(sample, vocab_);
  if (options_.sharding.num_shards > 1) {
    // Multi-shard mode: the fabric owns plan building, the engine fleet and
    // per-shard durability; the facade keeps the vocabulary, the delivery
    // router and the subscription registry — the client API is unchanged.
    fabric_ = std::make_unique<ShardedEngine>(FabricConfig(options_),
                                              &vocab_, delivery_.get());
    fabric_->Bootstrap(sample);
    return;
  }
  node_ = MakeNode(options_, &vocab_);
  node_->Build(EngineNode::BootstrapPlan(options_.partitioner, sample, vocab_,
                                         options_.partition));
  if (options_.durability.enabled && !options_.durability.dir.empty()) {
    // The bootstrap state (vocab + plan, no queries yet) is recovery point
    // zero; every later mutation reaches the WAL before it takes effect.
    node_->InitDurability(options_.durability);
  }
}

void PS2Stream::AdoptRestored(const STSQuery& q) {
  subscriptions_[q.id] = q;
  if (q.cls == SubscriptionClass::kTopK) topk_.Register(q.id, q.k);
  // Quota charges are runtime state, not persisted: recovered subscriptions
  // re-charge against the default tenant (attribution is lost across a
  // crash) and are never rejected.
  quota_.ChargeRestored(q.id, std::string());
}

bool PS2Stream::Restore(const std::string& dir) {
  if (bootstrapped()) return false;
  DurabilityConfig config = options_.durability;
  if (!dir.empty()) config.dir = dir;
  if (config.dir.empty()) return false;
  config.enabled = true;

  TopKCheckpoint topk;
  subscriptions_.clear();
  // A SHARDMAP file marks the directory as a fabric root; restore then
  // reassembles the whole fleet (the shard count comes from the file, not
  // the options, so a facade configured for 1 shard still restores an
  // N-shard directory correctly).
  if (std::filesystem::exists(ShardMapPath(config.dir))) {
    PS2StreamOptions fabric_options = options_;
    fabric_options.durability = config;
    auto fabric = std::make_unique<ShardedEngine>(
        FabricConfig(fabric_options), &vocab_, delivery_.get());
    ShardedEngine::Recovery recovery;
    if (!fabric->Restore(config.dir, &recovery)) {
      vocab_ = Vocabulary();
      return false;
    }
    fabric_ = std::move(fabric);
    for (const STSQuery& q : recovery.queries) AdoptRestored(q);
    topk = std::move(recovery.topk);
    next_query_id_ = recovery.next_query_id;
    next_object_id_ = recovery.next_object_id;
  } else {
    auto state = std::make_unique<RecoveredState>();
    if (!RecoverState(config.dir, state.get())) return false;
    vocab_ = std::move(state->vocab);
    node_ = MakeNode(options_, &vocab_);
    node_->Build(state->plan);
    const bool resumed =
        node_->Recover(*state, config, [this](const STSQuery& q) {
          AdoptRestored(q);
          return true;
        });
    if (!resumed) {
      // Recovery loaded but logging cannot continue: succeeding here would
      // leave a service that silently loses every post-restore mutation.
      // Fail wholesale; the caller keeps a virgin instance.
      node_.reset();
      for (const auto& [id, q] : subscriptions_) quota_.Refund(id);
      subscriptions_.clear();
      vocab_ = Vocabulary();
      return false;
    }
    topk = std::move(state->topk);
    next_query_id_ = state->next_query_id;
    next_object_id_ = state->next_object_id;
    recovered_ = std::move(state);
  }
  live_subscriptions_.store(subscriptions_.size(), std::memory_order_relaxed);
  // Heap state restores after registration (Restore drops entries of
  // queries that are no longer live — e.g. unsubscribed after the
  // checkpoint and replayed from the WAL).
  topk_.Restore(topk);
  options_.durability = config;
  return true;
}

bool PS2Stream::Checkpoint() {
  if (fabric_ == nullptr && durability() == nullptr) return false;
  const TopKCheckpoint topk_cp = topk_.Checkpoint();
  if (fabric_ != nullptr) {
    return fabric_->Checkpoint(next_query_id_, next_object_id_, &topk_cp);
  }
  CheckpointView view;
  view.next_query_id = next_query_id_;
  view.next_object_id = next_object_id_;
  view.queries.reserve(subscriptions_.size());
  for (const auto& [id, q] : subscriptions_) view.queries.push_back(&q);
  view.topk = &topk_cp;
  return node_->Checkpoint(std::move(view));
}

void PS2Stream::MaybeCheckpoint() {
  const bool due = fabric_ != nullptr
                       ? fabric_->ShouldCheckpoint()
                       : durability() != nullptr &&
                             durability()->ShouldCheckpoint();
  if (due) Checkpoint();
}

void PS2Stream::Kill() {
  // A crash tears sessions down with the process: release any worker
  // blocked on a full kBlock queue so the engine threads can be joined.
  delivery_->SetDraining(true);
  if (fabric_ != nullptr) fabric_->Kill();
  if (node_ != nullptr) node_->Crash();
  killed_ = true;
  // The in-memory cluster and subscription map are left readable for
  // post-mortem inspection (tests compare them against what recovery
  // reconstructs), but the service must not be used again.
}

void PS2Stream::Start() {
  if (!bootstrapped() || started()) return;
  if (fabric_ != nullptr) {
    fabric_->Start();
  } else {
    node_->Start(delivery_.get());
  }
}

RunReport PS2Stream::Stop() {
  if (!started()) return RunReport{};
  // Drain mode: from here until the engine is down, a full kBlock session
  // drops instead of blocking the worker that delivers to it — otherwise a
  // consumer that stopped pulling would park a worker thread forever and
  // Stop() could never join it.
  delivery_->SetDraining(true);
  RunReport report = fabric_ != nullptr ? fabric_->Stop() : node_->Stop();
  delivery_->SetDraining(false);
  OverlayLiveCounters(&report);
  {
    // Base layer for MetricsSnapshot(): the engine-internal counters (ring
    // highwaters, migrations, fault tallies) are only assembled here.
    std::lock_guard<std::mutex> lock(report_mu_);
    last_report_ = report;
  }
  return report;
}

// --- client API --------------------------------------------------------------

PS2Stream::SessionPtr PS2Stream::OpenSession(SessionOptions options) {
  auto session = std::make_shared<SubscriberSession>(options);
  delivery_->RegisterSession(session);
  return session;
}

StatusOr<Subscription> PS2Stream::Subscribe(const SessionPtr& session,
                                            const std::string& expression,
                                            const Rect& region) {
  if (Status st = Serving("Subscribe"); !st.ok()) return st;
  std::string parse_error;
  BoolExpr expr = BoolExpr::Parse(expression, vocab_, &parse_error);
  if (expr.has_error()) {
    return Status::InvalidArgument("expression \"" + expression +
                                   "\": " + parse_error);
  }
  if (expr.empty()) {
    return Status::InvalidArgument("expression \"" + expression +
                                   "\" has no keywords");
  }
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  STSQuery q;
  q.id = next_query_id_++;
  q.expr = std::move(expr);
  q.region = region;
  if (const Status st = ApplySubscribe(q, session); !st.ok()) return st;
  return Subscription(q.id, this, alive_);
}

StatusOr<Subscription> PS2Stream::Subscribe(const SessionPtr& session,
                                            const STSQuery& query) {
  if (Status st = Serving("Subscribe"); !st.ok()) return st;
  if (query.id == 0) {
    return Status::InvalidArgument("query id 0 is reserved");
  }
  if (query.expr.empty()) {
    return Status::InvalidArgument("query has an empty expression");
  }
  if (subscriptions_.count(query.id) != 0) {
    return Status::AlreadyExists("query id " + std::to_string(query.id) +
                                 " is already subscribed");
  }
  if (const Status st = ValidateQuerySpec(query); !st.ok()) return st;
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  if (const Status st = ApplySubscribe(query, session); !st.ok()) return st;
  return Subscription(query.id, this, alive_);
}

StatusOr<Subscription> PS2Stream::Subscribe(const SessionPtr& session,
                                            const SubscriptionSpec& spec) {
  if (Status st = Serving("Subscribe"); !st.ok()) return st;
  STSQuery q;
  if (const Status st = CompileSpec(spec, vocab_, &q); !st.ok()) return st;
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  q.id = next_query_id_++;
  if (const Status st = ApplySubscribe(q, session); !st.ok()) return st;
  return Subscription(q.id, this, alive_);
}

Status PS2Stream::UpdateSubscription(QueryId id, const Rect& new_region) {
  if (Status st = Serving("UpdateSubscription"); !st.ok()) return st;
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) {
    return Status::NotFound("no live subscription with id " +
                            std::to_string(id));
  }
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  const STSQuery old_query = it->second;
  STSQuery new_query = old_query;
  new_query.region = new_region;
  return ApplyUpdate(old_query, new_query);
}

Status PS2Stream::Cancel(QueryId id) {
  if (killed_) return Status::Unavailable("service was killed");
  if (subscriptions_.find(id) == subscriptions_.end()) {
    return Status::NotFound("no live subscription with id " +
                            std::to_string(id));
  }
  return ApplyUnsubscribe(id);
}

void PS2Stream::CancelSubscription(QueryId id) {
  if (killed_) return;
  ApplyUnsubscribe(id);
}

Status PS2Stream::Post(Point loc, const std::string& text) {
  return Post(std::string(), loc, text);
}

Status PS2Stream::Post(const SpatioTextualObject& object) {
  return Post(std::string(), object);
}

Status PS2Stream::Post(const std::string& tenant, Point loc,
                       const std::string& text) {
  if (Status st = Serving("Post"); !st.ok()) return st;
  // Rate-limit before the object is built: a rejected publish must not
  // consume an object id or touch the vocabulary frequency profile.
  if (Status st = quota_.AdmitPublish(tenant, NowMicros()); !st.ok()) {
    return st;
  }
  SpatioTextualObject o;
  if (started()) {
    // Routing threads read the vocabulary lock-free while the data plane
    // runs, so a live Post must not grow or recount it: tokens the
    // vocabulary has never seen are dropped (a TermId that exists nowhere
    // cannot appear in any subscription expression, so no match outcome
    // changes) and the frequency profile stays frozen at its pre-Start
    // state.
    std::vector<TermId> ids;
    for (const auto& tok : tokenizer_.Tokenize(text)) {
      const TermId t = vocab_.Lookup(tok);
      if (t != kInvalidTerm) ids.push_back(t);
    }
    o = SpatioTextualObject::FromTerms(next_object_id_++, loc,
                                       std::move(ids));
  } else {
    o = SpatioTextualObject::FromText(next_object_id_++, loc, text, vocab_,
                                      tokenizer_);
    for (const TermId t : o.terms) vocab_.AddCount(t);
  }
  return PostInternal(o);
}

Status PS2Stream::Post(const std::string& tenant,
                       const SpatioTextualObject& object) {
  if (Status st = Serving("Post"); !st.ok()) return st;
  if (Status st = quota_.AdmitPublish(tenant, NowMicros()); !st.ok()) {
    return st;
  }
  return PostInternal(object);
}

Status PS2Stream::PostInternal(const SpatioTextualObject& object) {
  if (const Status gate = DurabilityGate(); !gate.ok()) return gate;
  // Overload sampling rides the publish path (every check_interval admitted
  // posts) so pressure is observed exactly when it is being generated.
  if (overload_.ShouldSample()) SampleOverload();
  next_object_id_ = std::max(next_object_id_, object.id + 1);
  // Event time moves first, exactly like the reference matcher: expiries
  // (and the promotions they cause) land before this object's own matches.
  AdvanceWatermark(object.timestamp_us);
  const int64_t publish_us = NowMicros();
  if (fabric_ != nullptr) {
    // The fabric routes the object to its cell's owner shard and carries
    // this publish stamp through the wire, so delivery latency covers the
    // whole cross-shard path. kUnavailable when the owner shard is
    // quarantined (degraded mode).
    return fabric_->Post(object, publish_us);
  }
  // Started: the workers deliver to the routed sessions through the
  // router's dedup window. Sync: delivered before Publish returns.
  if (!node_->Publish(object, publish_us, delivery_.get())) {
    return Status::Unavailable("engine stopped while submitting");
  }
  if (tracking()) Track(StreamTuple::OfObject(object));
  return Status::Ok();
}

Status PS2Stream::ApplySubscribe(const STSQuery& query,
                                 const SessionPtr& session) {
  // Admission control first — every Subscribe overload funnels through
  // here, so shedding and quotas cannot be bypassed. While the overload
  // controller is degraded, new subscriptions are refused outright (the
  // load that tripped it must drain before the working set may grow).
  if (overload_.shed_subscribes()) {
    overload_.CountShed();
    return Status::ResourceExhausted(
        "overload: subscribe rejected while degraded (queue fill above "
        "overload.high_watermark)");
  }
  if (Status st = quota_.ChargeSubscribe(
          query.id, session != nullptr ? session->options().tenant : "",
          session != nullptr ? session->uid() : 0);
      !st.ok()) {
    return st;
  }
  // Arm top-k admission before any path can index the query: a candidate
  // produced the instant the insert applies must find its state.
  if (query.cls == SubscriptionClass::kTopK) {
    topk_.Register(query.id, query.k);
  }
  subscriptions_[query.id] = query;
  next_query_id_ = std::max(next_query_id_, query.id + 1);
  // Route deliveries before the insert can reach a worker or shard: a match
  // can only be produced after the insert is applied, so the session never
  // misses one.
  if (session != nullptr) delivery_->Route(query.id, session);
  if (fabric_ != nullptr) {
    // Per-shard WAL-before-apply happens inside: every shard journals the
    // insert to its own log before indexing it. A quarantined owner bounces
    // the whole subscription (the fabric rolled its side back already).
    if (const Status st = fabric_->Subscribe(query); !st.ok()) {
      subscriptions_.erase(query.id);
      delivery_->Unroute(query.id);
      topk_.Forget(query.id);
      quota_.Refund(query.id);
      return st;
    }
  } else {
    node_->Insert(query);
    if (tracking()) Track(StreamTuple::OfInsert(query));
  }
  live_subscriptions_.fetch_add(1, std::memory_order_relaxed);
  MaybeCheckpoint();
  return Status::Ok();
}

Status PS2Stream::ApplyUnsubscribe(QueryId id) {
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return Status::Ok();
  // Release the quota charge the moment the subscription stops being live —
  // a tenant at its limit can Cancel one subscription and immediately admit
  // another.
  quota_.Refund(id);
  live_subscriptions_.fetch_sub(1, std::memory_order_relaxed);
  const STSQuery query = std::move(it->second);
  subscriptions_.erase(it);
  // Unroute immediately: no delivery reaches the session after Unsubscribe
  // returns. A match already in flight in a started engine lands in the
  // router's `unrouted` counter instead.
  delivery_->Unroute(id);
  topk_.Forget(id);
  Status st = Status::Ok();
  if (fabric_ != nullptr) {
    // Copies at quarantined shards die with the shard; only a fleet-wide
    // outage of the owners reports kUnavailable.
    st = fabric_->Unsubscribe(id);
  } else {
    node_->Delete(query);
    if (tracking()) Track(StreamTuple::OfDelete(query));
  }
  MaybeCheckpoint();
  return st;
}

Status PS2Stream::ApplyUpdate(const STSQuery& old_query,
                              const STSQuery& new_query) {
  subscriptions_[new_query.id] = new_query;
  if (fabric_ != nullptr) {
    // The fabric journals the update per shard (WAL-before-apply inside)
    // and routes kQueryUpdate / insert / delete frames by old-vs-new owner
    // membership. A quarantined target bounces the whole update.
    if (const Status st = fabric_->Update(old_query, new_query); !st.ok()) {
      subscriptions_[old_query.id] = old_query;
      return st;
    }
  } else {
    // Same id, new region: the session route and any held top-k results
    // are untouched.
    node_->Update(&old_query, new_query);
    if (tracking()) {
      Track(StreamTuple::OfDelete(old_query));
      Track(StreamTuple::OfInsert(new_query));
    }
  }
  MaybeCheckpoint();
  return Status::Ok();
}

void PS2Stream::AdvanceWatermark(int64_t watermark_us) {
  if (!topk_.active()) return;
  std::vector<Delivery> promoted;
  topk_.AdvanceWatermark(watermark_us, &promoted);
  for (const Delivery& d : promoted) delivery_->DeliverAdmitted(d);
}

void PS2Stream::AdvanceEventTime(int64_t watermark_us) {
  if (killed_) return;
  AdvanceWatermark(watermark_us);
}

Status PS2Stream::Serving(const char* op) const {
  if (killed_) return Status::Unavailable("service was killed");
  if (!bootstrapped()) {
    return Status::FailedPrecondition(
        std::string("Bootstrap() or Restore() must succeed before ") + op);
  }
  return Status::Ok();
}

Status PS2Stream::DurabilityGate() const {
  if (fabric_ != nullptr) return fabric_->durability_status();
  const DurabilityManager* dm =
      node_ != nullptr ? node_->durability() : nullptr;
  if (dm != nullptr && !dm->healthy()) {
    return Status::DataLoss(
        "WAL hit a sticky I/O error; mutations would not survive a crash");
  }
  return Status::Ok();
}

Status PS2Stream::Health() {
  if (Status st = Serving("Health"); !st.ok()) return st;
  if (fabric_ != nullptr) return fabric_->CheckHealth();
  return DurabilityGate();
}

void PS2Stream::SampleOverload() {
  uint64_t session_pending = 0, session_capacity = 0;
  delivery_->QueueDepth(&session_pending, &session_capacity);
  uint64_t ring_pending = 0, ring_capacity = 0;
  if (fabric_ != nullptr) {
    fabric_->DataPlaneFill(&ring_pending, &ring_capacity);
  } else {
    node_->DataPlaneFill(&ring_pending, &ring_capacity);
  }
  const double session_fill =
      session_capacity > 0 ? static_cast<double>(session_pending) /
                                 static_cast<double>(session_capacity)
                           : 0.0;
  const double ring_fill =
      ring_capacity > 0 ? static_cast<double>(ring_pending) /
                              static_cast<double>(ring_capacity)
                        : 0.0;
  overload_.Observe(session_fill, ring_fill, delivery_.get());
}

RunReport PS2Stream::MetricsSnapshot() const {
  RunReport r;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    r = last_report_;
  }
  // The base layer's engine internals (ring highwaters, migrations) stay at
  // their last-Stop values.
  OverlayLiveCounters(&r);
  r.dedup_kills = delivery_->dedup_kills();
  return r;
}

void PS2Stream::OverlayLiveCounters(RunReport* r) const {
  const SessionStats sessions = delivery_->AggregateStats();
  r->session_deliveries = sessions.delivered;
  r->session_drops = sessions.dropped;
  r->delivery_latency = sessions.latency;
  r->matches_unrouted = delivery_->unrouted();
  r->quota_rejections = quota_.rejections();
  r->rate_limited = quota_.rate_limited();
  r->overload_trips = overload_.trips();
  r->overload_sheds = overload_.sheds();
  r->live_subscriptions = live_subscriptions_.load(std::memory_order_relaxed);
  if (fabric_ != nullptr) fabric_->fault_stats().CopyTo(r);
}

std::string PS2Stream::MetricsPrometheus() const {
  const RunReport snapshot = MetricsSnapshot();
  if (fabric_ != nullptr && !fabric_->shard_reports().empty()) {
    return RenderPrometheus(snapshot, &fabric_->shard_reports());
  }
  return RenderPrometheus(snapshot, nullptr);
}

std::string PS2Stream::MetricsJson() const {
  return RenderJson(MetricsSnapshot());
}

bool PS2Stream::StartMetricsExporter(MetricsExporter::Options exporter_options) {
  if (exporter_ != nullptr && exporter_->running()) return false;
  exporter_ = std::make_unique<MetricsExporter>(
      std::move(exporter_options), [this] { return MetricsSnapshot(); });
  exporter_->Start();
  return true;
}

void PS2Stream::StopMetricsExporter() {
  if (exporter_ != nullptr) exporter_->Stop();
}

void PS2Stream::Track(const StreamTuple& tuple) {
  window_.push_back(tuple);
  if (window_.size() > options_.window_capacity) window_.pop_front();
  if (++tuples_since_check_ >= options_.adjust_check_interval) {
    tuples_since_check_ = 0;
    MaybeAutoAdjust();
  }
}

void PS2Stream::MaybeAutoAdjust() {
  WorkloadSample sample;
  for (const auto& t : window_) {
    switch (t.kind) {
      case TupleKind::kObject:
        sample.objects.push_back(t.object);
        break;
      case TupleKind::kQueryInsert:
        sample.inserts.push_back(t.query);
        break;
      case TupleKind::kQueryDelete:
        sample.deletes.push_back(t.query);
        break;
    }
  }
  Cluster& cluster = node_->cluster();
  SyncMigrationExecutor sync_exec(cluster);
  TouchTrackingExecutor exec(sync_exec);
  AdjustReport report = controller_->Check(
      cluster, cluster.WorkerLoads(controller_->config().adjust.cost), sample,
      exec);
  controller_->MaybeEvaluateGlobal(cluster, sample);
  if (DurabilityManager* dm = node_->durability()) {
    dm->wal().AppendCellRoutes(exec.touched_cells(), cluster.router().plan(),
                               vocab_);
  }
  if (report.triggered) {
    adjustments_.push_back(std::move(report));
    cluster.ResetLoadWindow();
  }
}

}  // namespace ps2
