#ifndef PS2_RUNTIME_PS2STREAM_H_
#define PS2_RUNTIME_PS2STREAM_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "adjust/load_controller.h"
#include "api/delivery_router.h"
#include "api/quota.h"
#include "api/status.h"
#include "api/subscriber_session.h"
#include "api/subscription.h"
#include "core/workload_stats.h"
#include "persist/durability.h"
#include "runtime/engine_node.h"
#include "runtime/metrics_exporter.h"
#include "runtime/overload.h"
#include "shard/sharded_engine.h"
#include "subscribe/spec.h"
#include "subscribe/topk.h"
#include "text/tokenizer.h"

namespace ps2 {

// Top-level facade: the publish/subscribe service a downstream application
// embeds. It owns the vocabulary, the delivery router, the subscription
// registry, admission (quotas, overload shedding), top-k and metrics. The
// dispatcher -> worker -> merger pipeline itself is one EngineNode
// (runtime/engine_node.h: cluster, threaded engine, WAL) built from a
// bootstrap sample (or a uniform default plan) — or, with
// sharding.num_shards > 1, a ShardedEngine holding one such node per shard.
// Synchronous mode can keep the load balanced via local adjustments.
//
//   PS2Stream ps2(PS2StreamOptions{...});
//   ps2.Bootstrap(sample);                        // plan from historic data
//   auto session = ps2.OpenSession({.queue_capacity = 4096});
//   auto sub = ps2.Subscribe(session, "pizza AND downtown", region);
//   if (!sub.ok()) log(sub.status().ToString()); // e.g. expression errors
//   ps2.Post(loc, "best pizza downtown!");
//   Delivery d;
//   while (session->Poll(&d)) consume(d);        // or Take() / a MatchSink
//   // sub goes out of scope -> unsubscribes
//
// Two execution modes, one delivery contract:
//   - synchronous (default): Post processes the tuple inline; matches reach
//     the routed sessions before Post returns. Load adjustment piggy-backs
//     on the caller's thread.
//   - started (Start()/Stop()): a ThreadedEngine runs dispatcher, worker
//     and controller threads; Subscribe/Post submit tuples and return
//     immediately, and matches reach the routed sessions asynchronously
//     from the worker threads (deduplicated through the delivery router's
//     shared window — exactly the synchronous mode's deduped match set).
//     Load adjustment happens online on the controller thread, with
//     migrations installed live.
//
// Sessions & backpressure: a SubscriberSession is a bounded delivery queue
// multiplexing any number of subscriptions, with kBlock / kDropOldest /
// kDropNewest overflow policies and pull (Poll/Take) or push (MatchSink)
// consumption. Subscribing without a session is allowed — matches are then
// only counted (dedup window + RunReport), not delivered.
//
// Durability (options.durability.enabled): subscription mutations are
// journaled to a write-ahead log *before* they take effect, installed
// migrations are journaled by whichever runtime performs them, and
// Bootstrap/Checkpoint() capture the full state (vocabulary, plan, routing
// snapshot, live queries) as an atomic checkpoint. A crashed service is
// stood back up with Restore(), which loads the latest checkpoint, replays
// the WAL tail (truncating a torn final record), rebuilds the per-worker
// GI2 indexes and resumes serving — and logging — where it left off.
struct PS2StreamOptions {
  std::string partitioner = "hybrid";
  PartitionConfig partition;
  ClusterOptions cluster;
  // Automatic local load adjustment (synchronous mode; the started engine
  // uses engine.controller instead).
  bool auto_adjust = false;
  size_t adjust_check_interval = 100000;  // tuples between balance checks
  LocalAdjustConfig adjust;
  size_t window_capacity = 1 << 16;  // recent-tuple window for Phase I
  // Threaded engine configuration used by Start().
  EngineOptions engine;
  // Subscription WAL + checkpoints + crash recovery.
  DurabilityConfig durability;
  // Shard fabric: num_shards > 1 runs N engine shards behind this facade
  // (see shard/sharded_engine.h). The client API, delivery contract and
  // dedup semantics are unchanged at any shard count; partition/cluster/
  // engine/durability options above apply per shard, with durability.dir
  // becoming the fabric root (<dir>/SHARDMAP + <dir>/shard-<i>/).
  ShardFabricOptions sharding;
  // Multi-tenant admission limits (see api/quota.h): subscription-count
  // quotas and per-tenant publish token buckets, enforced in Subscribe/Post
  // with kResourceExhausted. Defaults = unlimited. The tenant comes from
  // SessionOptions::tenant (Subscribe) or the Post(tenant, ...) overloads.
  QuotaConfig quota;
  // Overload admission control (see runtime/overload.h): watermark-based
  // degraded mode over session-queue and worker-ring occupancy, sampled on
  // the publish path. Disabled by default.
  OverloadConfig overload;
};

class PS2Stream : private SubscriptionBackend {
 public:
  using SessionPtr = std::shared_ptr<SubscriberSession>;

  explicit PS2Stream(PS2StreamOptions options = PS2StreamOptions());
  ~PS2Stream() override;

  PS2Stream(const PS2Stream&) = delete;
  PS2Stream& operator=(const PS2Stream&) = delete;

  // Builds the partition plan from a workload sample and starts the
  // cluster. Must be called before any Subscribe/Post. Also folds the
  // sample's term occurrences into the vocabulary frequency profile.
  // With durability enabled this writes the initial checkpoint and opens
  // the WAL; a Bootstrap that cannot persist leaves the service
  // non-durable (check durable()).
  void Bootstrap(const WorkloadSample& sample);

  // --- client API: sessions -------------------------------------------------
  // Creates a delivery session. Sessions are independent of Bootstrap and
  // of the execution mode; close order vs. the facade is free (shared
  // ownership with the delivery router).
  SessionPtr OpenSession(SessionOptions options = SessionOptions());

  // --- client API: subscribe ------------------------------------------------
  // Registers a subscription whose matches are delivered to `session`
  // (nullptr: matches are counted but not delivered). The expression uses
  // the BoolExpr grammar ("a AND (b OR c)").
  // Errors: kInvalidArgument (expression syntax, with the parser's
  // message), kFailedPrecondition (not bootstrapped), kUnavailable (service
  // killed). The returned RAII handle unsubscribes on destruction; call
  // Release() to manage the id manually.
  StatusOr<Subscription> Subscribe(const SessionPtr& session,
                                   const std::string& expression,
                                   const Rect& region);
  // Same, for a pre-built query (the id must be unused: kAlreadyExists).
  // Scored-class queries get the same validation as specs (tau/k bounds).
  StatusOr<Subscription> Subscribe(const SessionPtr& session,
                                   const STSQuery& query);
  // Typed subscription classes (see subscribe/spec.h): boolean,
  // similarity-threshold (score >= tau) and continuous top-k. Malformed
  // specs — tau outside (0, 1], k == 0, an empty term set — are rejected
  // with a field-positional kInvalidArgument, never clamped.
  StatusOr<Subscription> Subscribe(const SessionPtr& session,
                                   const SubscriptionSpec& spec);

  // Moving subscriber: replaces the subscription's region in place, keeping
  // its id, class, terms and session route. The change rides the existing
  // query-update routing — a delete draining the old cells followed by an
  // insert into the new ones, ordered through the update gate (and, in
  // fabric mode, kQueryUpdate wire frames to every owner shard) — so
  // matches for objects posted after UpdateSubscription returns reflect the
  // new region. Held top-k results are not re-validated: a region move
  // affects future candidates only. kNotFound when the id is not live.
  Status UpdateSubscription(QueryId id, const Rect& new_region);

  // Cancels a subscription by id. kNotFound when the id is not live.
  Status Cancel(QueryId id);

  // --- client API: publish --------------------------------------------------
  // Publishes an object; matches flow to the routed sessions in both
  // execution modes (inline here in synchronous mode, from the worker
  // threads in started mode). Errors: kFailedPrecondition (not
  // bootstrapped), kUnavailable (engine stopped mid-submit),
  // kResourceExhausted (the tenant's publish token bucket is empty; the
  // message names the field, "quota.publish_rate_per_sec"). The
  // tenant-less forms publish as the default tenant "".
  Status Post(Point loc, const std::string& text);
  Status Post(const SpatioTextualObject& object);
  Status Post(const std::string& tenant, Point loc, const std::string& text);
  Status Post(const std::string& tenant, const SpatioTextualObject& object);

  // Advances the event-time watermark without publishing (e.g. a quiet
  // stream whose held top-k results should still expire). Posting an object
  // advances it implicitly to the object's timestamp. Monotonic; stale
  // values no-op. Expiring a held top-k result re-admits (and delivers) the
  // best buffered candidate.
  void AdvanceEventTime(int64_t watermark_us);

  // --- durability -----------------------------------------------------------
  // Rebuilds the service from the durable directory (options.durability.dir
  // unless `dir` is given): latest checkpoint + WAL tail replay. Replaces
  // Bootstrap() on restart. Returns false when the directory holds no
  // usable checkpoint; the service is then untouched. On success the
  // service is bootstrapped, all subscriptions are live, and the WAL
  // continues at `dir` (durability is enabled even if the options left it
  // off — calling Restore() is the opt-in). Delivery routes are not
  // persisted: reattach sessions by re-routing ids after Restore().
  bool Restore(const std::string& dir = std::string());

  // Writes a checkpoint now (also called automatically every
  // durability.checkpoint_every WAL records). Works in both modes; in
  // started mode the plan is captured under the routing writer lock, so
  // live migrations never interleave. Returns false when durability is off.
  bool Checkpoint();

  // Statistics of the last Restore() on this instance.
  const RecoveredState* recovered() const { return recovered_.get(); }
  // True while mutations are actually being journaled: the WAL is open and
  // has hit no I/O error. Goes false (sticky) if the log ever fails to
  // write — mutations after that point would not survive a crash.
  bool durable() const {
    if (fabric_ != nullptr) return fabric_->durable();
    return node_ != nullptr && node_->durability() != nullptr &&
           node_->durability()->healthy();
  }
  // The durability manager (nullptr when durability is off) — exposed for
  // tooling and tests (e.g. forcing a WAL flush before a simulated crash).
  DurabilityManager* durability() {
    return node_ != nullptr ? node_->durability() : nullptr;
  }

  // Fleet health, on demand: Ok when every shard answers an acked probe and
  // durability is intact. kDataLoss — a WAL hit its sticky I/O error;
  // kUnavailable — a shard is quarantined (degraded mode) or the service
  // was killed. In single-engine mode this reports the durability gate.
  // Probing is active: an unresponsive shard discovered here walks the
  // same supervisor restart/quarantine path as one discovered by traffic.
  Status Health();

  // Crash simulation (tests and failure drills): tears down the engine
  // without draining, skips every graceful-shutdown step and drops the
  // durability manager without a final flush beyond what the WAL's sync
  // mode already guaranteed. The service is unusable afterwards — stand a
  // new one up with Restore().
  void Kill();

  // --- async engine ---------------------------------------------------------
  // Spawns the threaded engine over the bootstrapped cluster. Requires
  // Bootstrap() first. Subsequent Subscribe/Post calls are submitted to
  // the engine instead of being processed inline.
  void Start();
  // Drains the engine and returns its run report (including the session
  // delivery counters and publish->deliver latency; sessions accumulate
  // over their lifetime, so a report after several Start/Stop cycles — or
  // after synchronous traffic — covers all of it). While the drain runs,
  // kBlock sessions degrade to drop-newest so a stalled consumer cannot
  // wedge shutdown. No-op RunReport when the engine is not running.
  RunReport Stop();
  bool started() const {
    return (node_ != nullptr && node_->started()) ||
           (fabric_ != nullptr && fabric_->started());
  }
  ThreadedEngine* engine() {
    return node_ != nullptr ? node_->engine() : nullptr;
  }
  // The shard fabric (nullptr when sharding.num_shards <= 1).
  ShardedEngine* fabric() { return fabric_.get(); }

  // --- introspection --------------------------------------------------------
  Vocabulary& vocabulary() { return vocab_; }
  Cluster& cluster() { return node_->cluster(); }
  const Cluster& cluster() const { return node_->cluster(); }
  size_t num_subscriptions() const { return subscriptions_.size(); }
  const std::unordered_map<QueryId, STSQuery>& subscriptions() const {
    return subscriptions_;
  }
  // Note: cluster() is only meaningful in single-engine mode; use fabric()
  // for per-shard access when sharding is on.
  bool bootstrapped() const {
    return node_ != nullptr ||
           (fabric_ != nullptr && fabric_->bootstrapped());
  }
  const std::vector<AdjustReport>& adjustments() const {
    return adjustments_;
  }
  // The delivery router (always live) and the aggregate session counters —
  // the synchronous-mode counterpart of the RunReport delivery fields.
  DeliveryRouter& delivery() { return *delivery_; }
  SessionStats delivery_stats() const { return delivery_->AggregateStats(); }
  // Continuous top-k admission state (always live; empty without top-k
  // subscriptions). Snapshot(id) is the query's current held set.
  TopKCoordinator& topk() { return topk_; }
  const TopKCoordinator& topk() const { return topk_; }

  // --- admission & metrics --------------------------------------------------
  // Quota bookkeeping (always live; no-op when options.quota is all
  // defaults) and the overload controller's degraded flag.
  const QuotaManager& quota() const { return quota_; }
  bool overloaded() const { return overload_.degraded(); }

  // Point-in-time metrics: the last Stop() report (zeros before the first
  // Stop, or forever in synchronous mode) overlaid with the live
  // thread-safe counters — session deliveries/drops/latency, unrouted,
  // dedup kills, quota/overload counters, the live-subscription gauge and,
  // in fabric mode, the fabric's fault tallies. Callable from any thread
  // (the exporter's snapshot callback) once Bootstrap()/Restore() returned.
  RunReport MetricsSnapshot() const;
  // Prometheus text rendering of MetricsSnapshot(); includes per-shard
  // {shard="N"} sections once the fabric has produced shard reports.
  std::string MetricsPrometheus() const;
  // Flat JSON rendering of MetricsSnapshot().
  std::string MetricsJson() const;
  // Spawns (or stops) the periodic file exporter over MetricsSnapshot().
  // False when one is already running.
  bool StartMetricsExporter(MetricsExporter::Options exporter_options);
  void StopMetricsExporter();
  MetricsExporter* metrics_exporter() { return exporter_.get(); }

 private:
  // SubscriptionBackend (RAII Subscription handles cancel through this).
  void CancelSubscription(QueryId id) override;

  // Shared subscribe path: admission, delivery routing, then the node's
  // WAL-before-apply insert or the fabric's per-shard one. Non-Ok (fabric
  // mode: an owner shard is quarantined) rolls the registration back.
  Status ApplySubscribe(const STSQuery& query, const SessionPtr& session);
  // Shared unsubscribe path (Cancel and the RAII handles funnel here):
  // unroute, then the node's or the fabric's delete.
  Status ApplyUnsubscribe(QueryId id);
  // Shared publish path.
  Status PostInternal(const SpatioTextualObject& object);
  // Samples session-queue and worker-ring fills into the overload
  // controller (called every overload.check_interval posts).
  void SampleOverload();
  // Shared subscription-update path (node or fabric).
  Status ApplyUpdate(const STSQuery& old_query, const STSQuery& new_query);
  // Writes the counters that are live and thread-safe right now (sessions,
  // unrouted, quota, overload, live subscriptions, fabric faults) into `r`.
  void OverlayLiveCounters(RunReport* r) const;
  // Watermark advance + promotion delivery (both Post and AdvanceEventTime).
  void AdvanceWatermark(int64_t watermark_us);
  // Ok when the service can take `op`: kUnavailable once killed,
  // kFailedPrecondition before Bootstrap()/Restore().
  Status Serving(const char* op) const;
  // Mutation gate: kDataLoss once the WAL (any shard's, in fabric mode)
  // has hit its sticky I/O error — the service refuses new mutations
  // rather than accepting ones that would not survive a crash.
  Status DurabilityGate() const;
  // Registers a recovered subscription (registry, top-k, quota).
  void AdoptRestored(const STSQuery& q);
  // Sync-mode auto-adjust window: tracking() gates building the tuple.
  bool tracking() const { return options_.auto_adjust && !started(); }
  void Track(const StreamTuple& tuple);
  void MaybeAutoAdjust();
  void MaybeCheckpoint();

  PS2StreamOptions options_;
  Vocabulary vocab_;
  Tokenizer tokenizer_;
  std::unique_ptr<LoadController> controller_;
  // Single-engine mode: one engine node (cluster, engine once started, WAL
  // when durable). Multi-shard mode (sharding.num_shards > 1): the fabric,
  // one node per shard. Exactly one of the two is ever live.
  std::unique_ptr<EngineNode> node_;
  std::unique_ptr<ShardedEngine> fabric_;
  std::unique_ptr<RecoveredState> recovered_;
  std::unique_ptr<DeliveryRouter> delivery_;
  // Centralized top-k admission, hooked into the router (see
  // subscribe/topk.h for why admission is not per-worker).
  TopKCoordinator topk_;
  QuotaManager quota_;
  OverloadController overload_;
  std::unique_ptr<MetricsExporter> exporter_;
  // Last Stop() report, the base layer of MetricsSnapshot(); guarded so the
  // exporter thread can read it while the control thread stops the engine.
  mutable std::mutex report_mu_;
  RunReport last_report_;
  // Mirror of subscriptions_.size() readable off the control thread.
  std::atomic<uint64_t> live_subscriptions_{0};
  // Liveness token for RAII Subscription handles: reset first in the
  // destructor so a handle outliving the facade cancels into a no-op.
  std::shared_ptr<void> alive_;
  bool killed_ = false;
  std::unordered_map<QueryId, STSQuery> subscriptions_;
  QueryId next_query_id_ = 1;
  ObjectId next_object_id_ = 1;
  // Recent tuples for adjustment statistics.
  std::deque<StreamTuple> window_;
  size_t tuples_since_check_ = 0;
  std::vector<AdjustReport> adjustments_;
};

}  // namespace ps2

#endif  // PS2_RUNTIME_PS2STREAM_H_
