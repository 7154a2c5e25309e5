#ifndef PS2_SHARD_SHARDED_ENGINE_H_
#define PS2_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adjust/shard_balancer.h"
#include "api/delivery_sink.h"
#include "api/status.h"
#include "common/dedup_window.h"
#include "core/workload_stats.h"
#include "persist/durability.h"
#include "runtime/engine_node.h"
#include "runtime/metrics.h"
#include "shard/reliable.h"
#include "shard/shard_map.h"
#include "shard/supervisor.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace ps2 {

// Fabric-level knobs, embedded in PS2StreamOptions. num_shards > 1 turns
// the facade's single engine into a ShardedEngine fleet; everything else
// (partitioner, cluster, engine, durability config) is reused from the
// facade's existing options, applied per shard.
struct ShardFabricOptions {
  // Engine shards behind the facade. 1 (the default) = no fabric, the
  // facade runs its classic single engine. Capped at 64 (the front tracks
  // query placement as a 64-bit shard mask).
  int num_shards = 1;
  // Cross-shard auto-rebalancing: every `rebalance_check_interval` posts,
  // plan hot-cell migrations whenever the per-shard object-load balance
  // factor exceeds `rebalance_sigma`, and execute them inline on the
  // posting thread (the fabric's control plane).
  bool auto_rebalance = false;
  size_t rebalance_check_interval = 100000;
  double rebalance_sigma = 1.5;
  size_t rebalance_max_moves = 4;
  // --- fault tolerance ------------------------------------------------------
  // Retransmission schedule of every reliable link (control frames front ->
  // shard, match/drain-ack frames shard -> front). Exhausting it is the
  // fabric's failure detector.
  RetryPolicy retry;
  // Supervisor policy: consecutive failed restart cycles before a shard is
  // quarantined (degraded mode).
  int max_restarts = 3;
  // Posts between automatic CheckHealth() probe sweeps; 0 = probes only via
  // explicit CheckHealth() calls (every acked control frame already doubles
  // as a liveness signal, so probes matter for idle shards).
  size_t health_probe_interval = 0;
  // Seed of the links' backoff-jitter RNG (deterministic tests).
  uint64_t link_seed = 0x51ED5EEDULL;
  // Transport override threaded through PS2StreamOptions — the hook tests
  // use to wrap the loopback in a FaultInjectingTransport. Not owned;
  // nullptr = the fabric owns a plain loopback.
  Transport* transport = nullptr;
};

// Everything the fabric needs from the facade's option set.
struct ShardedEngineConfig {
  ShardFabricOptions fabric;
  std::string partitioner = "hybrid";
  PartitionConfig partition;
  ClusterOptions cluster;
  EngineOptions engine;          // per-shard threaded engine
  DurabilityConfig durability;   // dir = fabric root; shard-<i>/ underneath
};

// Cross-shard migration outcome (the fabric analogue of MigrationStats).
struct ShardMigrationStats {
  size_t queries_copied = 0;   // insert frames shipped to the new owner
  size_t queries_removed = 0;  // source copies retired after the drain
  size_t bytes = 0;            // wire bytes of the copy phase
};

// Fault-tolerance tallies of the fabric (mirrored into the fleet RunReport
// by Stop(); readable live through fault_stats()).
struct FabricFaultStats {
  uint64_t transport_errors = 0;   // Transport::Send() returned false
  uint64_t frame_retries = 0;      // reliable-link retransmissions
  uint64_t frame_redeliveries = 0; // duplicate frames receivers suppressed
  uint64_t frames_dropped = 0;     // frames abandoned (quarantined target)
  uint64_t dup_suppressed = 0;     // match dups killed at the front window
  uint64_t shard_restarts = 0;     // supervisor restart attempts
  uint64_t shards_quarantined = 0; // quarantine events
};

// N engine shards behind the unchanged PS2Stream facade. Each shard is one
// EngineNode (runtime/engine_node.h) — the same Cluster + ThreadedEngine +
// WAL stack the single-engine facade runs — over the *complete* partition
// plan; ownership is defined solely by the ShardMap:
//
//   front (facade thread)                         shard i
//   ─────────────────────                         ───────
//   Post ── ShardMap.OwnerOf(cell) ──► object frame ──► Submit/Process
//   Subscribe ─ overlap owners ──────► insert frame ──► WAL + index
//                                                  ▼
//   DeliveryRouter ◄──────────────── match batch frames (worker threads)
//
// The invariant that makes this correct at any shard count: a query sent to
// a shard is indexed there in *all* plan cells overlapping its region, and
// an object is routed to exactly one shard (the owner of its location's
// cell). So a shard produces exactly the matches for the cells it owns or
// acquires, no shard double-delivers, and migrating a cell needs only
// "make sure the new owner has the cell's queries" — not a re-index.
//
// All inter-shard traffic is wire frames (shard/wire.h) through the
// Transport seam; with the in-process loopback, control-plane frames run
// synchronously on the facade thread (preserving the engines'
// single-producer contract) and match frames flow from worker threads into
// the thread-safe DeliveryRouter.
//
// Cross-shard live migration reuses the engine's proven shape, WAL'd at
// every step: copy (insert frames to the new owner, journaled
// before-apply) -> publish (ShardMap swap + SHARDMAP rewrite) -> drain
// (marker through the old owner's engine, Quiesce barrier) -> remove
// (delete frames retire source copies no longer reachable). A crash at any
// point recovers to a superset of the needed placement; the delivery
// router's dedup window kills the transient cross-shard duplicates.
//
// Durability composes per shard: <root>/SHARDMAP plus one DurabilityManager
// directory <root>/shard-<i> each with its own WAL and checkpoints.
// Restore() reassembles the fleet: reads the SHARDMAP, recovers every
// shard, adopts shard 0's vocabulary and remaps the others' term ids onto
// it (WAL replay interns strings in arrival order, so shards can disagree
// on ids minted after the last checkpoint), and rebuilds the front's
// placement registries from the recovered per-shard query sets.
//
// Fault tolerance (the robustness layer over the seam above): every frame
// travels a *reliable link* — a kControl envelope stamped with a link epoch
// and sequence number, retried with timeout + exponential backoff + jitter
// until the peer's cumulative ack covers it (shard/reliable.h). The
// front->shard control link releases frames strictly in sequence order, so
// a delayed/reordered transport cannot reorder the facade's operations; the
// shard->front match link is unordered and leans on the DeliveryRouter's
// dedup window. Sequence dedup plus a per-shard applied-query set makes
// redelivery idempotent. When a frame exhausts its retry budget (or a
// health probe does), the ShardSupervisor restarts the shard — from its own
// WAL+checkpoint directory when durable, from a registry resync otherwise —
// replays the unacked frames under a bumped link epoch, and after
// `max_restarts` consecutive failures quarantines it: Post/Subscribe
// touching its cells return kUnavailable while healthy shards keep serving
// (degraded mode).
//
// Threading contract: every control-plane method (Subscribe, Post,
// MigrateCell, Checkpoint, Start/Stop, ...) is facade-thread-only, exactly
// like PS2Stream itself. Only the match-frame receive path is concurrent;
// a control frame the transport releases on a foreign thread is parked and
// applied by the facade thread at its next control-plane call.
class ShardedEngine {
 public:
  // What Restore() hands back to the facade so it can rebuild its
  // subscription registry and id counters.
  struct Recovery {
    std::vector<STSQuery> queries;  // union across shards, fabric vocab ids
    QueryId next_query_id = 1;
    ObjectId next_object_id = 1;
    uint64_t shardmap_version = 0;
    // Continuous top-k heap state (the facade's coordinator is checkpointed
    // into every shard directory; restore adopts the freshest copy).
    TopKCheckpoint topk;
  };

  // `vocab` and `front_sink` are the facade's vocabulary and delivery
  // router; the fabric shares both. `transport` overrides the in-process
  // loopback (nullptr = own one) — the seam a networked deployment swaps.
  ShardedEngine(ShardedEngineConfig config, Vocabulary* vocab,
                DeliverySink* front_sink, Transport* transport = nullptr);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Builds one partition plan from the sample (same construction as the
  // single-engine facade) and stands up every shard over it. With
  // durability enabled, writes <root>/SHARDMAP and initializes each
  // shard's durable directory.
  void Bootstrap(const WorkloadSample& sample);

  // Rebuilds the fleet from a fabric root directory. Returns false (fabric
  // untouched) when the directory holds no usable SHARDMAP or any shard
  // fails recovery.
  bool Restore(const std::string& dir, Recovery* out);

  bool bootstrapped() const { return !shards_.empty(); }

  // --- control plane (facade thread) ---------------------------------------
  // Sends the query to every shard owning a cell its region overlaps and
  // records the placement (acked; a dead owner is restarted in-line).
  // kUnavailable when an owner is quarantined — the placement is rolled
  // back, including best-effort deletes at shards already reached.
  Status Subscribe(const STSQuery& query);
  // Retires the placement and sends deletes to the healthy owners; copies
  // at quarantined shards die with the shard. kUnavailable only when every
  // owner is quarantined.
  Status Unsubscribe(QueryId id);
  // Replaces `old_query` (same id) with `new_query` — the moving-subscriber
  // path. Owners of both regions get one kQueryUpdate frame (delete+insert
  // applied atomically per shard), new-only owners an insert, old-only
  // owners a delete. kUnavailable (registries untouched) when any owner of
  // either region is quarantined.
  Status Update(const STSQuery& old_query, const STSQuery& new_query);
  // Routes the object to its cell's owner. `publish_us` is the facade's
  // publish stamp, carried through the wire so delivery latency covers the
  // full cross-shard path. kUnavailable when the owner is quarantined.
  Status Post(const SpatioTextualObject& object, int64_t publish_us);

  // --- engines --------------------------------------------------------------
  void Start();
  bool started() const { return started_; }
  // Stops every shard engine and returns the fleet report (per-shard
  // reports merged via RunReport::MergeShard; shard_reports() keeps the
  // individual ones).
  RunReport Stop();

  // --- durability -----------------------------------------------------------
  bool durable() const;
  // Checkpoints every shard (the facade's id counters — and the top-k heap
  // state when given — are embedded in each shard's checkpoint so any
  // single shard can restore them).
  bool Checkpoint(QueryId next_query_id, ObjectId next_object_id,
                  const TopKCheckpoint* topk = nullptr);
  bool ShouldCheckpoint() const;
  // Crash simulation: aborts engines, abandons WALs. Fleet unusable after.
  void Kill();

  // --- fault tolerance ------------------------------------------------------
  // Probes every live shard (an acked kPing per shard) and reports the
  // first degradation; a probe that exhausts its retries walks the same
  // restart/quarantine path as any control frame. Ok when the whole fleet
  // answered.
  Status CheckHealth();
  // Failure drill: makes shard `s` unresponsive — every frame to it is
  // swallowed unacked, as if its process died. The supervisor detects the
  // missed acks on the next control frame (or probe) and restarts it; with
  // `allow_restart` false the restart fails too, so `max_restarts`
  // detections drive the shard into quarantine.
  void KillShard(ShardId s, bool allow_restart = true);
  // Operator override: clears quarantine/kill state, restarts the shard
  // from its durable directory (or a registry resync) and replays pending
  // frames. kInternal when the restart fails again.
  Status ReviveShard(ShardId s);
  bool shard_quarantined(ShardId s) const {
    return supervisor_.quarantined(s);
  }
  // Degraded mode: at least one shard is quarantined (traffic touching its
  // cells bounces with kUnavailable; the rest of the fleet serves).
  bool degraded() const { return supervisor_.any_quarantined(); }
  // kDataLoss when a live shard's WAL hit its sticky I/O error, or when a
  // live shard of a durable fabric runs without a WAL (it could not open,
  // recover or resume one) — the facade refuses further mutations
  // rather than silently losing them.
  Status durability_status() const;
  FabricFaultStats fault_stats() const;
  uint64_t shard_restart_count(ShardId s) const {
    return supervisor_.restarts(s);
  }

  // --- migration ------------------------------------------------------------
  // Moves cell ownership `from` -> `to` with the copy/publish/drain/remove
  // protocol. No-op stats when the cell is not currently owned by `from`,
  // or when either end is quarantined. A shard failure mid-protocol aborts
  // at a safe point (placement supersets are harmless; the dedup window
  // kills transient duplicates).
  ShardMigrationStats MigrateCell(CellId cell, ShardId from, ShardId to);
  // Runs the balancer over the window's per-cell object counts and executes
  // the planned moves (quarantined shards excluded). Returns the number of
  // cells migrated.
  size_t MaybeRebalance();

  // --- introspection --------------------------------------------------------
  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::shared_ptr<const ShardMap> shard_map() const {
    return map_->Current();
  }
  Cluster& shard_cluster(ShardId s) { return shards_[s]->node.cluster(); }
  ThreadedEngine* shard_engine(ShardId s) { return shards_[s]->node.engine(); }
  const std::vector<RunReport>& shard_reports() const {
    return shard_reports_;
  }
  // Live aggregate SPSC-ring occupancy across every running shard engine
  // (see ThreadedEngine::DataPlaneFill); the facade's overload-controller
  // pressure signal in fabric mode.
  void DataPlaneFill(uint64_t* pending, uint64_t* capacity) const;
  uint64_t query_shard_mask(QueryId id) const;
  uint64_t cells_migrated() const { return cells_migrated_; }
  uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }
  Transport& transport() { return *transport_; }
  // Per-shard durability manager (nullptr: durability off or shard
  // quarantined) — failure drills trip its WAL from here.
  DurabilityManager* shard_durability(ShardId s) {
    return shards_[static_cast<size_t>(s)]->node.durability();
  }

 private:
  // Per-shard delivery sink: worker threads (or the sync Process path)
  // dedup through a shard-local window, then hand match-batch frames to the
  // shard's reliable egress link. Lives next to its shard, not inside the
  // engine — the seam the engines already expose (EngineOptions::delivery)
  // is all the fabric needs. Recreated on restart so the fresh incarnation
  // can re-emit matches the dead one produced but never shipped.
  class ShardEgress final : public DeliverySink {
   public:
    // (query, object) pairs each shard's egress window remembers.
    static constexpr size_t kDedupWindow = 1 << 16;

    ShardEgress(ShardedEngine* owner, ShardId shard)
        : owner_(owner), shard_(shard), dedup_(kDedupWindow) {}

    bool AcceptFresh(QueryId query_id, ObjectId object_id) override {
      return dedup_.AcceptFresh(query_id, object_id);
    }
    void Deliver(const MatchResult& m, int64_t publish_us) override;
    void DeliverBatch(const Delivery* pending, size_t n) override;

   private:
    ShardedEngine* owner_;
    ShardId shard_;
    ShardedDedupWindow dedup_;
  };

  struct Shard {
    Shard(ShardId shard_id, const Vocabulary* vocab,
          const ShardedEngineConfig& config)
        : id(shard_id), node(vocab, config.cluster, config.engine) {}

    ShardId id;
    EngineNode node;
    std::unique_ptr<ShardEgress> egress;

    // --- fault-tolerance state ---------------------------------------------
    // Kill switch (failure drills): the shard's receive path swallows every
    // frame without acking, as if the process died.
    std::atomic<bool> dead{false};
    bool permanently_failed = false;  // restart attempts refuse (drills)
    uint64_t link_epoch = 1;          // bumped on every restart
    // front->shard control link. Sender state is touched by the facade
    // thread and by acks the transport may deliver on a worker thread.
    std::mutex ctl_mu;
    ReliableSender ctl_out;
    ReliableReceiver ctl_in{ReliableReceiver::Order::kOrdered};
    // shard->front match link. Sender fed by worker threads; receiver
    // state shared by every worker delivering to the front.
    std::mutex egress_mu;
    ReliableSender match_out;
    std::mutex ingress_mu;
    ReliableReceiver match_in{ReliableReceiver::Order::kUnordered};
    // Control frames the transport released on a non-facade thread (a
    // delayed hold-back), parked for the facade thread's next pump.
    std::mutex deferred_mu;
    std::deque<std::string> deferred;
    // deferred.size(), readable without the lock: lets the facade thread's
    // pump skip the lock when nothing is parked. Stored under deferred_mu
    // at every push, pop and clear.
    std::atomic<size_t> parked{0};
    // Queries this shard has applied (facade thread only): the idempotency
    // filter for redelivered inserts/deletes and the restart reconcile
    // source.
    std::unordered_set<QueryId> applied;
  };

  void StandUpShards(PartitionPlan plan, int num_shards);
  // Shard `s`'s durable directory config: the fabric's, at <root>/shard-<s>.
  DurabilityConfig ShardDurability(ShardId s) const;
  // The plan geometry every shard shares.
  const GridSpec& grid() const { return base_plan_->grid; }
  // Transport receive handlers.
  void ShardReceive(Shard& shard, ShardId from, const std::string& frame);
  void FrontReceive(ShardId from, const std::string& frame);
  // Releases an enveloped control frame through the shard's ordered
  // receiver, applies what it releases and acks (facade thread only).
  void AcceptControl(Shard& shard, Frame&& f);
  // Applies one released control frame: drain barrier, ping, or ShardApply.
  void ApplyControl(Shard& shard, Frame& f);
  // Applies a decoded control frame on a shard's node (idempotent against
  // redelivery through the applied set).
  void ShardApply(Shard& shard, const Frame& f);
  // Applies one frame released by a shard's match link at the front.
  void ApplyFromShard(Frame& f);

  // --- reliable-link plumbing ----------------------------------------------
  // Queues one control frame on the shard's link and pumps until acked
  // (restarting/quarantining on failure). The fabric's only way to talk to
  // a shard.
  Status SendControl(ShardId s, const std::string& inner);
  // Pumps shard `s`'s control link until every queued frame is acked.
  Status FlushControl(ShardId s);
  // Pumps shard `s`'s match link until every produced match/drain-ack
  // reached the front (sync-mode Post's delivery barrier).
  Status FlushEgress(ShardId s);
  // Hands `inner` to the shard's match link and ships whatever is due.
  void EnqueueEgress(Shard& shard, const std::string& inner);
  // Transmits due envelopes `from` -> `to`, counting retries and failures.
  void SendDue(ShardId from, ShardId to,
               const std::vector<ReliableSender::Outgoing>& due);
  // ShardEgress entry: ships one match-batch frame from shard `s`.
  void ShipMatches(ShardId s, const std::string& frame);
  // Applies frames deferred from foreign threads (facade thread only).
  void PumpDeferred();
  // Applies a dead shard's unacked egress directly to the front sink (the
  // dedup window makes replays safe) so accepted matches survive restarts.
  void LocalDrainEgress(Shard& shard);

  // --- supervision ----------------------------------------------------------
  // A shard missed its ack deadline: restart it (Ok — caller retries) or
  // quarantine it (kUnavailable).
  Status HandleShardFailure(ShardId s);
  // Rebuilds the shard: recover from its durable dir (or a fresh index),
  // reconcile with the placement registry, bump the link epoch and re-queue
  // unacked frames. False when the shard cannot be brought back.
  bool RestartShard(Shard& shard);
  void QuarantineShard(ShardId s);

  void SendToShard(ShardId shard, const std::string& frame);
  // Shards owning a cell `region` overlaps (shard 0 when none does).
  uint64_t OwnerMask(const Rect& region);
  // kUnavailable ("<what> quarantined shard <i>", counting the dropped
  // frame) when a shard in `mask` is quarantined.
  Status RefuseQuarantined(uint64_t mask, const char* what);
  // Registry maintenance.
  void RegisterPlacement(const STSQuery& query, uint64_t mask);
  void ForgetPlacement(QueryId id);
  // Drain barrier: flushes everything in flight at `shard`.
  Status DrainShard(ShardId shard);

  ShardedEngineConfig config_;
  Vocabulary* vocab_;
  DeliverySink* front_sink_;
  std::unique_ptr<Transport> owned_transport_;
  Transport* transport_;

  std::unique_ptr<ShardMapPublisher> map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
  bool durable_root_ = false;  // SHARDMAP file is being maintained
  // The bootstrap plan, kept so a non-durable shard can be restarted onto
  // the same geometry (queries are re-sent from the registry).
  std::unique_ptr<PartitionPlan> base_plan_;
  // The thread driving the control plane (re-pinned at every control op);
  // receive handlers use it to tell inline delivery from a foreign thread.
  std::atomic<std::thread::id> control_thread_;
  void PinControlThread() {
    control_thread_.store(std::this_thread::get_id(),
                          std::memory_order_relaxed);
  }

  // Front placement registries (facade thread only).
  std::unordered_map<QueryId, uint64_t> query_shards_;  // shard bitmask
  std::vector<std::vector<QueryId>> cell_queries_;
  std::unordered_map<QueryId, STSQuery> queries_;

  // Balancer signal: objects routed per cell since the last window reset.
  std::vector<uint64_t> cell_objects_;
  size_t posts_since_rebalance_ = 0;
  size_t posts_since_probe_ = 0;
  ShardBalancer balancer_;
  ShardSupervisor supervisor_;

  // Drain handshake (loopback answers synchronously; the atomic keeps the
  // handshake correct for an async transport delivering acks from another
  // thread).
  uint64_t next_drain_token_ = 1;
  std::atomic<uint64_t> last_drain_ack_{0};

  std::atomic<uint64_t> decode_errors_{0};
  uint64_t cells_migrated_ = 0;
  std::vector<RunReport> shard_reports_;

  // Fault counters (FabricFaultStats mirror; bumped from any thread).
  std::atomic<uint64_t> transport_errors_{0};
  std::atomic<uint64_t> frame_retries_{0};
  std::atomic<uint64_t> frame_redeliveries_{0};
  std::atomic<uint64_t> frames_dropped_{0};
  std::atomic<uint64_t> dup_suppressed_{0};
  std::atomic<uint64_t> shard_restarts_{0};
  std::atomic<uint64_t> quarantine_events_{0};

  std::vector<CellId> overlap_scratch_;
};

}  // namespace ps2

#endif  // PS2_SHARD_SHARDED_ENGINE_H_
