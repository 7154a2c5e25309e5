#ifndef PS2_RUNTIME_METRICS_H_
#define PS2_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/latency.h"
#include "dispatch/dispatch_stats.h"

namespace ps2 {

// Every scalar counter and gauge of a RunReport, declared once as
// X(field, type, help): `type` is the Prometheus type (counter | gauge) and
// `help` its HELP text. The list expands into the RunReport fields (uint64_t,
// zero-initialized), the sums of RunReport::MergeShard and the exporter's
// rows, in this order; so adding a metric is one line here. Fields with their
// own merge rule (wall time, throughput, shard count, histograms, per-worker
// vectors, dispatch stats) and the unexported dispatcher memory stay
// hand-written in RunReport.
//
// Shard-fabric fault tolerance (all zero for single-engine runs and for
// fabrics that never saw a fault); ShardedEngine keeps these as live atomics
// and FabricFaultStats carries them under the same names.
#define PS2_FABRIC_FAULT_COUNTERS(X)                                        \
  X(transport_errors, counter, "Transport Send() failures.")                \
  X(frame_retries, counter, "Reliable-link frame retransmissions.")         \
  X(frame_redeliveries, counter,                                            \
    "Duplicate frames suppressed by link receivers.")                       \
  X(frames_dropped, counter, "Frames abandoned at quarantined shards.")     \
  X(fabric_dup_suppressed, counter,                                         \
    "Cross-restart duplicate matches suppressed.")                          \
  X(shard_restarts, counter, "Supervisor shard restarts.")                  \
  X(shards_quarantined, counter, "Supervisor quarantine events.")

#define PS2_RUN_COUNTERS(X)                                                 \
  X(tuples_processed, counter, "Stream tuples processed.")                  \
  X(objects, counter, "Objects published.")                                 \
  X(inserts, counter, "Subscription inserts applied.")                      \
  X(deletes, counter, "Subscription deletes applied.")                      \
  /* >= matches_delivered: the gap is cross-worker duplicates plus         \
     matches found after Stop()'s drain cutoff in aborted runs. */          \
  X(matches_emitted, counter, "Matches emitted by workers, pre-dedup.")     \
  X(matches_delivered, counter, "Deduplicated matches delivered.")          \
  X(duplicates_suppressed, counter, "Duplicate matches suppressed.")        \
  X(objects_discarded, counter, "Objects discarded by admission.")          \
  /* Session delivery (api/ layer, aggregated across sessions by the       \
     facade). */                                                            \
  X(session_deliveries, counter, "Deliveries handed to sessions.")          \
  X(session_drops, counter,                                                 \
    "Deliveries lost to backpressure or closed sessions.")                  \
  X(matches_unrouted, counter, "Matches with no routed session.")           \
  /* Threaded data-plane internals (zero for synchronous/sim runs). */      \
  X(dedup_kills, counter, "Duplicates the shared window suppressed.")       \
  X(wait_spins, counter, "Wait-strategy spin iterations.")                  \
  X(wait_parks, counter, "Wait-strategy futex parks.")                      \
  /* Online load adjustment (threaded engine's controller; zero when the   \
     controller is disabled or the run stayed balanced). */                 \
  X(adjustments, counter, "Load-controller checks that moved work.")        \
  X(cells_migrated, counter, "Cells migrated by load adjustment.")          \
  X(queries_migrated, counter, "Queries migrated by load adjustment.")      \
  X(bytes_migrated, counter, "Bytes migrated by load adjustment.")          \
  X(routing_epochs, counter, "Routing snapshot versions published.")        \
  PS2_FABRIC_FAULT_COUNTERS(X)                                              \
  /* Admission control (facade layer; zero when quotas and the overload    \
     controller are disabled). */                                           \
  X(quota_rejections, counter, "Subscribes rejected over a count quota.")   \
  X(rate_limited, counter, "Publishes rejected by a tenant token bucket.")  \
  X(overload_trips, counter, "Overload-controller degraded-mode entries.")  \
  X(overload_sheds, counter, "Subscribes shed while degraded.")             \
  X(live_subscriptions, gauge, "Subscriptions live now.")

// Declares one listed metric as a zero-initialized field.
#define PS2_COUNTER_FIELD(field, type, help) uint64_t field = 0;

// Result sheet of one runtime execution; benchmarks print these.
struct RunReport {
  PS2_RUN_COUNTERS(PS2_COUNTER_FIELD)

  double wall_seconds = 0.0;
  double throughput_tps = 0.0;  // tuples per second
  LatencyHistogram latency;
  // Publish -> session-delivery latency (stamped at engine Submit / facade
  // Post, recorded when the match reaches its session).
  LatencyHistogram delivery_latency;
  std::vector<uint64_t> per_worker_tuples;
  size_t dispatcher_memory_bytes = 0;
  std::vector<size_t> worker_memory_bytes;

  // Routing statistics aggregated across dispatcher threads.
  DispatchStats dispatch;

  // Deepest any of a worker's SPSC data rings ever got (one entry per
  // worker; producer-side estimate).
  std::vector<uint64_t> worker_ring_highwater;

  // Engine shards this report covers: 1 for a single engine, N after
  // MergeShard folded a fleet together (the shard fabric's Stop()).
  int shards = 1;

  // Folds one shard's report into this fleet report: listed counters sum,
  // histograms and dispatch stats merge, per-worker vectors append (so the
  // fleet report lists every worker of every shard), wall time is the
  // slowest shard's (they ran concurrently), and throughput is recomputed
  // over the merged totals.
  void MergeShard(const RunReport& shard);

  // One-line digest (throughput, match counters, latency) for bench logs;
  // prefixed with the shard count when the report covers a fleet.
  std::string Summary() const;
};

// Per-shard sections followed by the fleet-total Summary() line — what a
// multi-shard bench or test prints to show both the balance across shards
// and the aggregate. `shard_reports` are the individual engines' reports,
// `fleet` the MergeShard() fold of them.
std::string FleetSummary(const std::vector<RunReport>& shard_reports,
                         const RunReport& fleet);

}  // namespace ps2

#endif  // PS2_RUNTIME_METRICS_H_
