#ifndef PS2_RUNTIME_ENGINE_H_
#define PS2_RUNTIME_ENGINE_H_

#include <string>
#include <vector>

#include "adjust/load_controller.h"
#include "common/wait_strategy.h"
#include "runtime/cluster.h"
#include "runtime/metrics.h"

namespace ps2 {

class DeliverySink;
class Wal;

// Options of the threaded (wall-clock) engine.
struct EngineOptions {
  int num_dispatchers = 4;
  size_t queue_capacity = 4096;
  size_t batch_size = 64;
  // Input pacing in tuples/second; 0 = unthrottled (throughput mode).
  double input_rate_tps = 0.0;
  // Retain every dedup-fresh match for later inspection (tests compare the
  // exact deduped match set against the synchronous cluster).
  bool collect_matches = false;
  // How engine threads wait on empty/full rings (see common/wait_strategy.h):
  // park immediately, spin adaptively before parking, or busy-poll.
  WaitStrategy wait_strategy = WaitStrategy::kBlocking;
  // Recent-tuple window kept for the controller's Phase-I term statistics
  // (spread across dispatcher-local rings).
  size_t window_capacity = 1 << 15;

  // Online load-adjustment controller (disabled by default: the engine then
  // executes a frozen plan, like the pre-controller runtime).
  struct ControllerOptions {
    bool enabled = false;
    int interval_ms = 20;       // balance-check cadence
    size_t min_tuples = 2000;   // skip checks until this many new tuples
    LoadControllerConfig config;
  };
  ControllerOptions controller;

  // When non-null, the controller journals every installed migration (as
  // absolute cell-route records) to this write-ahead log, so crash recovery
  // lands on the post-migration plan. Not owned; must outlive the engine.
  // Subscription mutations are journaled by the facade before submission.
  Wal* wal = nullptr;

  // When non-null, worker threads deduplicate through this sink's shared
  // (query, object) window and deliver every fresh match straight through
  // it — no merger hop. In-process the sink is a DeliveryRouter (matches
  // land in subscriber sessions); in the shard fabric it is a per-shard
  // egress that serializes matches onto the transport. Not owned; must
  // outlive the engine. PS2Stream::Start() wires its own router here so
  // started-mode delivery matches the synchronous facade.
  DeliverySink* delivery = nullptr;
};

// A runtime that executes a tuple stream against a Cluster. The two
// implementations share the cluster's components but differ in *time*:
// ThreadedEngine measures wall-clock behavior across real dispatcher and
// worker threads; SimEngine reproduces the paper's figures in deterministic
// virtual time.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  // Executes the whole stream and reports the run's metrics.
  virtual RunReport Run(const std::vector<StreamTuple>& input) = 0;
};

}  // namespace ps2

#endif  // PS2_RUNTIME_ENGINE_H_
