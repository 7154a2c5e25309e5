#ifndef PS2_SHARD_SUPERVISOR_H_
#define PS2_SHARD_SUPERVISOR_H_

#include <cstdint>
#include <vector>

#include "shard/shard_map.h"

namespace ps2 {

// Restart/quarantine policy knobs of the ShardSupervisor.
struct SupervisorPolicy {
  // Consecutive failure->restart cycles (with no acked progress in between)
  // tolerated before the shard is quarantined. Counts detection events, so
  // a restart that "succeeds" structurally but still never acks burns an
  // attempt too.
  int max_restarts = 3;
};

// Per-shard health bookkeeping of the fabric's supervision loop. The
// ShardedEngine detects failure (a control frame exhausted its retry
// budget, or a health probe did) and asks the supervisor what to do; the
// supervisor only tracks the state machine:
//
//   live --missed acks--> failing --restart ok + acked traffic--> live
//     \                      |
//      \                     +--max_restarts failures--> quarantined
//       +--ReviveShard (operator) <------------------------/
//
// Quarantined shards are dead to the fabric: frames to them are dropped and
// the facade reports kUnavailable for traffic touching their cells
// (degraded mode) while every healthy shard keeps serving.
class ShardSupervisor {
 public:
  explicit ShardSupervisor(SupervisorPolicy policy = SupervisorPolicy())
      : policy_(policy) {}

  void Resize(size_t num_shards) { states_.assign(num_shards, State()); }
  // Fabric stand-up hook (the engine's supervisor member is built before
  // options are known).
  void SetPolicy(SupervisorPolicy policy) { policy_ = policy; }

  // Acked traffic from the shard: it is alive, clear the failure streak.
  void OnProgress(ShardId s) { states_[static_cast<size_t>(s)].failures = 0; }

  // A missed ack deadline or failed probe. Returns true when the shard has
  // restart budget left (caller restarts it), false when the streak
  // exceeded the policy (caller quarantines it).
  bool OnFailure(ShardId s) {
    State& st = states_[static_cast<size_t>(s)];
    if (st.quarantined) return false;
    return ++st.failures <= policy_.max_restarts;
  }

  void OnRestart(ShardId s) { ++states_[static_cast<size_t>(s)].restarts; }

  void Quarantine(ShardId s) {
    states_[static_cast<size_t>(s)].quarantined = true;
  }

  // Operator override (ReviveShard): back to live with a clean slate.
  void Clear(ShardId s) {
    State& st = states_[static_cast<size_t>(s)];
    st.quarantined = false;
    st.failures = 0;
  }

  bool quarantined(ShardId s) const {
    return states_[static_cast<size_t>(s)].quarantined;
  }
  bool any_quarantined() const {
    for (const State& st : states_) {
      if (st.quarantined) return true;
    }
    return false;
  }
  uint64_t restarts(ShardId s) const {
    return states_[static_cast<size_t>(s)].restarts;
  }

 private:
  struct State {
    int failures = 0;        // consecutive, reset by acked progress
    uint64_t restarts = 0;   // lifetime restart attempts
    bool quarantined = false;
  };

  SupervisorPolicy policy_;
  std::vector<State> states_;
};

}  // namespace ps2

#endif  // PS2_SHARD_SUPERVISOR_H_
