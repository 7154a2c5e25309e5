// Chaos soak: a randomized subscribe/publish/unsubscribe schedule with
// live-cell migrations, repeated shard kills, and an adversarial transport
// (drops, delays, duplicates) all running at once. Synchronous mode keeps
// the run deterministic for a given seed, so the invariants are exact:
// every delivery matches the brute-force reference, nothing arrives twice,
// no frame is ever mis-decoded, and the fleet ends healthy.
//
// CI runs this under ASan+UBSan. The seed is printed on every run; to
// reproduce a failure locally:
//
//   PS2_CHAOS_SEED=<printed seed> ./ps2_tests --gtest_filter='*Chaos*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "index/reference_matcher.h"
#include "runtime/ps2stream.h"
#include "shard/fault_transport.h"
#include "test_util.h"

namespace ps2 {
namespace {

uint64_t ChaosSeed(uint64_t fallback) {
  const char* env = std::getenv("PS2_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

struct Action {
  enum Kind { kSubscribe, kUnsubscribe, kPublish } kind;
  STSQuery query;
  QueryId query_id = 0;
  SpatioTextualObject object;
};

std::vector<Action> MakeActions(const testutil::TestWorkload& w,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Action> actions;
  std::vector<QueryId> subscribed;
  size_t qi = 0, oi = 0;
  while (qi < w.sample.inserts.size() || oi < w.extra_objects.size()) {
    const double dice = rng.NextDouble();
    if (dice < 0.45 && qi < w.sample.inserts.size()) {
      Action a;
      a.kind = Action::kSubscribe;
      a.query = w.sample.inserts[qi++];
      subscribed.push_back(a.query.id);
      actions.push_back(std::move(a));
    } else if (dice < 0.55 && !subscribed.empty()) {
      Action a;
      a.kind = Action::kUnsubscribe;
      const size_t pick = rng.NextBelow(subscribed.size());
      a.query_id = subscribed[pick];
      subscribed.erase(subscribed.begin() + pick);
      actions.push_back(std::move(a));
    } else if (oi < w.extra_objects.size()) {
      Action a;
      a.kind = Action::kPublish;
      a.object = w.extra_objects[oi++];
      actions.push_back(std::move(a));
    }
  }
  return actions;
}

std::vector<MatchResult> ReferenceRun(const std::vector<Action>& actions) {
  ReferenceMatcher ref;
  std::vector<MatchResult> out;
  for (const Action& a : actions) {
    switch (a.kind) {
      case Action::kSubscribe:
        ref.Insert(a.query);
        break;
      case Action::kUnsubscribe:
        ref.Delete(a.query_id);
        break;
      case Action::kPublish:
        for (const MatchResult& m : ref.Match(a.object)) out.push_back(m);
        break;
    }
  }
  return testutil::Sorted(std::move(out));
}

TEST(ShardChaosTest, SoakSurvivesKillsFaultsAndMigrationsExactly) {
  for (const uint64_t base : {211u, 212u}) {
    const uint64_t seed = ChaosSeed(base);
    std::cout << "[ CHAOS  ] seed " << seed
              << " (override with PS2_CHAOS_SEED)" << std::endl;
    const testutil::TestWorkload w = testutil::MakeWorkload(seed, 400, 150);
    const std::vector<Action> actions = MakeActions(w, seed * 1000 + 13);
    const std::vector<MatchResult> expected = ReferenceRun(actions);
    ASSERT_FALSE(expected.empty());

    FaultScheduleConfig fc;
    fc.seed = seed;
    fc.drop_rate = 0.03;
    fc.delay_rate = 0.08;
    fc.max_delay_sends = 4;
    fc.duplicate_rate = 0.03;
    FaultInjectingTransport fault(fc);

    PS2StreamOptions options;
    options.sharding.num_shards = 4;
    options.partition.num_workers = 2;
    options.sharding.retry.max_attempts = 6;
    options.sharding.retry.base_backoff_us = 50;
    options.sharding.retry.max_backoff_us = 400;
    options.sharding.transport = &fault;
    PS2Stream ps2(options);
    ps2.Bootstrap(w.sample);
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);

    Rng chaos(seed ^ 0xC4405ULL);
    std::vector<MatchResult> delivered;
    size_t posts = 0;
    for (const Action& a : actions) {
      switch (a.kind) {
        case Action::kSubscribe: {
          auto sub = ps2.Subscribe(session, a.query);
          ASSERT_TRUE(sub.ok()) << sub.status().ToString();
          sub->Release();
          break;
        }
        case Action::kUnsubscribe: {
          const Status st = ps2.Cancel(a.query_id);
          ASSERT_TRUE(st.ok()) << st.ToString();
          break;
        }
        case Action::kPublish: {
          const Status st = ps2.Post(a.object);
          ASSERT_TRUE(st.ok()) << st.ToString();
          ++posts;
          ShardedEngine& fabric = *ps2.fabric();
          if (posts % 31 == 0) {
            // Kill a random shard: the next frame to it must detect the
            // silence, restart it, and replay — never quarantine.
            fabric.KillShard(static_cast<ShardId>(
                chaos.NextBelow(static_cast<uint64_t>(fabric.num_shards()))));
          }
          if (posts % 17 == 0) {
            const CellId cell =
                fabric.shard_cluster(0).router().plan().grid.CellOf(
                    a.object.loc);
            const ShardId from = fabric.shard_map()->OwnerOf(cell);
            fabric.MigrateCell(cell, from,
                               (from + 1) % fabric.num_shards());
          }
          break;
        }
      }
      Delivery d;
      while (session->Poll(&d)) {
        delivered.push_back(MatchResult{d.query_id, d.object_id});
      }
    }
    // Settle: a final health sweep restarts any shard killed after its last
    // traffic, and the probe's acked round trip flushes the links.
    const Status health = ps2.Health();
    EXPECT_TRUE(health.ok()) << health.ToString();
    Delivery d;
    while (session->Poll(&d)) {
      delivered.push_back(MatchResult{d.query_id, d.object_id});
    }

    // Exactness under chaos: the reference match set, nothing more,
    // nothing less, nothing twice.
    std::unordered_set<std::string> seen;
    for (const MatchResult& m : delivered) {
      const std::string key =
          std::to_string(m.query_id) + ":" + std::to_string(m.object_id);
      EXPECT_TRUE(seen.insert(key).second)
          << "duplicate delivery q" << m.query_id << " o" << m.object_id
          << " (seed " << seed << ")";
    }
    EXPECT_EQ(testutil::Sorted(std::move(delivered)), expected)
        << "seed " << seed;

    ShardedEngine& fabric = *ps2.fabric();
    EXPECT_FALSE(fabric.degraded()) << "seed " << seed;
    EXPECT_EQ(fabric.decode_errors(), 0u) << "seed " << seed;
    const FabricFaultStats fs = fabric.fault_stats();
    EXPECT_GT(fs.shard_restarts, 0u) << "the soak never exercised a kill";
    EXPECT_GT(fs.frame_retries, 0u) << "the soak never exercised a retry";
    const FaultCounters fcnt = fault.counters();
    std::cout << "[ CHAOS  ] seed " << seed << ": sends=" << fcnt.sends
              << " dropped=" << fcnt.dropped << " delayed=" << fcnt.delayed
              << " duplicated=" << fcnt.duplicated
              << " restarts=" << fs.shard_restarts
              << " retries=" << fs.frame_retries
              << " dup_suppressed=" << fs.fabric_dup_suppressed << std::endl;
  }
}

}  // namespace
}  // namespace ps2
