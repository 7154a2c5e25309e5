#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "adjust/shard_balancer.h"
#include "index/reference_matcher.h"
#include "runtime/ps2stream.h"
#include "test_util.h"

namespace ps2 {
namespace {

PS2StreamOptions FabricOptions(int num_shards) {
  PS2StreamOptions options;
  options.sharding.num_shards = num_shards;
  // Keep per-shard fleets small: tests run N full engines in one process.
  options.partition.num_workers = 2;
  options.engine.num_dispatchers = 1;
  options.engine.queue_capacity = 1024;
  return options;
}

void SubscribeRaw(PS2Stream& ps2, const std::shared_ptr<SubscriberSession>& s,
                  const STSQuery& q) {
  auto sub = ps2.Subscribe(s, q);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  sub->Release();
}

std::vector<MatchResult> DrainSession(
    const std::shared_ptr<SubscriberSession>& session) {
  std::vector<MatchResult> out;
  Delivery d;
  while (session->Poll(&d)) {
    out.push_back(MatchResult{d.query_id, d.object_id});
  }
  return out;
}

std::vector<MatchResult> ReferenceSet(
    const testutil::TestWorkload& w,
    const std::vector<SpatioTextualObject>& objects) {
  ReferenceMatcher ref;
  for (const STSQuery& q : w.sample.inserts) ref.Insert(q);
  std::vector<MatchResult> out;
  for (const SpatioTextualObject& o : objects) {
    for (const MatchResult& m : ref.Match(o)) out.push_back(m);
  }
  return testutil::Sorted(std::move(out));
}

// The headline equivalence: a 4-shard fabric delivers byte-identical match
// sets to a single-shard facade and to the brute-force reference, in
// synchronous mode.
TEST(ShardFabricTest, SyncDeliverySetMatchesSingleShardAndReference) {
  const testutil::TestWorkload w = testutil::MakeWorkload(71);
  const std::vector<MatchResult> expected =
      ReferenceSet(w, w.extra_objects);
  ASSERT_FALSE(expected.empty());

  std::vector<MatchResult> sets[2];
  const int shard_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    PS2Stream ps2(FabricOptions(shard_counts[i]));
    ps2.Bootstrap(w.sample);
    if (shard_counts[i] > 1) {
      ASSERT_NE(ps2.fabric(), nullptr);
      EXPECT_EQ(ps2.fabric()->num_shards(), shard_counts[i]);
    } else {
      EXPECT_EQ(ps2.fabric(), nullptr);
    }
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);
    for (const STSQuery& q : w.sample.inserts) {
      SubscribeRaw(ps2, session, q);
    }
    for (const SpatioTextualObject& o : w.extra_objects) {
      ASSERT_TRUE(ps2.Post(o).ok());
    }
    sets[i] = testutil::Sorted(DrainSession(session));
  }
  EXPECT_EQ(sets[0], expected);
  EXPECT_EQ(sets[1], expected);
  EXPECT_EQ(sets[0], sets[1]);
}

// Started mode: every shard runs a real ThreadedEngine; matches flow from
// worker threads over the transport into the front router. Stop() drains
// everything, so the delivered set is exact.
TEST(ShardFabricTest, StartedDeliverySetMatchesReference) {
  const testutil::TestWorkload w = testutil::MakeWorkload(72, 800, 250);
  const std::vector<MatchResult> expected =
      ReferenceSet(w, w.extra_objects);
  ASSERT_FALSE(expected.empty());

  PS2Stream ps2(FabricOptions(3));
  ps2.Bootstrap(w.sample);
  SessionOptions so;
  so.queue_capacity = 1 << 16;
  auto session = ps2.OpenSession(so);
  for (const STSQuery& q : w.sample.inserts) SubscribeRaw(ps2, session, q);

  ps2.Start();
  ASSERT_TRUE(ps2.started());
  for (const SpatioTextualObject& o : w.extra_objects) {
    ASSERT_TRUE(ps2.Post(o).ok());
  }
  const RunReport report = ps2.Stop();
  EXPECT_EQ(report.shards, 3);
  EXPECT_EQ(testutil::Sorted(DrainSession(session)), expected);
  EXPECT_GT(report.session_deliveries, 0u);
  EXPECT_EQ(ps2.fabric()->decode_errors(), 0u);
}

// Live cross-shard migration mid-stream (copy -> publish -> drain ->
// remove) must neither lose nor duplicate a delivery, in either mode.
TEST(ShardFabricTest, LiveMigrationPreservesDeliverySet) {
  const testutil::TestWorkload w = testutil::MakeWorkload(73, 800, 250);
  const std::vector<MatchResult> expected =
      ReferenceSet(w, w.extra_objects);

  for (const bool started : {false, true}) {
    PS2Stream ps2(FabricOptions(4));
    ps2.Bootstrap(w.sample);
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);
    for (const STSQuery& q : w.sample.inserts) SubscribeRaw(ps2, session, q);
    if (started) ps2.Start();

    ShardedEngine& fabric = *ps2.fabric();
    const GridSpec& grid =
        fabric.shard_cluster(0).router().plan().grid;
    const uint64_t version_before = fabric.shard_map()->version;
    size_t migrations = 0;
    for (size_t i = 0; i < w.extra_objects.size(); ++i) {
      ASSERT_TRUE(ps2.Post(w.extra_objects[i]).ok());
      // Every ~60 posts, migrate the cell the object just landed in to the
      // next shard — the hottest possible moment for that cell.
      if (i % 60 == 59) {
        const CellId cell = grid.CellOf(w.extra_objects[i].loc);
        const ShardId from = fabric.shard_map()->OwnerOf(cell);
        const ShardId to = (from + 1) % fabric.num_shards();
        fabric.MigrateCell(cell, from, to);
        EXPECT_EQ(fabric.shard_map()->OwnerOf(cell), to);
        ++migrations;
      }
    }
    ASSERT_GT(migrations, 0u);
    EXPECT_EQ(fabric.cells_migrated(), migrations);
    EXPECT_GT(fabric.shard_map()->version, version_before);
    if (started) ps2.Stop();
    EXPECT_EQ(testutil::Sorted(DrainSession(session)), expected)
        << (started ? "started" : "sync");
  }
}

// Kill mid-run, restore the whole fleet from the fabric root, keep serving:
// per-shard WAL + checkpoints + SHARDMAP reassemble identically.
TEST(ShardFabricTest, KillAndRestoreReassemblesFleet) {
  const testutil::TestWorkload w = testutil::MakeWorkload(74, 800, 250);
  const std::string dir =
      ::testing::TempDir() + "/ps2_shard_fabric_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);

  PS2StreamOptions options = FabricOptions(4);
  options.durability.enabled = true;
  options.durability.dir = dir;

  const size_t half = w.extra_objects.size() / 2;
  std::vector<MatchResult> first_half, second_half;
  {
    PS2Stream ps2(options);
    ps2.Bootstrap(w.sample);
    ASSERT_TRUE(ps2.durable());
    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);
    for (const STSQuery& q : w.sample.inserts) SubscribeRaw(ps2, session, q);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(ps2.Post(w.extra_objects[i]).ok());
    }
    first_half = testutil::Sorted(DrainSession(session));
    // Migrate one busy cell so the restored SHARDMAP is non-uniform.
    ShardedEngine& fabric = *ps2.fabric();
    const GridSpec& grid = fabric.shard_cluster(0).router().plan().grid;
    const CellId cell = grid.CellOf(w.extra_objects[0].loc);
    const ShardId from = fabric.shard_map()->OwnerOf(cell);
    fabric.MigrateCell(cell, from, (from + 1) % 4);
    ps2.Kill();
  }

  // Durable layout: one SHARDMAP next to four shard directories.
  ASSERT_TRUE(std::filesystem::exists(dir + "/SHARDMAP"));
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(std::filesystem::exists(dir + "/shard-" + std::to_string(s) +
                                        "/CURRENT"))
        << "shard " << s;
  }

  {
    PS2Stream ps2(FabricOptions(1));  // shard count comes from SHARDMAP
    ASSERT_TRUE(ps2.Restore(dir));
    ASSERT_NE(ps2.fabric(), nullptr);
    EXPECT_EQ(ps2.fabric()->num_shards(), 4);
    EXPECT_EQ(ps2.subscriptions().size(), w.sample.inserts.size());
    EXPECT_TRUE(ps2.durable());

    SessionOptions so;
    so.queue_capacity = 1 << 16;
    auto session = ps2.OpenSession(so);
    for (const auto& [id, q] : ps2.subscriptions()) {
      ps2.delivery().Route(id, session);
    }
    for (size_t i = half; i < w.extra_objects.size(); ++i) {
      ASSERT_TRUE(ps2.Post(w.extra_objects[i]).ok());
    }
    second_half = testutil::Sorted(DrainSession(session));
  }

  std::vector<MatchResult> all = first_half;
  all.insert(all.end(), second_half.begin(), second_half.end());
  EXPECT_EQ(testutil::Sorted(std::move(all)),
            ReferenceSet(w, w.extra_objects));
  std::filesystem::remove_all(dir);
}

// durability.include_snapshot holds in fabric mode as it does for a single
// engine: every shard's checkpoint embeds its routing snapshot.
TEST(ShardFabricTest, CheckpointHonorsIncludeSnapshot) {
  const testutil::TestWorkload w = testutil::MakeWorkload(75, 400, 50);
  const std::string dir = ::testing::TempDir() + "/ps2_fabric_snapshot_" +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);

  PS2StreamOptions options = FabricOptions(2);
  options.durability.enabled = true;
  options.durability.dir = dir;
  options.durability.include_snapshot = true;
  {
    PS2Stream ps2(options);
    ps2.Bootstrap(w.sample);
    ASSERT_TRUE(ps2.durable());
    auto session = ps2.OpenSession();
    for (const STSQuery& q : w.sample.inserts) SubscribeRaw(ps2, session, q);
    ASSERT_TRUE(ps2.Checkpoint());
  }
  for (ShardId s = 0; s < 2; ++s) {
    RecoveredState state;
    ASSERT_TRUE(RecoverState(ShardDirPath(dir, s), &state)) << "shard " << s;
    EXPECT_TRUE(state.had_snapshot) << "shard " << s;
    EXPECT_FALSE(state.queries.empty()) << "shard " << s;
  }
  std::filesystem::remove_all(dir);
}

// The balancer ships a hot cell away when one shard holds clearly more
// object traffic than the coolest one.
TEST(ShardFabricTest, RebalanceMovesHotCellOffHotShard) {
  const testutil::TestWorkload w = testutil::MakeWorkload(75, 600, 150);
  PS2Stream ps2(FabricOptions(4));
  ps2.Bootstrap(w.sample);
  ShardedEngine& fabric = *ps2.fabric();
  const GridSpec& grid = fabric.shard_cluster(0).router().plan().grid;

  // Two cells with the same (striped) owner: pounding both makes that
  // shard hot while a single-cell move still helps.
  const CellId hot_a = 0;
  const CellId hot_b = 4;
  ASSERT_EQ(fabric.shard_map()->OwnerOf(hot_a),
            fabric.shard_map()->OwnerOf(hot_b));
  const ShardId hot_owner = fabric.shard_map()->OwnerOf(hot_a);
  SpatioTextualObject oa = SpatioTextualObject::FromTerms(
      1000000, grid.CellRect(hot_a).Center(), {w.terms[0]});
  SpatioTextualObject ob = SpatioTextualObject::FromTerms(
      2000000, grid.CellRect(hot_b).Center(), {w.terms[0]});
  for (int i = 0; i < 200; ++i) {
    oa.id = 1000000 + static_cast<ObjectId>(i);
    ob.id = 2000000 + static_cast<ObjectId>(i);
    ASSERT_TRUE(ps2.Post(oa).ok());
    if (i < 100) ASSERT_TRUE(ps2.Post(ob).ok());
  }
  const size_t migrated = fabric.MaybeRebalance();
  EXPECT_GE(migrated, 1u);
  // The hottest cell moved off the hot shard.
  EXPECT_NE(fabric.shard_map()->OwnerOf(hot_a), hot_owner);
  // And the fabric still matches correctly afterwards.
  STSQuery probe;
  probe.id = 900000;
  probe.expr = BoolExpr::And({w.terms[0]});
  probe.region = grid.CellRect(hot_a);
  SessionOptions so;
  auto session = ps2.OpenSession(so);
  SubscribeRaw(ps2, session, probe);
  oa.id = 3000000;
  ASSERT_TRUE(ps2.Post(oa).ok());
  const std::vector<MatchResult> got = DrainSession(session);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].query_id, probe.id);
  EXPECT_EQ(got[0].object_id, oa.id);
}

TEST(ShardBalancerTest, PlansNoMoveWhenBalancedOrHopeless) {
  ShardBalancer balancer(1.5);
  const ShardMap map = ShardMap::Uniform(8, 2);
  // Balanced: equal traffic per shard.
  EXPECT_TRUE(balancer.Plan(map, {10, 10, 10, 10, 10, 10, 10, 10}).empty());
  // Hopeless: one dominant cell — moving it just swaps the hot shard.
  EXPECT_TRUE(balancer.Plan(map, {100, 0, 0, 0, 0, 0, 0, 0}).empty());
  // Single shard: nothing to balance against.
  EXPECT_TRUE(ShardBalancer(1.5)
                  .Plan(ShardMap::Uniform(8, 1), {5, 5, 5, 5, 4, 4, 4, 4})
                  .empty());
}

TEST(ShardBalancerTest, ShipsHottestCellToCoolestShard) {
  ShardBalancer balancer(1.5);
  const ShardMap map = ShardMap::Uniform(8, 2);
  // Shard 0 owns cells {0,2,4,6} with loads {60,40,0,0}; shard 1 owns
  // {1,3,5,7} with loads {10,0,0,0}. Factor 100/10 = 10 > 1.5.
  const std::vector<ShardMove> moves =
      balancer.Plan(map, {60, 10, 40, 0, 0, 0, 0, 0});
  ASSERT_FALSE(moves.empty());
  EXPECT_EQ(moves[0].cell, 0u);
  EXPECT_EQ(moves[0].from, 0);
  EXPECT_EQ(moves[0].to, 1);
}

// --- RunReport fleet merging -------------------------------------------------

TEST(ShardReportMergeTest, MergeShardFoldsCountersAndWallTime) {
  RunReport a;
  a.tuples_processed = 100;
  a.objects = 80;
  a.matches_delivered = 40;
  a.duplicates_suppressed = 3;
  a.matches_emitted = 43;
  a.wall_seconds = 2.0;
  a.per_worker_tuples = {60, 40};
  a.worker_memory_bytes = {1000, 2000};
  a.worker_ring_highwater = {7, 9};
  a.dedup_kills = 2;

  RunReport b;
  b.tuples_processed = 300;
  b.objects = 250;
  b.matches_delivered = 100;
  b.duplicates_suppressed = 5;
  b.matches_emitted = 105;
  b.wall_seconds = 4.0;
  b.per_worker_tuples = {150, 150};
  b.worker_memory_bytes = {3000};
  b.worker_ring_highwater = {21};
  b.dedup_kills = 1;

  a.MergeShard(b);
  EXPECT_EQ(a.tuples_processed, 400u);
  EXPECT_EQ(a.objects, 330u);
  EXPECT_EQ(a.matches_delivered, 140u);
  EXPECT_EQ(a.duplicates_suppressed, 8u);
  EXPECT_EQ(a.matches_emitted, 148u);
  EXPECT_EQ(a.dedup_kills, 3u);
  // Shards ran concurrently: wall time is the slowest shard's, and the
  // fleet throughput is merged tuples over that wall time (not a sum of
  // per-shard rates).
  EXPECT_DOUBLE_EQ(a.wall_seconds, 4.0);
  EXPECT_DOUBLE_EQ(a.throughput_tps, 100.0);
  EXPECT_EQ(a.shards, 2);
  ASSERT_EQ(a.per_worker_tuples.size(), 4u);
  EXPECT_EQ(a.per_worker_tuples[2], 150u);
  EXPECT_EQ(a.worker_memory_bytes.size(), 3u);
  EXPECT_EQ(a.worker_ring_highwater.size(), 3u);

  // Summary flags the fleet; a single-engine report stays unprefixed.
  EXPECT_NE(a.Summary().find("shards=2"), std::string::npos);
  EXPECT_EQ(b.Summary().find("shards="), std::string::npos);
}

TEST(ShardReportMergeTest, FleetSummaryListsEveryShardAndTheTotal) {
  RunReport s0, s1;
  s0.tuples_processed = 10;
  s1.tuples_processed = 20;
  RunReport fleet = s0;
  fleet.MergeShard(s1);
  const std::string text = FleetSummary({s0, s1}, fleet);
  EXPECT_NE(text.find("shard 0:"), std::string::npos);
  EXPECT_NE(text.find("shard 1:"), std::string::npos);
  EXPECT_NE(text.find("fleet:"), std::string::npos);
  EXPECT_NE(text.find("shards=2"), std::string::npos);
}

}  // namespace
}  // namespace ps2
