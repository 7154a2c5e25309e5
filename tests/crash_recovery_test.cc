#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "index/reference_matcher.h"
#include "persist/durability.h"
#include "runtime/ps2stream.h"
#include "test_util.h"

namespace ps2 {
namespace {

// One interleaved action of the crash stream.
struct Action {
  enum Kind { kSubscribe, kUnsubscribe, kPublish } kind;
  STSQuery query;              // kSubscribe
  QueryId query_id = 0;        // kUnsubscribe
  SpatioTextualObject object;  // kPublish
};

// Interleaves subscriptions, occasional unsubscriptions and publishes into
// one deterministic stream.
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

// Subscribes without a session or RAII handle: the subscription stays live
// until cancelled, which is the lifecycle these durability tests model.
void SubscribeRaw(PS2Stream& ps2, const STSQuery& q) {
  auto sub = ps2.Subscribe(nullptr, q);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  sub->Release();
}

// Routes every live subscription of `ps2` to `session` (the documented
// post-Restore reattach flow — delivery routes are not persisted).
void RouteAll(PS2Stream& ps2,
              const std::shared_ptr<SubscriberSession>& session) {
  for (const auto& [id, q] : ps2.subscriptions()) {
    ps2.delivery().Route(id, session);
  }
}

// Posts `o` synchronously and returns the matches delivered to `session`
// (which must be drained, i.e. empty, on entry).
std::vector<MatchResult> PostAndDrain(
    PS2Stream& ps2, const std::shared_ptr<SubscriberSession>& session,
    const SpatioTextualObject& o) {
  EXPECT_TRUE(ps2.Post(o).ok());
  std::vector<MatchResult> out;
  Delivery d;
  while (session->Poll(&d)) {
    out.push_back(MatchResult{d.query_id, d.object_id});
  }
  return out;
}

// Highest-numbered WAL segment in the durable directory (where a torn tail
// would land).
std::string NewestWalSegment(const std::string& dir) {
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name > newest) newest = name;
  }
  return dir + "/" + newest;
}

// Compares cell routes of two plans (worker assignment, space/text kind and
// the text-split term map), i.e. "no installed migration was lost". These
// tests run in the raw-id world (queries carry externally assigned
// TermIds), where recovery preserves term ids verbatim.
void ExpectSamePlanRoutes(const PartitionPlan& expected,
                          const PartitionPlan& actual) {
  ASSERT_EQ(actual.cells.size(), expected.cells.size());
  for (size_t c = 0; c < expected.cells.size(); ++c) {
    ASSERT_EQ(actual.cells[c].IsText(), expected.cells[c].IsText()) << c;
    if (!expected.cells[c].IsText()) {
      EXPECT_EQ(actual.cells[c].worker, expected.cells[c].worker) << c;
      continue;
    }
    const auto& exp_map = expected.cells[c].text->term_map();
    const auto& act_map = actual.cells[c].text->term_map();
    ASSERT_EQ(act_map.size(), exp_map.size()) << c;
    for (const auto& [term, worker] : exp_map) {
      auto it = act_map.find(term);
      ASSERT_NE(it, act_map.end()) << c;
      EXPECT_EQ(it->second, worker) << c;
    }
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs gtest cases in parallel, and siblings
    // sharing one durable directory would stomp each other's files.
    dir_ = ::testing::TempDir() + "/ps2_crash_recovery_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// The acceptance test of the durability subsystem: run the *threaded*
// engine, hard-stop it at a randomized point (no clean Stop()), Recover(),
// and require that a replayed object stream delivers exactly what the
// synchronous reference engine delivers over the durably-acknowledged
// subscription set. Some kill points additionally tear the WAL tail; the
// torn record must be truncated, never crash recovery.
TEST_F(CrashRecoveryTest, KillThreadedEngineAtRandomPointsRecoversExactly) {
  auto w = testutil::MakeWorkload(1301, 900, 260);
  for (const uint64_t seed : {11u, 23u, 37u, 51u}) {
    std::filesystem::remove_all(dir_);
    const std::vector<Action> actions = MakeActions(w, seed);
    Rng rng(seed * 1000 + 7);
    const size_t kill_point = 1 + rng.NextBelow(actions.size() - 1);

    PS2StreamOptions opts;
    opts.partition.num_workers = 4;
    opts.partition.grid_k = 4;
    opts.engine.num_dispatchers = 2;
    opts.durability.enabled = true;
    opts.durability.dir = dir_;
    opts.durability.wal_sync = Wal::SyncMode::kFlush;
    // Odd seeds checkpoint mid-run, so the kill also exercises
    // checkpoint+tail recovery, not just pure WAL replay.
    opts.durability.checkpoint_every = seed % 2 == 1 ? 64 : 0;

    std::unordered_map<QueryId, STSQuery> expected_live;
    {
      PS2Stream ps2(opts);
      ps2.Bootstrap(w.sample);
      ASSERT_TRUE(ps2.durable());
      ps2.Start();
      ASSERT_TRUE(ps2.started());
      for (size_t i = 0; i < kill_point; ++i) {
        const Action& a = actions[i];
        switch (a.kind) {
          case Action::kSubscribe:
            SubscribeRaw(ps2, a.query);
            expected_live[a.query.id] = a.query;
            break;
          case Action::kUnsubscribe:
            EXPECT_TRUE(ps2.Cancel(a.query_id).ok());
            expected_live.erase(a.query_id);
            break;
          case Action::kPublish:
            EXPECT_TRUE(ps2.Post(a.object).ok());
            break;
        }
      }
      ps2.Kill();  // no Stop(), no final checkpoint, queues discarded
    }
    if (seed % 2 == 0) {
      // Simulate a torn write at the crash point.
      std::FILE* f = std::fopen(NewestWalSegment(dir_).c_str(), "ab");
      ASSERT_NE(f, nullptr);
      const uint32_t bogus_len = 4096;
      std::fwrite(&bogus_len, sizeof(bogus_len), 1, f);
      std::fwrite("torn", 4, 1, f);
      std::fclose(f);
    }

    PS2Stream recovered;
    ASSERT_TRUE(recovered.Restore(dir_)) << "seed " << seed;
    ASSERT_NE(recovered.recovered(), nullptr);
    if (seed % 2 == 0) {
      EXPECT_TRUE(recovered.recovered()->wal.truncated);
    }

    // Every durably-acknowledged subscription — no more, no fewer.
    ASSERT_EQ(recovered.num_subscriptions(), expected_live.size())
        << "seed " << seed << " kill_point " << kill_point;
    for (const auto& [id, q] : expected_live) {
      EXPECT_EQ(recovered.subscriptions().count(id), 1u) << id;
    }

    // Replayed object stream: the recovered engine must deliver exactly the
    // synchronous reference engine's match set.
    auto session = recovered.OpenSession({.queue_capacity = 1 << 16});
    RouteAll(recovered, session);
    ReferenceMatcher ref;
    for (const auto& [id, q] : expected_live) ref.Insert(q);
    for (const auto& o : w.extra_objects) {
      EXPECT_EQ(testutil::Sorted(PostAndDrain(recovered, session, o)),
                testutil::Sorted(ref.Match(o)))
          << "seed " << seed << " object " << o.id;
    }
  }
}

// Recovery must land on the post-migration plan: sync-mode auto-adjustment
// journals every installed cell-route rewrite, and Restore() reproduces the
// exact routes (including text splits) without a checkpoint having run
// since.
TEST_F(CrashRecoveryTest, SyncModeMigrationsSurviveCrash) {
  auto w = testutil::MakeWorkload(1303, 1200, 300);
  PS2StreamOptions opts;
  opts.partitioner = "";  // uniform fallback plan: adjustment must fix it
  opts.partition.num_workers = 3;
  opts.partition.grid_k = 3;
  opts.auto_adjust = true;
  opts.adjust_check_interval = 400;
  opts.adjust.sigma = 1.1;
  opts.durability.enabled = true;
  opts.durability.dir = dir_;

  PS2Stream ps2(opts);
  ps2.Bootstrap(w.sample);
  ASSERT_TRUE(ps2.durable());
  for (const auto& q : w.sample.inserts) SubscribeRaw(ps2, q);
  for (const auto& o : w.sample.objects) ASSERT_TRUE(ps2.Post(o).ok());
  for (const auto& o : w.extra_objects) ASSERT_TRUE(ps2.Post(o).ok());
  ASSERT_GE(ps2.adjustments().size(), 1u)
      << "workload did not trigger an adjustment; tune the test";
  const PartitionPlan plan_at_crash = ps2.cluster().router().plan();
  const size_t live_at_crash = ps2.num_subscriptions();
  // Cell-route records are fire-and-forget (never block on the disk); the
  // exact-plan comparison below needs them on disk, so flush before the
  // crash. Without the flush, recovery would land on some valid earlier
  // plan — correct, but not comparable.
  ps2.durability()->wal().Flush();
  ps2.Kill();

  PS2Stream recovered;
  ASSERT_TRUE(recovered.Restore(dir_));
  EXPECT_GT(recovered.recovered()->wal.cell_routes, 0u);
  EXPECT_EQ(recovered.num_subscriptions(), live_at_crash);
  ExpectSamePlanRoutes(plan_at_crash, recovered.cluster().router().plan());
}

// Live (threaded controller) migrations are journaled under the routing
// writer lock; after a kill, the recovered plan carries them and the match
// set over a replayed stream is still exact.
TEST_F(CrashRecoveryTest, LiveMigrationsSurviveCrash) {
  auto w = testutil::MakeWorkload(1305, 1600, 400);
  PS2StreamOptions opts;
  opts.partitioner = "";  // uniform fallback plan
  opts.partition.num_workers = 4;
  opts.partition.grid_k = 4;
  opts.auto_adjust = true;
  opts.adjust_check_interval = 200;
  opts.adjust.sigma = 1.15;
  opts.engine.num_dispatchers = 2;
  opts.engine.controller.interval_ms = 1;
  opts.engine.input_rate_tps = 60000.0;
  opts.durability.enabled = true;
  opts.durability.dir = dir_;

  PS2Stream ps2(opts);
  ps2.Bootstrap(w.sample);
  ps2.Start();
  for (const auto& q : w.sample.inserts) SubscribeRaw(ps2, q);
  // Keep publishing (re-used object streams are fine — load is what
  // matters) until the controller has installed at least one migration, so
  // the crash provably covers journaled live migrations.
  bool migrated = false;
  for (int round = 0; round < 100 && !migrated; ++round) {
    for (const auto& o : w.sample.objects) ASSERT_TRUE(ps2.Post(o).ok());
    for (const auto& o : w.extra_objects) ASSERT_TRUE(ps2.Post(o).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    migrated = ps2.engine()->migrations_installed() > 0;
  }
  ASSERT_TRUE(migrated) << "controller never migrated; tune the test";
  // The crash: hard-stop the engine (joins the controller — no further
  // migration can install), then flush the fire-and-forget cell-route
  // records so the exact-plan comparison below is deterministic. Without
  // the flush, recovery would land on some valid earlier plan — correct,
  // but not comparable.
  ps2.engine()->Abort();
  ps2.durability()->wal().Flush();
  ps2.Kill();
  const PartitionPlan plan_at_crash = ps2.cluster().router().plan();

  PS2Stream recovered;
  ASSERT_TRUE(recovered.Restore(dir_));
  EXPECT_EQ(recovered.num_subscriptions(), w.sample.inserts.size());
  EXPECT_GT(recovered.recovered()->wal.cell_routes, 0u);
  ExpectSamePlanRoutes(plan_at_crash, recovered.cluster().router().plan());

  auto session = recovered.OpenSession({.queue_capacity = 1 << 16});
  RouteAll(recovered, session);
  ReferenceMatcher ref;
  for (const auto& q : w.sample.inserts) ref.Insert(q);
  for (const auto& o : w.extra_objects) {
    EXPECT_EQ(testutil::Sorted(PostAndDrain(recovered, session, o)),
              testutil::Sorted(ref.Match(o)));
  }
}

// Restore -> keep serving -> crash again -> Restore: the WAL resumes at the
// truncated tail and the second recovery sees both generations of
// mutations.
TEST_F(CrashRecoveryTest, RestoredServiceKeepsLoggingAcrossSecondCrash) {
  auto w = testutil::MakeWorkload(1307, 500, 160);
  PS2StreamOptions opts;
  opts.partition.num_workers = 2;
  opts.partition.grid_k = 3;
  opts.durability.enabled = true;
  opts.durability.dir = dir_;

  const size_t half = w.sample.inserts.size() / 2;
  {
    PS2Stream ps2(opts);
    ps2.Bootstrap(w.sample);
    for (size_t i = 0; i < half; ++i) {
      SubscribeRaw(ps2, w.sample.inserts[i]);
    }
    ps2.Kill();
  }
  {
    PS2Stream ps2(opts);
    ASSERT_TRUE(ps2.Restore());  // dir from options
    ASSERT_TRUE(ps2.durable());
    EXPECT_EQ(ps2.num_subscriptions(), half);
    for (size_t i = half; i < w.sample.inserts.size(); ++i) {
      SubscribeRaw(ps2, w.sample.inserts[i]);
    }
    ps2.Kill();
  }
  PS2Stream recovered;
  ASSERT_TRUE(recovered.Restore(dir_));
  EXPECT_EQ(recovered.num_subscriptions(), w.sample.inserts.size());

  auto session = recovered.OpenSession({.queue_capacity = 1 << 16});
  RouteAll(recovered, session);
  ReferenceMatcher ref;
  for (const auto& q : w.sample.inserts) ref.Insert(q);
  for (const auto& o : w.extra_objects) {
    EXPECT_EQ(testutil::Sorted(PostAndDrain(recovered, session, o)),
              testutil::Sorted(ref.Match(o)));
  }
}

// A crash between WAL rotation and checkpoint commit leaves an orphan
// later segment. Restore() must resume logging on that *last* segment of
// the chain — resuming on the committed checkpoint's segment would give
// post-restore records higher LSNs in an earlier file, and the next
// recovery's LSN filter would silently drop everything that lived only in
// the orphan.
TEST_F(CrashRecoveryTest, OrphanSegmentSurvivesResumeAndSecondCrash) {
  auto w = testutil::MakeWorkload(1311, 500, 150);
  PS2StreamOptions opts;
  opts.partition.num_workers = 2;
  opts.partition.grid_k = 3;
  opts.durability.enabled = true;
  opts.durability.dir = dir_;

  const size_t third = w.sample.inserts.size() / 3;
  {
    PS2Stream a(opts);
    a.Bootstrap(w.sample);
    for (size_t i = 0; i < third; ++i) {
      SubscribeRaw(a, w.sample.inserts[i]);
    }
    a.Kill();
  }
  {
    // Forge the mid-checkpoint crash: rotate the WAL (BeginCheckpoint),
    // append one subscription into the orphan segment, never commit.
    RecoveredState probe;
    ASSERT_TRUE(RecoverState(dir_, &probe));
    DurabilityManager mgr(opts.durability);
    ASSERT_TRUE(mgr.Resume(1, probe.last_lsn + 1));
    ASSERT_EQ(mgr.BeginCheckpoint(), 2u);
    Vocabulary raw_ids;  // raw-id world: the facade vocab holds no strings
    mgr.wal().AppendSubscribe(w.sample.inserts[third], raw_ids);
  }
  {
    PS2Stream b(opts);
    ASSERT_TRUE(b.Restore());
    EXPECT_EQ(b.num_subscriptions(), third + 1);  // orphan record replayed
    for (size_t i = third + 1; i < w.sample.inserts.size(); ++i) {
      SubscribeRaw(b, w.sample.inserts[i]);
    }
    b.Kill();
  }
  PS2Stream c;
  ASSERT_TRUE(c.Restore(dir_));
  EXPECT_EQ(c.num_subscriptions(), w.sample.inserts.size());

  auto session = c.OpenSession({.queue_capacity = 1 << 16});
  RouteAll(c, session);
  ReferenceMatcher ref;
  for (const auto& q : w.sample.inserts) ref.Insert(q);
  for (const auto& o : w.extra_objects) {
    EXPECT_EQ(testutil::Sorted(PostAndDrain(c, session, o)),
              testutil::Sorted(ref.Match(o)));
  }
}

// A torn record cuts the recoverable timeline: a stale orphan segment
// *beyond* the torn one must not survive the resume, or a later rotation
// would append the new incarnation's records after the old ones and a
// future recovery would resurrect them.
TEST_F(CrashRecoveryTest, StaleSegmentBeyondTornTailIsDiscardedOnResume) {
  auto w = testutil::MakeWorkload(1315, 300, 120);
  PS2StreamOptions opts;
  opts.partition.num_workers = 2;
  opts.partition.grid_k = 3;
  opts.durability.enabled = true;
  opts.durability.dir = dir_;

  const size_t half = w.sample.inserts.size() / 2;
  {
    PS2Stream a(opts);
    a.Bootstrap(w.sample);
    for (size_t i = 0; i < half; ++i) {
      SubscribeRaw(a, w.sample.inserts[i]);
    }
    a.Kill();
  }
  {
    // Orphan: rotate without commit and log one record into wal-2.
    RecoveredState probe;
    ASSERT_TRUE(RecoverState(dir_, &probe));
    DurabilityManager mgr(opts.durability);
    ASSERT_TRUE(mgr.Resume(1, probe.last_lsn + 1));
    ASSERT_EQ(mgr.BeginCheckpoint(), 2u);
    Vocabulary raw_ids;
    mgr.wal().AppendSubscribe(w.sample.inserts[half], raw_ids);
  }
  // Bit rot tears wal-1's tail, so recovery's timeline now ends inside
  // wal-1 and the orphan wal-2 is beyond the cut.
  {
    std::FILE* f =
        std::fopen(DurabilityManager::WalPath(dir_, 1).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite("torntorntorn", 1, 12, f);
    std::fclose(f);
  }
  {
    PS2Stream b(opts);
    ASSERT_TRUE(b.Restore());
    EXPECT_EQ(b.num_subscriptions(), half);  // timeline cut at the tear
    EXPECT_FALSE(std::filesystem::exists(
        DurabilityManager::WalPath(dir_, 2)));  // stale orphan removed
    SubscribeRaw(b, w.sample.inserts[half + 1]);
    b.Kill();
  }
  PS2Stream c;
  ASSERT_TRUE(c.Restore(dir_));
  // The new incarnation's record survived; nothing stale resurrected.
  EXPECT_EQ(c.num_subscriptions(), half + 1);
  EXPECT_EQ(c.subscriptions().count(w.sample.inserts[half].id), 0u);
  EXPECT_EQ(c.subscriptions().count(w.sample.inserts[half + 1].id), 1u);
}

// Ids of queries subscribed then unsubscribed after the last checkpoint
// must still advance the recovered id high-water — reissuing a dead id
// would cross-wire a client that still holds it.
TEST_F(CrashRecoveryTest, DeadReplayedSubscriptionsStillAdvanceQueryIds) {
  auto w = testutil::MakeWorkload(1317, 200, 60);
  PS2StreamOptions opts;
  opts.partition.num_workers = 2;
  opts.partition.grid_k = 3;
  opts.durability.enabled = true;
  opts.durability.dir = dir_;

  QueryId last_id = 0;
  {
    PS2Stream a(opts);
    a.Bootstrap(w.sample);
    auto sub = a.Subscribe(nullptr, "alpha AND beta", Rect(0, 0, 10, 10));
    ASSERT_TRUE(sub.ok());
    last_id = sub->Release();
    ASSERT_GT(last_id, 0u);
    ASSERT_TRUE(a.Cancel(last_id).ok());
    a.Kill();
  }
  PS2Stream b(opts);
  ASSERT_TRUE(b.Restore());
  EXPECT_EQ(b.num_subscriptions(), 0u);
  auto reissue = b.Subscribe(nullptr, "alpha", Rect(0, 0, 10, 10));
  ASSERT_TRUE(reissue.ok());
  EXPECT_GT(reissue->Release(), last_id);
}

// Bootstrapping into a directory that already holds durable state must not
// overwrite it: the previous incarnation's subscriber base stays
// recoverable, and the mis-configured service simply runs non-durable.
TEST_F(CrashRecoveryTest, BootstrapRefusesExistingDurableDirectory) {
  auto w = testutil::MakeWorkload(1313, 300, 100);
  PS2StreamOptions opts;
  opts.partition.num_workers = 2;
  opts.partition.grid_k = 3;
  opts.durability.enabled = true;
  opts.durability.dir = dir_;

  {
    PS2Stream a(opts);
    a.Bootstrap(w.sample);
    ASSERT_TRUE(a.durable());
    for (const auto& q : w.sample.inserts) SubscribeRaw(a, q);
    a.Kill();
  }
  {
    // Operator error: Bootstrap instead of Restore on the same directory.
    PS2Stream b(opts);
    b.Bootstrap(w.sample);
    EXPECT_FALSE(b.durable());  // refused — service runs, but non-durable
    SubscribeRaw(b, w.sample.inserts.front());
    b.Kill();
  }
  PS2Stream c;
  ASSERT_TRUE(c.Restore(dir_));  // the first incarnation is intact
  EXPECT_EQ(c.num_subscriptions(), w.sample.inserts.size());
}

// Explicit checkpoints bound WAL growth: after Checkpoint(), recovery reads
// the checkpointed state plus an empty tail, and RecoverState exposes the
// same state to embedders that bypass the facade.
TEST_F(CrashRecoveryTest, CheckpointThenEngineRecover) {
  auto w = testutil::MakeWorkload(1309, 400, 120);
  PS2StreamOptions opts;
  opts.partition.num_workers = 2;
  opts.partition.grid_k = 3;
  opts.durability.enabled = true;
  opts.durability.dir = dir_;
  opts.durability.include_snapshot = true;  // exercise the H2 section too

  PS2Stream ps2(opts);
  ps2.Bootstrap(w.sample);
  for (const auto& q : w.sample.inserts) SubscribeRaw(ps2, q);
  ASSERT_TRUE(ps2.Checkpoint());
  ps2.Kill();

  RecoveredState state;
  ASSERT_TRUE(RecoverState(dir_, &state));
  EXPECT_EQ(state.checkpoint_seq, 2u);
  EXPECT_EQ(state.wal.records, 0u);  // tail is empty after the checkpoint
  EXPECT_EQ(state.queries.size(), w.sample.inserts.size());
  EXPECT_TRUE(state.had_snapshot);
  EXPECT_EQ(state.plan.num_workers, 2);
}

}  // namespace
}  // namespace ps2
