// Fault-tolerance units and drills: the FaultInjectingTransport's schedule,
// the reliable link halves (retry/backoff/ack/epoch fencing), and the
// fabric's supervision behavior — restart on missed acks, quarantine after
// the restart budget, degraded-mode statuses, operator revive, and sticky
// WAL errors surfacing as kDataLoss at the facade.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "index/reference_matcher.h"
#include "runtime/ps2stream.h"
#include "shard/fault_transport.h"
#include "shard/reliable.h"
#include "shard/wire.h"
#include "test_util.h"

namespace ps2 {
namespace {

// --- FaultInjectingTransport -------------------------------------------------

struct Recorder {
  std::vector<std::string> frames;
  Transport::Handler Handler() {
    return [this](ShardId, const std::string& f) { frames.push_back(f); };
  }
};

TEST(FaultTransportTest, CleanScheduleIsAPassThrough) {
  FaultInjectingTransport t(FaultScheduleConfig{});
  Recorder r;
  t.RegisterEndpoint(0, r.Handler());
  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "a"));
  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "b"));
  EXPECT_FALSE(t.Send(kFrontEndpoint, 9, "x")) << "unknown endpoint";
  ASSERT_EQ(r.frames.size(), 2u);
  EXPECT_EQ(r.frames[0], "a");
  EXPECT_EQ(r.frames[1], "b");
  const FaultCounters c = t.counters();
  EXPECT_EQ(c.sends, 3u);
  EXPECT_EQ(c.delivered, 2u);
  EXPECT_EQ(c.dropped + c.delayed + c.duplicated + c.refused, 0u);
}

TEST(FaultTransportTest, DropsVanishButSendStillReportsSuccess) {
  FaultScheduleConfig cfg;
  cfg.drop_rate = 1.0;
  FaultInjectingTransport t(cfg);
  Recorder r;
  t.RegisterEndpoint(0, r.Handler());
  // The caller cannot tell a drop from a delivery — only the missing ack.
  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "gone"));
  EXPECT_TRUE(r.frames.empty());
  EXPECT_EQ(t.counters().dropped, 1u);
}

TEST(FaultTransportTest, RefusalsFailTheSendVisibly) {
  FaultScheduleConfig cfg;
  cfg.refuse_rate = 1.0;
  FaultInjectingTransport t(cfg);
  Recorder r;
  t.RegisterEndpoint(0, r.Handler());
  EXPECT_FALSE(t.Send(kFrontEndpoint, 0, "no"));
  EXPECT_TRUE(r.frames.empty());
  EXPECT_EQ(t.counters().refused, 1u);
}

TEST(FaultTransportTest, DuplicatesDeliverTwice) {
  FaultScheduleConfig cfg;
  cfg.duplicate_rate = 1.0;
  FaultInjectingTransport t(cfg);
  Recorder r;
  t.RegisterEndpoint(0, r.Handler());
  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "twin"));
  ASSERT_EQ(r.frames.size(), 2u);
  EXPECT_EQ(r.frames[0], "twin");
  EXPECT_EQ(r.frames[1], "twin");
  EXPECT_EQ(t.counters().duplicated, 1u);
}

TEST(FaultTransportTest, DelayedFramesReleaseOnLaterSends) {
  FaultScheduleConfig cfg;
  cfg.delay_rate = 1.0;
  cfg.max_delay_sends = 1;  // released by the very next Send
  FaultInjectingTransport t(cfg);
  Recorder r;
  t.RegisterEndpoint(0, r.Handler());
  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "a"));
  EXPECT_TRUE(r.frames.empty()) << "held, not delivered";
  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "b"));  // releases "a", holds "b"
  ASSERT_EQ(r.frames.size(), 1u);
  EXPECT_EQ(r.frames[0], "a");
  t.FlushDelayed();
  ASSERT_EQ(r.frames.size(), 2u);
  EXPECT_EQ(r.frames[1], "b");
  const FaultCounters c = t.counters();
  EXPECT_EQ(c.delayed, 2u);
  EXPECT_EQ(c.delivered, 2u);
}

TEST(FaultTransportTest, DelaySweepReordersButLosesNothing) {
  FaultScheduleConfig cfg;
  cfg.seed = 7;
  cfg.delay_rate = 0.5;
  cfg.max_delay_sends = 3;
  FaultInjectingTransport t(cfg);
  Recorder r;
  t.RegisterEndpoint(0, r.Handler());
  std::vector<std::string> sent;
  for (int i = 0; i < 40; ++i) {
    sent.push_back("f" + std::to_string(i));
    EXPECT_TRUE(t.Send(kFrontEndpoint, 0, sent.back()));
  }
  t.FlushDelayed();
  EXPECT_GT(t.counters().delayed, 0u);
  EXPECT_NE(r.frames, sent) << "delays never actually reordered anything";
  std::vector<std::string> got = r.frames;
  std::sort(got.begin(), got.end());
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(got, sent) << "delay must reorder, never lose or duplicate";
}

TEST(FaultTransportTest, PartitionWindowsBlockBothDirections) {
  FaultScheduleConfig cfg;
  FaultPartitionSpec part;
  part.a = kFrontEndpoint;
  part.b = 0;
  part.from_send = 1;  // send indices [1, 3) are partitioned
  part.to_send = 3;
  part.refuse = false;  // silent drop flavor
  cfg.partitions.push_back(part);
  FaultInjectingTransport t(cfg);
  Recorder front, shard;
  t.RegisterEndpoint(kFrontEndpoint, front.Handler());
  t.RegisterEndpoint(0, shard.Handler());
  t.RegisterEndpoint(1, shard.Handler());

  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "before"));   // idx 0: through
  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "blocked"));  // idx 1: dropped
  EXPECT_TRUE(t.Send(0, kFrontEndpoint, "reverse"));  // idx 2: dropped too
  EXPECT_TRUE(t.Send(kFrontEndpoint, 1, "other"));    // wrong peer: never
  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "after"));    // idx 4: window over
  ASSERT_EQ(shard.frames.size(), 3u);
  EXPECT_EQ(shard.frames[0], "before");
  EXPECT_EQ(shard.frames[1], "other");
  EXPECT_EQ(shard.frames[2], "after");
  EXPECT_TRUE(front.frames.empty());
  EXPECT_EQ(t.counters().dropped, 2u);

  // The refusing flavor makes the failure visible to the sender.
  FaultScheduleConfig cfg2;
  part.from_send = 0;
  part.to_send = UINT64_MAX;
  part.refuse = true;
  cfg2.partitions.push_back(part);
  FaultInjectingTransport t2(cfg2);
  Recorder r2;
  t2.RegisterEndpoint(0, r2.Handler());
  EXPECT_FALSE(t2.Send(kFrontEndpoint, 0, "nope"));
  EXPECT_EQ(t2.counters().refused, 1u);
}

// --- ReliableSender ----------------------------------------------------------

std::string Inner(uint64_t token) {
  return EncodeDrainFrame(FrameKind::kDrain, token);
}

RetryPolicy NoJitter(int attempts, int64_t base, int64_t cap) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.base_backoff_us = base;
  p.max_backoff_us = cap;
  p.jitter = 0.0;
  return p;
}

TEST(ReliableSenderTest, FirstSendIsFreeRetriesDoubleUntilTheCap) {
  ReliableSender s(NoJitter(10, 100, 400), 1);
  s.Enqueue(EncodePingFrame());
  std::vector<ReliableSender::Outgoing> out;
  s.CollectDue(0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].is_retry);
  Frame f;
  ASSERT_TRUE(DecodeFrame(*out[0].envelope, &f));
  EXPECT_TRUE(f.enveloped);
  EXPECT_EQ(f.kind, FrameKind::kPing);
  EXPECT_EQ(f.epoch, 1u);
  EXPECT_EQ(f.seq, 1u);

  out.clear();
  s.CollectDue(50, &out);
  EXPECT_TRUE(out.empty()) << "not due again before the backoff";
  EXPECT_EQ(s.next_due_us(), 100);  // zero jitter: exactly base
  s.CollectDue(100, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].is_retry);
  EXPECT_EQ(s.retries(), 1u);
  EXPECT_EQ(s.next_due_us(), 300);  // 100 + doubled backoff
  out.clear();
  s.CollectDue(300, &out);
  EXPECT_EQ(s.next_due_us(), 700);  // 300 + capped 400
}

TEST(ReliableSenderTest, CumulativeAckDropsThePrefixAndRefreshesTheBudget) {
  ReliableSender s(NoJitter(2, 100, 100), 1);
  for (uint64_t i = 1; i <= 3; ++i) s.Enqueue(Inner(i));
  std::vector<ReliableSender::Outgoing> out;
  s.CollectDue(0, &out);
  ASSERT_EQ(out.size(), 3u);

  EXPECT_FALSE(s.Ack(9, 3)) << "acks from another epoch are stale";
  EXPECT_EQ(s.unacked(), 3u);
  EXPECT_TRUE(s.Ack(1, 2));
  EXPECT_EQ(s.unacked(), 1u);
  EXPECT_FALSE(s.Ack(1, 2)) << "no new progress";

  // Progress refreshed the survivor's attempt budget: the next send is a
  // fresh first attempt, not a retry.
  out.clear();
  s.CollectDue(1000, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].is_retry);
  Frame f;
  ASSERT_TRUE(DecodeFrame(*out[0].envelope, &f));
  EXPECT_EQ(f.seq, 3u);
  EXPECT_EQ(f.drain_token, 3u);
}

TEST(ReliableSenderTest, ExhaustionTripsAfterMaxAttemptsAndAcksClearIt) {
  ReliableSender s(NoJitter(2, 100, 100), 1);
  s.Enqueue(Inner(1));
  std::vector<ReliableSender::Outgoing> out;
  s.CollectDue(0, &out);        // attempt 1
  s.CollectDue(100000, &out);   // attempt 2 (budget spent)
  EXPECT_FALSE(s.exhausted());
  out.clear();
  s.CollectDue(200000, &out);   // due again, but out of attempts
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(s.exhausted());
  EXPECT_EQ(s.next_due_us(), INT64_MAX) << "an exhausted frame never resends";

  EXPECT_TRUE(s.Ack(1, 1)) << "a very late ack still counts";
  EXPECT_FALSE(s.exhausted());
  EXPECT_EQ(s.unacked(), 0u);
}

TEST(ReliableSenderTest, ResetReplaysPendingBehindThePrologue) {
  ReliableSender s(NoJitter(10, 100, 400), 1);
  s.Enqueue(Inner(1));
  s.Enqueue(Inner(2));
  std::vector<ReliableSender::Outgoing> out;
  s.CollectDue(0, &out);

  std::vector<std::string> prologue;
  prologue.push_back(Inner(99));
  s.Reset(2, std::move(prologue));
  EXPECT_EQ(s.epoch(), 2u);
  EXPECT_EQ(s.unacked(), 3u);

  out.clear();
  s.CollectDue(0, &out);  // everything due immediately under the new epoch
  ASSERT_EQ(out.size(), 3u);
  const uint64_t want_tokens[] = {99, 1, 2};
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_FALSE(out[i].is_retry);
    Frame f;
    ASSERT_TRUE(DecodeFrame(*out[i].envelope, &f));
    EXPECT_EQ(f.epoch, 2u);
    EXPECT_EQ(f.seq, i + 1) << "sequences restart from 1";
    EXPECT_EQ(f.drain_token, want_tokens[i])
        << "the state-sync prologue must apply before the replay";
  }
}

TEST(ReliableSenderTest, TakeInnersSalvagesPendingFrames) {
  ReliableSender s(NoJitter(1, 100, 100), 1);
  s.Enqueue(Inner(7));
  s.Enqueue(Inner(8));
  std::vector<ReliableSender::Outgoing> out;
  s.CollectDue(0, &out);
  s.CollectDue(100000, &out);  // exhausts (1 attempt max)
  EXPECT_TRUE(s.exhausted());
  const std::vector<std::string> inners = s.TakeInners();
  ASSERT_EQ(inners.size(), 2u);
  EXPECT_EQ(inners[0], Inner(7));
  EXPECT_EQ(inners[1], Inner(8));
  EXPECT_EQ(s.unacked(), 0u);
  EXPECT_FALSE(s.exhausted());
}

// --- ReliableReceiver --------------------------------------------------------

Frame Ctl(uint64_t epoch, uint64_t seq) {
  Frame f;
  EXPECT_TRUE(
      DecodeFrame(EncodeControlFrame(epoch, seq, Inner(seq)), &f));
  return f;
}

// One Accept call's verdict together with the frames it released.
struct Released : ReliableReceiver::Result {
  std::vector<Frame> apply;
};

Released AcceptOne(ReliableReceiver& r, Frame&& f) {
  Released out;
  static_cast<ReliableReceiver::Result&>(out) =
      r.Accept(std::move(f), &out.apply);
  return out;
}

TEST(ReliableReceiverTest, OrderedReleaseBuffersAheadOfSequence) {
  ReliableReceiver r(ReliableReceiver::Order::kOrdered);
  auto r2 = AcceptOne(r, Ctl(1, 2));
  EXPECT_FALSE(r2.stale);
  EXPECT_FALSE(r2.duplicate);
  EXPECT_TRUE(r2.apply.empty()) << "seq 2 must wait for seq 1";
  EXPECT_EQ(r2.ack_upto, 0u);

  auto r1 = AcceptOne(r, Ctl(1, 1));
  ASSERT_EQ(r1.apply.size(), 2u) << "seq 1 releases the buffered seq 2";
  EXPECT_EQ(r1.apply[0].seq, 1u);
  EXPECT_EQ(r1.apply[1].seq, 2u);
  EXPECT_EQ(r1.ack_upto, 2u);

  auto dup = AcceptOne(r, Ctl(1, 2));
  EXPECT_TRUE(dup.duplicate);
  EXPECT_TRUE(dup.apply.empty());
  EXPECT_EQ(dup.ack_upto, 2u) << "duplicates are re-acked, not re-applied";
}

TEST(ReliableReceiverTest, UnorderedReleaseAppliesImmediatelyAndDedups) {
  ReliableReceiver r(ReliableReceiver::Order::kUnordered);
  auto r3 = AcceptOne(r, Ctl(1, 3));
  ASSERT_EQ(r3.apply.size(), 1u) << "match links never hold frames back";
  EXPECT_EQ(r3.ack_upto, 0u) << "cumulative ack still tracks the prefix";

  EXPECT_TRUE(AcceptOne(r, Ctl(1, 3)).duplicate);

  auto r1 = AcceptOne(r, Ctl(1, 1));
  ASSERT_EQ(r1.apply.size(), 1u);
  EXPECT_EQ(r1.ack_upto, 1u);
  auto r2 = AcceptOne(r, Ctl(1, 2));
  ASSERT_EQ(r2.apply.size(), 1u);
  EXPECT_EQ(r2.ack_upto, 3u) << "the prefix absorbs the out-of-order seq 3";
}

TEST(ReliableReceiverTest, EpochFencingDropsStaleAndAdoptsNewer) {
  ReliableReceiver r(ReliableReceiver::Order::kOrdered);
  ASSERT_EQ(AcceptOne(r, Ctl(2, 1)).apply.size(), 1u);
  EXPECT_EQ(r.epoch(), 2u);

  auto stale = AcceptOne(r, Ctl(1, 5));
  EXPECT_TRUE(stale.stale) << "a dead incarnation's frame must not apply";
  EXPECT_TRUE(stale.apply.empty());

  // A newer epoch is the sender's restart: adopt it with a clean slate.
  auto fresh = AcceptOne(r, Ctl(3, 1));
  EXPECT_FALSE(fresh.stale);
  ASSERT_EQ(fresh.apply.size(), 1u);
  EXPECT_EQ(fresh.ack_upto, 1u);
  EXPECT_EQ(r.epoch(), 3u);
}

// --- fabric drills -----------------------------------------------------------

// Retry policy tightened so a failure drill detects in ~a millisecond
// instead of the production ~65ms.
PS2StreamOptions FabricOptions(int num_shards) {
  PS2StreamOptions options;
  options.sharding.num_shards = num_shards;
  options.partition.num_workers = 2;
  options.sharding.retry.max_attempts = 4;
  options.sharding.retry.base_backoff_us = 50;
  options.sharding.retry.max_backoff_us = 200;
  return options;
}

void SubscribeAll(PS2Stream& ps2,
                  const std::shared_ptr<SubscriberSession>& session,
                  const testutil::TestWorkload& w, ReferenceMatcher* ref) {
  for (const STSQuery& q : w.sample.inserts) {
    auto sub = ps2.Subscribe(session, q);
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    sub->Release();
    ref->Insert(q);
  }
}

void Drain(const std::shared_ptr<SubscriberSession>& session,
           std::vector<MatchResult>* out) {
  Delivery d;
  while (session->Poll(&d)) {
    out->push_back(MatchResult{d.query_id, d.object_id});
  }
}

ShardId OwnerOf(PS2Stream& ps2, ShardId plan_from,
                const SpatioTextualObject& o) {
  ShardedEngine& fabric = *ps2.fabric();
  const CellId cell =
      fabric.shard_cluster(plan_from).router().plan().grid.CellOf(o.loc);
  return fabric.shard_map()->OwnerOf(cell);
}

TEST(ShardFaultTest, KilledShardRestartsOnTheNextFrameAndStaysExact) {
  const testutil::TestWorkload w = testutil::MakeWorkload(91, 300, 120);
  PS2Stream ps2(FabricOptions(2));
  ps2.Bootstrap(w.sample);
  SessionOptions so;
  so.queue_capacity = 1 << 16;
  auto session = ps2.OpenSession(so);
  ReferenceMatcher ref;
  SubscribeAll(ps2, session, w, &ref);

  std::vector<MatchResult> expected, delivered;
  const size_t half = w.extra_objects.size() / 2;
  for (size_t i = 0; i < w.extra_objects.size(); ++i) {
    if (i == half) ps2.fabric()->KillShard(1);
    const SpatioTextualObject& o = w.extra_objects[i];
    const Status st = ps2.Post(o);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (const MatchResult& m : ref.Match(o)) expected.push_back(m);
    Drain(session, &delivered);
  }
  Drain(session, &delivered);
  EXPECT_EQ(testutil::Sorted(std::move(delivered)),
            testutil::Sorted(std::move(expected)));
  EXPECT_GE(ps2.fabric()->shard_restart_count(1), 1u);
  EXPECT_FALSE(ps2.fabric()->degraded());
  EXPECT_GT(ps2.fabric()->fault_stats().shard_restarts, 0u);
}

TEST(ShardFaultTest, HealthProbeRestartsAnIdleKilledShard) {
  const testutil::TestWorkload w = testutil::MakeWorkload(92, 200, 80);
  PS2Stream ps2(FabricOptions(2));
  ps2.Bootstrap(w.sample);
  ASSERT_TRUE(ps2.Health().ok());

  // No traffic flows to the dead shard — only the probe can notice.
  ps2.fabric()->KillShard(0);
  const Status st = ps2.Health();
  EXPECT_TRUE(st.ok()) << st.ToString()
                       << " (probe should restart, then re-probe clean)";
  EXPECT_GE(ps2.fabric()->shard_restart_count(0), 1u);
  EXPECT_FALSE(ps2.fabric()->degraded());
}

TEST(ShardFaultTest, UnrestartableShardQuarantinesDegradesAndRevives) {
  const testutil::TestWorkload w = testutil::MakeWorkload(93, 300, 120);
  PS2Stream ps2(FabricOptions(2));
  ps2.Bootstrap(w.sample);
  SessionOptions so;
  so.queue_capacity = 1 << 16;
  auto session = ps2.OpenSession(so);
  ReferenceMatcher ref;
  SubscribeAll(ps2, session, w, &ref);

  ps2.fabric()->KillShard(0, /*allow_restart=*/false);

  // Degraded mode: shard-0 traffic bounces with kUnavailable, shard-1
  // traffic still delivers exactly.
  std::vector<MatchResult> expected, delivered;
  size_t bounced = 0, served = 0;
  const size_t half = w.extra_objects.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    const SpatioTextualObject& o = w.extra_objects[i];
    const Status st = ps2.Post(o);
    if (OwnerOf(ps2, /*plan_from=*/1, o) == 0) {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
      ++bounced;
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
      for (const MatchResult& m : ref.Match(o)) expected.push_back(m);
      ++served;
    }
    Drain(session, &delivered);
  }
  ASSERT_GT(bounced, 0u);
  ASSERT_GT(served, 0u);
  EXPECT_TRUE(ps2.fabric()->degraded());
  EXPECT_TRUE(ps2.fabric()->shard_quarantined(0));
  EXPECT_GE(ps2.fabric()->fault_stats().shards_quarantined, 1u);
  EXPECT_EQ(ps2.Health().code(), StatusCode::kUnavailable);

  // A subscribe overlapping the quarantined shard's cells bounces too, and
  // must roll back completely (no partial placement may ever fire).
  STSQuery wide = w.sample.inserts[0];
  wide.id = 900000;
  wide.region = Rect(-1000, -1000, 1000, 1000);
  auto sub = ps2.Subscribe(session, wide);
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kUnavailable);

  Drain(session, &delivered);
  EXPECT_EQ(testutil::Sorted(delivered), testutil::Sorted(expected));

  // Operator revive: the shard comes back from a registry resync and the
  // whole fleet serves again — including queries originally placed on it.
  const Status revived = ps2.fabric()->ReviveShard(0);
  ASSERT_TRUE(revived.ok()) << revived.ToString();
  EXPECT_FALSE(ps2.fabric()->degraded());
  EXPECT_TRUE(ps2.Health().ok());
  for (size_t i = half; i < w.extra_objects.size(); ++i) {
    const SpatioTextualObject& o = w.extra_objects[i];
    const Status st = ps2.Post(o);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (const MatchResult& m : ref.Match(o)) expected.push_back(m);
    Drain(session, &delivered);
  }
  Drain(session, &delivered);
  EXPECT_EQ(testutil::Sorted(std::move(delivered)),
            testutil::Sorted(std::move(expected)));
}

TEST(ShardFaultTest, TransientPartitionRetriesThroughAndCountsErrors) {
  const testutil::TestWorkload w = testutil::MakeWorkload(94, 200, 80);
  // Refuse every front<->shard-0 frame for the first 60 sends; the reliable
  // links must absorb the outage (restarting as needed) without quarantine.
  FaultScheduleConfig fc;
  FaultPartitionSpec part;
  part.a = kFrontEndpoint;
  part.b = 0;
  part.from_send = 0;
  part.to_send = 60;
  part.refuse = true;
  fc.partitions.push_back(part);
  FaultInjectingTransport fault(fc);

  PS2StreamOptions options = FabricOptions(2);
  options.sharding.max_restarts = 1000;  // outage outlives the retry budget
  options.sharding.transport = &fault;
  PS2Stream ps2(options);
  ps2.Bootstrap(w.sample);
  SessionOptions so;
  so.queue_capacity = 1 << 16;
  auto session = ps2.OpenSession(so);
  ReferenceMatcher ref;
  SubscribeAll(ps2, session, w, &ref);

  std::vector<MatchResult> expected, delivered;
  for (const SpatioTextualObject& o : w.extra_objects) {
    const Status st = ps2.Post(o);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (const MatchResult& m : ref.Match(o)) expected.push_back(m);
    Drain(session, &delivered);
  }
  Drain(session, &delivered);
  EXPECT_EQ(testutil::Sorted(std::move(delivered)),
            testutil::Sorted(std::move(expected)));
  EXPECT_GT(fault.counters().refused, 0u);
  // S1 regression: a false Send() return is an error the fabric counts.
  EXPECT_GT(ps2.fabric()->fault_stats().transport_errors, 0u);
  EXPECT_FALSE(ps2.fabric()->degraded());
}

TEST(ShardFaultTest, StickyWalErrorSurfacesAsDataLossSingleEngine) {
  const testutil::TestWorkload w = testutil::MakeWorkload(95, 200, 60);
  const std::string dir =
      ::testing::TempDir() + "/ps2_dataloss_single_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  PS2StreamOptions options;
  options.durability.enabled = true;
  options.durability.dir = dir;
  PS2Stream ps2(options);
  ps2.Bootstrap(w.sample);
  ASSERT_TRUE(ps2.durable());
  SessionOptions so;
  auto session = ps2.OpenSession(so);
  ASSERT_TRUE(ps2.Health().ok());

  ps2.durability()->ForceIoError();
  EXPECT_EQ(ps2.Post(w.extra_objects[0]).code(), StatusCode::kDataLoss);
  auto sub = ps2.Subscribe(session, w.sample.inserts[0]);
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ps2.Health().code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

TEST(ShardFaultTest, StickyWalErrorSurfacesAsDataLossThroughTheFabric) {
  const testutil::TestWorkload w = testutil::MakeWorkload(96, 200, 60);
  const std::string dir =
      ::testing::TempDir() + "/ps2_dataloss_fabric_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  PS2StreamOptions options = FabricOptions(2);
  options.durability.enabled = true;
  options.durability.dir = dir;
  PS2Stream ps2(options);
  ps2.Bootstrap(w.sample);
  ASSERT_TRUE(ps2.durable());
  SessionOptions so;
  auto session = ps2.OpenSession(so);

  // One shard's WAL going bad poisons the whole fleet's durability promise.
  ASSERT_NE(ps2.fabric()->shard_durability(1), nullptr);
  ps2.fabric()->shard_durability(1)->ForceIoError();
  EXPECT_EQ(ps2.Post(w.extra_objects[0]).code(), StatusCode::kDataLoss);
  auto sub = ps2.Subscribe(session, w.sample.inserts[0]);
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ps2.Health().code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

TEST(ShardFaultTest, RestartWithoutWalRefusesMutations) {
  const testutil::TestWorkload w = testutil::MakeWorkload(97, 200, 60);
  const std::string dir =
      ::testing::TempDir() + "/ps2_restart_nowal_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  PS2StreamOptions options = FabricOptions(2);
  options.durability.enabled = true;
  options.durability.dir = dir;
  PS2Stream ps2(options);
  ps2.Bootstrap(w.sample);
  ASSERT_TRUE(ps2.durable());
  SessionOptions so;
  auto session = ps2.OpenSession(so);

  // Shard 1 dies and its durable directory goes with it, so the restart
  // the next frame triggers cannot recover a WAL.
  ps2.fabric()->KillShard(1);
  std::filesystem::remove_all(ShardDirPath(dir, 1));
  size_t next = 0;
  while (ps2.fabric()->shard_restart_count(1) == 0) {
    ASSERT_LT(next, w.sample.inserts.size()) << "no frame reached shard 1";
    auto sub = ps2.Subscribe(session, w.sample.inserts[next++]);
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    sub->Release();
  }
  ASSERT_EQ(ps2.fabric()->shard_durability(1), nullptr);
  EXPECT_FALSE(ps2.durable());

  // The shard serves again but journals nothing: mutations are refused.
  auto sub = ps2.Subscribe(session, w.sample.inserts[next]);
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ps2.Post(w.extra_objects[0]).code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ps2
