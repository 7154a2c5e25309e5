#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "api/status.h"
#include "api/subscriber_session.h"
#include "api/subscription.h"
#include "runtime/ps2stream.h"
#include "test_util.h"

namespace ps2 {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  const Status s = Status::InvalidArgument("bad expression");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad expression");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad expression");
}

TEST(StatusTest, StatusOrHoldsValueOrError) {
  StatusOr<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  StatusOr<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  // Constructing from an Ok status (a caller bug) degrades to kInternal
  // instead of a half-ok object.
  StatusOr<int> confused = Status::Ok();
  EXPECT_FALSE(confused.ok());
  EXPECT_EQ(confused.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// SubscriberSession: queueing and backpressure policies
// ---------------------------------------------------------------------------

Delivery MakeDelivery(QueryId q, ObjectId o) {
  Delivery d;
  d.query_id = q;
  d.object_id = o;
  d.publish_us = 1;
  return d;
}

TEST(SubscriberSessionTest, PollAndTake) {
  SubscriberSession session({/*queue_capacity=*/4,
                             BackpressurePolicy::kBlock});
  Delivery d;
  EXPECT_FALSE(session.Poll(&d));
  EXPECT_EQ(session.Take(&d, milliseconds(1)).code(),
            StatusCode::kDeadlineExceeded);

  EXPECT_TRUE(session.Enqueue(MakeDelivery(7, 100)));
  EXPECT_TRUE(session.Enqueue(MakeDelivery(8, 101)));
  EXPECT_EQ(session.pending(), 2u);
  ASSERT_TRUE(session.Poll(&d));
  EXPECT_EQ(d.query_id, 7u);
  EXPECT_GT(d.deliver_us, 0);  // stamped at enqueue
  ASSERT_TRUE(session.Take(&d, milliseconds(100)).ok());
  EXPECT_EQ(d.query_id, 8u);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.latency.count(), 2u);

  session.Close();
  EXPECT_EQ(session.Take(&d, milliseconds(1)).code(),
            StatusCode::kUnavailable);
}

TEST(SubscriberSessionTest, DropOldestKeepsFreshest) {
  SubscriberSession session({/*queue_capacity=*/2,
                             BackpressurePolicy::kDropOldest});
  for (ObjectId o = 1; o <= 5; ++o) {
    EXPECT_TRUE(session.Enqueue(MakeDelivery(1, o)));
  }
  Delivery d;
  ASSERT_TRUE(session.Poll(&d));
  EXPECT_EQ(d.object_id, 4u);
  ASSERT_TRUE(session.Poll(&d));
  EXPECT_EQ(d.object_id, 5u);
  EXPECT_FALSE(session.Poll(&d));
  EXPECT_EQ(session.stats().delivered, 5u);
  EXPECT_EQ(session.stats().dropped, 3u);
}

TEST(SubscriberSessionTest, DropNewestKeepsBacklog) {
  SubscriberSession session({/*queue_capacity=*/2,
                             BackpressurePolicy::kDropNewest});
  EXPECT_TRUE(session.Enqueue(MakeDelivery(1, 1)));
  EXPECT_TRUE(session.Enqueue(MakeDelivery(1, 2)));
  EXPECT_FALSE(session.Enqueue(MakeDelivery(1, 3)));  // dropped
  Delivery d;
  ASSERT_TRUE(session.Poll(&d));
  EXPECT_EQ(d.object_id, 1u);
  ASSERT_TRUE(session.Poll(&d));
  EXPECT_EQ(d.object_id, 2u);
  EXPECT_EQ(session.stats().dropped, 1u);
}

TEST(SubscriberSessionTest, BlockWaitsForConsumerAndHonorsClose) {
  SubscriberSession session({/*queue_capacity=*/1,
                             BackpressurePolicy::kBlock});
  EXPECT_TRUE(session.Enqueue(MakeDelivery(1, 1)));
  std::atomic<bool> second_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(session.Enqueue(MakeDelivery(1, 2)));  // blocks: queue full
    second_done.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(second_done.load());  // still blocked
  Delivery d;
  ASSERT_TRUE(session.Poll(&d));  // frees a slot
  producer.join();
  EXPECT_TRUE(second_done.load());
  ASSERT_TRUE(session.Poll(&d));
  EXPECT_EQ(d.object_id, 2u);

  // A producer blocked on a full queue must be released by Close(), with
  // the delivery counted as dropped.
  EXPECT_TRUE(session.Enqueue(MakeDelivery(1, 3)));
  std::thread blocked([&] {
    EXPECT_FALSE(session.Enqueue(MakeDelivery(1, 4)));
  });
  std::this_thread::sleep_for(milliseconds(20));
  session.Close();
  blocked.join();
  EXPECT_EQ(session.stats().dropped, 1u);
}

TEST(SubscriberSessionTest, DrainingDegradesBlockToDrop) {
  SubscriberSession session({/*queue_capacity=*/1,
                             BackpressurePolicy::kBlock});
  EXPECT_TRUE(session.Enqueue(MakeDelivery(1, 1)));
  session.SetDraining(true);
  // Would block forever without draining; must return (dropped) instead.
  EXPECT_FALSE(session.Enqueue(MakeDelivery(1, 2)));
  session.SetDraining(false);
  EXPECT_EQ(session.stats().dropped, 1u);
  // The queued delivery is still consumable.
  Delivery d;
  EXPECT_TRUE(session.Poll(&d));
}

TEST(SubscriberSessionTest, SinkFlushesBacklogThenReceivesLive) {
  struct Recorder : MatchSink {
    std::vector<ObjectId> seen;
    void OnMatch(const Delivery& d) override { seen.push_back(d.object_id); }
  } sink;
  SubscriberSession session({/*queue_capacity=*/8,
                             BackpressurePolicy::kBlock});
  session.Enqueue(MakeDelivery(1, 1));
  session.Enqueue(MakeDelivery(1, 2));
  ASSERT_TRUE(session.SetSink(&sink).ok());
  EXPECT_EQ(session.pending(), 0u);  // backlog flushed in order
  session.Enqueue(MakeDelivery(1, 3));
  ASSERT_EQ(sink.seen.size(), 3u);
  EXPECT_EQ(sink.seen[0], 1u);
  EXPECT_EQ(sink.seen[1], 2u);
  EXPECT_EQ(sink.seen[2], 3u);
  // Pull is rejected in push mode.
  Delivery d;
  EXPECT_EQ(session.Take(&d, milliseconds(1)).code(),
            StatusCode::kFailedPrecondition);
  // Removing the sink restores pull mode.
  ASSERT_TRUE(session.SetSink(nullptr).ok());
  session.Enqueue(MakeDelivery(1, 4));
  EXPECT_TRUE(session.Poll(&d));
  EXPECT_EQ(d.object_id, 4u);
}

// ---------------------------------------------------------------------------
// Facade: Status-based Subscribe / Post and the RAII Subscription handle
// ---------------------------------------------------------------------------

TEST(PS2StreamApiTest, SubscribeReportsParseErrorsAsStatus) {
  PS2Stream ps2;
  // Before Bootstrap: precondition failure, not a crash.
  EXPECT_EQ(ps2.Subscribe(nullptr, "pizza", Rect(0, 0, 1, 1)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ps2.Post(Point{0, 0}, "hi").code(),
            StatusCode::kFailedPrecondition);

  ps2.Bootstrap(WorkloadSample{});
  const auto bad = ps2.Subscribe(nullptr, "AND AND", Rect(0, 0, 1, 1));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The parser's message (not a bare sentinel) reaches the caller.
  EXPECT_NE(bad.status().message().find("expected keyword"),
            std::string::npos);
  EXPECT_EQ(ps2.num_subscriptions(), 0u);

  const auto unbalanced = ps2.Subscribe(nullptr, "(a OR b", Rect(0, 0, 1, 1));
  ASSERT_FALSE(unbalanced.ok());
  EXPECT_NE(unbalanced.status().message().find("expected ')'"),
            std::string::npos);
}

TEST(PS2StreamApiTest, SubscriptionHandleUnsubscribesOnDestruction) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  auto session = ps2.OpenSession();
  {
    auto sub = ps2.Subscribe(session, "fire", Rect(0, 0, 1, 1));
    ASSERT_TRUE(sub.ok());
    EXPECT_TRUE(sub->active());
    EXPECT_EQ(ps2.num_subscriptions(), 1u);
    ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "fire nearby").ok());
    Delivery d;
    ASSERT_TRUE(session->Poll(&d));
    EXPECT_EQ(d.query_id, sub->id());
  }  // ~Subscription
  EXPECT_EQ(ps2.num_subscriptions(), 0u);
  ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "fire again").ok());
  Delivery d;
  EXPECT_FALSE(session->Poll(&d));
}

TEST(PS2StreamApiTest, SubscriptionMoveAndReleaseAndCancel) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  auto sub = ps2.Subscribe(nullptr, "smoke", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());
  const QueryId id = sub->id();

  Subscription moved = std::move(*sub);
  EXPECT_EQ(moved.id(), id);
  EXPECT_TRUE(moved.active());

  // Release detaches: destruction must not unsubscribe.
  EXPECT_EQ(moved.Release(), id);
  EXPECT_FALSE(moved.active());
  moved.Cancel();  // no-op
  EXPECT_EQ(ps2.num_subscriptions(), 1u);

  // Explicit cancel by id.
  EXPECT_TRUE(ps2.Cancel(id).ok());
  EXPECT_EQ(ps2.Cancel(id).code(), StatusCode::kNotFound);
  EXPECT_EQ(ps2.num_subscriptions(), 0u);
}

TEST(PS2StreamApiTest, SubscriptionOutlivingFacadeIsANoOp) {
  Subscription orphan;
  {
    PS2Stream ps2;
    ps2.Bootstrap(WorkloadSample{});
    auto sub = ps2.Subscribe(nullptr, "late", Rect(0, 0, 1, 1));
    ASSERT_TRUE(sub.ok());
    orphan = std::move(*sub);
    EXPECT_TRUE(orphan.active());
  }  // facade destroyed first
  EXPECT_FALSE(orphan.active());
  orphan.Cancel();  // must not touch the dead facade
}

TEST(PS2StreamApiTest, DuplicateQueryIdRejected) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  STSQuery q;
  q.id = 9;
  q.expr = BoolExpr::And({ps2.vocabulary().Intern("x")});
  q.region = Rect(0, 0, 1, 1);
  auto first = ps2.Subscribe(nullptr, q);
  ASSERT_TRUE(first.ok());
  auto second = ps2.Subscribe(nullptr, q);
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  first->Release();  // keep q subscribed past this scope (exercises Release)
}

// Satellite: malformed subscription specs surface as kInvalidArgument with a
// field-positional message — they are rejected, never silently clamped into
// a "nearby" valid spec.
TEST(PS2StreamApiTest, MalformedSpecsRejectedWithPositionalMessages) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  const Rect region(0, 0, 1, 1);

  // tau outside (0, 1] — both ends.
  for (const double tau : {0.0, -0.25, 1.5}) {
    const auto bad =
        ps2.Subscribe(nullptr, SubscriptionSpec::Similarity({"a"}, tau, region));
    ASSERT_FALSE(bad.ok()) << "tau=" << tau;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bad.status().message().find("spec.tau"), std::string::npos)
        << bad.status().message();
    EXPECT_NE(bad.status().message().find("(0, 1]"), std::string::npos);
  }

  // k == 0.
  const auto zero_k =
      ps2.Subscribe(nullptr, SubscriptionSpec::TopK({"a"}, 0, region));
  ASSERT_FALSE(zero_k.ok());
  EXPECT_EQ(zero_k.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zero_k.status().message().find("spec.k"), std::string::npos);

  // Empty term set, and an empty term at a known position.
  const auto no_terms =
      ps2.Subscribe(nullptr, SubscriptionSpec::Similarity({}, 0.5, region));
  ASSERT_FALSE(no_terms.ok());
  EXPECT_EQ(no_terms.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_terms.status().message().find("spec.terms"), std::string::npos);

  const auto empty_term = ps2.Subscribe(
      nullptr, SubscriptionSpec::TopK({"a", "", "b"}, 3, region));
  ASSERT_FALSE(empty_term.ok());
  EXPECT_EQ(empty_term.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty_term.status().message().find("spec.terms[1]"),
            std::string::npos)
      << empty_term.status().message();

  // Nothing leaked into the registry.
  EXPECT_EQ(ps2.num_subscriptions(), 0u);

  // The raw-STSQuery overload gets the same validation (no clamping there
  // either): a top-k query with k = 0 bounces.
  STSQuery q;
  q.id = 0;
  q.cls = SubscriptionClass::kTopK;
  q.expr = BoolExpr::Or({ps2.vocabulary().Intern("x")});
  q.k = 0;
  q.region = region;
  const auto raw = ps2.Subscribe(nullptr, q);
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kInvalidArgument);
}

TEST(PS2StreamApiTest, UpdateSubscriptionValidatesTarget) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  EXPECT_EQ(ps2.UpdateSubscription(42, Rect(0, 0, 1, 1)).code(),
            StatusCode::kNotFound);
  auto sub = ps2.Subscribe(nullptr, "move", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(ps2.UpdateSubscription(sub->id(), Rect(2, 2, 3, 3)).ok());
  EXPECT_EQ(ps2.subscriptions().at(sub->id()).region.min_x, 2.0);
}

// Satellite bugfix: RunReport::session_drops (and session_deliveries) must
// equal the sum of every session's counters across the whole run — including
// sessions destroyed before Stop() and deliveries that arrive after Close().
// The router's registry holds sessions weakly, so pre-fix a session that
// died mid-run silently vanished from the aggregate.
TEST(PS2StreamApiTest, SessionDropAccountingSurvivesSessionDestruction) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  // Vocabulary interning is control-plane-only once the engine runs; seed
  // every term this test posts so Post never grows the vocab mid-run.
  for (const char* t : {"fire", "nearby", "flood", "warning"}) {
    ps2.vocabulary().Intern(t);
  }
  ps2.Start();

  SessionOptions tiny;
  tiny.queue_capacity = 1;
  tiny.backpressure = BackpressurePolicy::kDropNewest;

  // Session A: overflow its queue, then destroy it mid-run.
  SessionStats a_stats;
  {
    auto a = ps2.OpenSession(tiny);
    auto sub = ps2.Subscribe(a, "fire", Rect(0, 0, 1, 1));
    ASSERT_TRUE(sub.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "fire nearby").ok());
    }
    ps2.engine()->Quiesce();  // every post has reached the session
    a_stats = a->stats();
    EXPECT_EQ(a_stats.delivered, 1u);  // capacity 1, never drained
    EXPECT_EQ(a_stats.dropped, 4u);
    ASSERT_TRUE(ps2.Cancel(sub->Release()).ok());
  }  // ~SubscriberSession: A's counters fold into the retired accumulator

  // Session B: overflow, Close(), then keep publishing — deliveries after
  // Close() count as dropped — and destroy it too before Stop().
  SessionStats b_stats;
  {
    auto b = ps2.OpenSession(tiny);
    auto sub = ps2.Subscribe(b, "flood", Rect(0, 0, 1, 1));
    ASSERT_TRUE(sub.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "flood warning").ok());
    }
    ps2.engine()->Quiesce();
    b->Close();
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "flood warning").ok());
    }
    ps2.engine()->Quiesce();
    b_stats = b->stats();
    EXPECT_EQ(b_stats.delivered, 1u);
    EXPECT_EQ(b_stats.dropped, 4u);  // 2 overflow + 2 after Close
    ASSERT_TRUE(ps2.Cancel(sub->Release()).ok());
  }

  const RunReport report = ps2.Stop();
  EXPECT_EQ(report.session_deliveries, a_stats.delivered + b_stats.delivered);
  EXPECT_EQ(report.session_drops, a_stats.dropped + b_stats.dropped);
}

TEST(PS2StreamApiTest, KilledServiceReportsUnavailable) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  auto sub = ps2.Subscribe(nullptr, "alive", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());
  ps2.Kill();
  EXPECT_EQ(ps2.Subscribe(nullptr, "dead", Rect(0, 0, 1, 1)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(ps2.Post(Point{0, 0}, "dead").code(), StatusCode::kUnavailable);
  sub->Cancel();  // safe no-op against a killed service
}

}  // namespace
}  // namespace ps2
