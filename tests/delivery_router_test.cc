#include "api/delivery_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "api/subscriber_session.h"

namespace ps2 {
namespace {

using std::chrono::milliseconds;

Delivery MakeDelivery(QueryId q, ObjectId o) {
  Delivery d;
  d.query_id = q;
  d.object_id = o;
  d.publish_us = 1;
  return d;
}

TEST(DeliveryRouterTest, RoutesUnroutesAndCountsUnrouted) {
  DeliveryRouter router;
  auto session = std::make_shared<SubscriberSession>();
  router.RegisterSession(session);
  router.Route(42, session);
  EXPECT_EQ(router.Lookup(42), session);
  EXPECT_EQ(router.Lookup(43), nullptr);

  MatchResult m;
  m.query_id = 42;
  m.object_id = 7;
  router.Deliver(m, /*publish_us=*/5);
  EXPECT_EQ(session->pending(), 1u);
  m.query_id = 43;
  router.Deliver(m, /*publish_us=*/5);
  EXPECT_EQ(router.unrouted(), 1u);

  router.Unroute(42);
  EXPECT_EQ(router.Lookup(42), nullptr);
  m.query_id = 42;
  router.Deliver(m, /*publish_us=*/5);
  EXPECT_EQ(router.unrouted(), 2u);
  EXPECT_EQ(session->pending(), 1u);

  const SessionStats stats = router.AggregateStats();
  EXPECT_EQ(stats.delivered, 1u);
}

TEST(DeliveryRouterTest, RerouteReplacesAndUnrouteOfUnknownIdIsNoOp) {
  DeliveryRouter router;
  auto a = std::make_shared<SubscriberSession>();
  auto b = std::make_shared<SubscriberSession>();
  router.Route(1, a);
  router.Route(1, b);
  EXPECT_EQ(router.Lookup(1), b);
  EXPECT_EQ(a.use_count(), 1);  // the router let go of the replaced route
  router.Route(1, nullptr);     // a null session unroutes
  EXPECT_EQ(router.Lookup(1), nullptr);
  EXPECT_EQ(b.use_count(), 1);

  router.Unroute(99);  // never routed
  router.Unroute(1);   // already unrouted
  EXPECT_EQ(router.Lookup(99), nullptr);
  EXPECT_EQ(router.unrouted(), 0u);
}

TEST(DeliveryRouterTest, BatchGroupsRunsPerSessionInOrder) {
  DeliveryRouter router;
  auto a = std::make_shared<SubscriberSession>();
  auto b = std::make_shared<SubscriberSession>();
  router.Route(1, a);
  router.Route(2, b);
  router.Route(4, a);
  // 3 is unrouted; runs: [1 1 4] -> a, [2 2] -> b, [3] unrouted, [1] -> a.
  const std::vector<Delivery> batch = {
      MakeDelivery(1, 10), MakeDelivery(1, 11), MakeDelivery(4, 12),
      MakeDelivery(2, 13), MakeDelivery(2, 14), MakeDelivery(3, 15),
      MakeDelivery(1, 16)};
  router.DeliverBatch(batch.data(), batch.size());

  std::vector<ObjectId> got_a, got_b;
  Delivery d;
  while (a->Poll(&d)) got_a.push_back(d.object_id);
  while (b->Poll(&d)) got_b.push_back(d.object_id);
  EXPECT_EQ(got_a, (std::vector<ObjectId>{10, 11, 12, 16}));
  EXPECT_EQ(got_b, (std::vector<ObjectId>{13, 14}));
  EXPECT_EQ(router.unrouted(), 1u);
  router.DeliverBatch(batch.data(), 0);
  EXPECT_EQ(router.unrouted(), 1u);
}

TEST(DeliveryRouterTest, RouterOwnsSessionUntilLastUnroute) {
  DeliveryRouter router;
  auto session = std::make_shared<SubscriberSession>();
  router.RegisterSession(session);
  const std::weak_ptr<SubscriberSession> watch = session;
  router.Route(1, session);
  router.Route(2, session);
  session.reset();  // the application drops its handle

  ASSERT_FALSE(watch.expired());
  const Delivery d = MakeDelivery(2, 7);
  router.DeliverBatch(&d, 1);
  EXPECT_EQ(watch.lock()->pending(), 1u);

  router.Unroute(1);
  EXPECT_FALSE(watch.expired());  // still routed through query 2
  router.Unroute(2);
  EXPECT_TRUE(watch.expired());
  // The destroyed session's counters survive in the aggregate.
  EXPECT_EQ(router.AggregateStats().delivered, 1u);
  EXPECT_EQ(router.unrouted(), 0u);
}

TEST(DeliveryRouterTest, ParkedSessionDoesNotBlockRouteChanges) {
  // A kBlock session with a full queue parks the delivering thread. The
  // router must not hold a shard lock across that enqueue, or subscribe and
  // cancel for every query in the shard would wait for the consumer.
  DeliveryRouter router;
  auto session = std::make_shared<SubscriberSession>(
      SessionOptions{/*queue_capacity=*/1, BackpressurePolicy::kBlock});
  router.Route(5, session);
  const std::vector<Delivery> batch = {MakeDelivery(5, 1),
                                       MakeDelivery(5, 2)};
  std::thread deliverer(
      [&] { router.DeliverBatch(batch.data(), batch.size()); });
  while (session->pending() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(milliseconds(20));  // let it park on object 2

  router.Route(5, std::make_shared<SubscriberSession>());
  router.Unroute(5);
  router.Route(6, session);
  EXPECT_EQ(router.Lookup(6), session);

  Delivery d;
  ASSERT_TRUE(session->Poll(&d));  // frees the slot; the deliverer finishes
  deliverer.join();
  ASSERT_TRUE(session->Poll(&d));
  EXPECT_EQ(d.object_id, 2u);
}

TEST(DeliveryRouterTest, ConcurrentRouteAndDeliver) {
  // One writer routes while a delivering thread looks up; TSan (CI)
  // verifies the absence of data races, this test the absence of lost
  // routes.
  DeliveryRouter router;
  auto session = std::make_shared<SubscriberSession>(
      SessionOptions{/*queue_capacity=*/1 << 20,
                     BackpressurePolicy::kBlock});
  router.RegisterSession(session);
  constexpr QueryId kQueries = 512;
  std::thread writer([&] {
    for (QueryId q = 1; q <= kQueries; ++q) router.Route(q, session);
  });
  std::atomic<uint64_t> delivered{0};
  std::thread deliverer([&] {
    MatchResult m;
    m.object_id = 1;
    for (int round = 0; round < 64; ++round) {
      for (QueryId q = 1; q <= kQueries; ++q) {
        m.query_id = q;
        router.Deliver(m, 1);
        ++delivered;
      }
    }
  });
  writer.join();
  deliverer.join();
  // Every delivery either reached the session or was counted unrouted.
  EXPECT_EQ(session->stats().delivered + router.unrouted(),
            delivered.load());
  // After the writer finished, every id resolves.
  for (QueryId q = 1; q <= kQueries; ++q) {
    EXPECT_NE(router.Lookup(q), nullptr);
  }
}

// Query classes for the churn test: runs of 8 consecutive ids share one.
constexpr QueryId kClasses = 3;
QueryId ClassOf(QueryId q) { return (q / 8) % kClasses; }

// Counts deliveries pushed to a session of class `cls` whose query belongs
// to another class, i.e. deliveries to a session that was never their route.
class ClassSink : public MatchSink {
 public:
  explicit ClassSink(QueryId cls) : cls_(cls) {}
  void OnMatch(const Delivery& d) override {
    if (ClassOf(d.query_id) != cls_) misrouted.fetch_add(1);
  }
  std::atomic<uint64_t> misrouted{0};

 private:
  const QueryId cls_;
};

TEST(DeliveryRouterTest, ChurnUnderConcurrentBatchesLosesNothing) {
  // Every batch covers all ids, so it has multi-delivery runs per session. The
  // writer keeps opening a new session per class, rerouting the class's
  // queries to it (and unrouting some), and drops its handles, so sessions
  // die while deliverers may still hold them. A query is only ever routed
  // to sessions of its class, so every delivery must reach a sink of its
  // own class or be counted unrouted.
  constexpr QueryId kQueries = 240;
  constexpr int kGenerations = 150;
  constexpr int kDeliverers = 3;

  // Sinks outlive the router, which holds the last sessions.
  std::vector<std::unique_ptr<ClassSink>> sinks;
  for (QueryId c = 0; c < kClasses; ++c) {
    sinks.push_back(std::make_unique<ClassSink>(c));
  }
  DeliveryRouter router;
  std::vector<Delivery> batch;
  for (QueryId q = 1; q <= kQueries; ++q) batch.push_back(MakeDelivery(q, q));

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    std::mt19937 rng(7);
    for (int g = 0; g < kGenerations; ++g) {
      for (QueryId c = 0; c < kClasses; ++c) {
        auto session = std::make_shared<SubscriberSession>();
        router.RegisterSession(session);
        EXPECT_TRUE(session->SetSink(sinks[c].get()).ok());
        for (QueryId q = 1; q <= kQueries; ++q) {
          if (ClassOf(q) != c) continue;
          if (rng() % 4 == 0) {
            router.Unroute(q);
          } else {
            router.Route(q, session);
          }
        }
      }
    }
    writer_done.store(true);
  });
  std::atomic<uint64_t> offered{0};
  std::vector<std::thread> deliverers;
  for (int t = 0; t < kDeliverers; ++t) {
    deliverers.emplace_back([&] {
      // At least a few batches after the writer finished, against a
      // settled table.
      int after = 0;
      while (after < 4) {
        if (writer_done.load()) ++after;
        router.DeliverBatch(batch.data(), batch.size());
        offered.fetch_add(batch.size());
      }
    });
  }
  writer.join();
  for (auto& t : deliverers) t.join();

  uint64_t misrouted = 0;
  for (const auto& s : sinks) misrouted += s->misrouted.load();
  EXPECT_EQ(misrouted, 0u);
  const SessionStats stats = router.AggregateStats();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.delivered + router.unrouted(), offered.load());
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_GT(router.unrouted(), 0u);
}

}  // namespace
}  // namespace ps2
