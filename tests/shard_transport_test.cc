#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "shard/transport.h"

namespace ps2 {
namespace {

TEST(ShardTransportTest, UnknownAndOutOfRangeEndpointsAreRefused) {
  LoopbackTransport t;
  int calls = 0;
  t.RegisterEndpoint(0, [&](ShardId, const std::string&) { ++calls; });
  EXPECT_FALSE(t.Send(kFrontEndpoint, 1, "x")) << "never registered";
  EXPECT_FALSE(t.Send(0, kFrontEndpoint, "x")) << "front not registered";
  for (const ShardId bad : {ShardId{-2}, ShardId{64}, ShardId{INT32_MAX},
                            ShardId{INT32_MIN}}) {
    EXPECT_FALSE(t.Send(kFrontEndpoint, bad, "x")) << "endpoint " << bad;
    // Registering out of range is ignored rather than writing past the
    // table.
    t.RegisterEndpoint(bad, [&](ShardId, const std::string&) { ++calls; });
    EXPECT_FALSE(t.Send(kFrontEndpoint, bad, "x")) << "endpoint " << bad;
  }
  EXPECT_EQ(calls, 0);

  EXPECT_TRUE(t.Send(kFrontEndpoint, 0, "x"));
  EXPECT_EQ(calls, 1);
  // The table's extremes: the front and the last shard slot.
  t.RegisterEndpoint(kFrontEndpoint,
                     [&](ShardId, const std::string&) { calls += 10; });
  t.RegisterEndpoint(63, [&](ShardId, const std::string&) { calls += 100; });
  EXPECT_TRUE(t.Send(0, kFrontEndpoint, "x"));
  EXPECT_TRUE(t.Send(kFrontEndpoint, 63, "x"));
  EXPECT_EQ(calls, 111);
}

TEST(ShardTransportTest, HandlersSeeSenderAndFrameAndMaySendThemselves) {
  LoopbackTransport t;
  std::vector<std::string> front_got;
  t.RegisterEndpoint(kFrontEndpoint,
                     [&](ShardId from, const std::string& frame) {
                       front_got.push_back(std::to_string(from) + ":" + frame);
                     });
  // A shard answering inline (an ack) re-enters Send from its handler.
  t.RegisterEndpoint(3, [&](ShardId from, const std::string& frame) {
    EXPECT_EQ(from, kFrontEndpoint);
    EXPECT_TRUE(t.Send(3, kFrontEndpoint, "ack-" + frame));
  });
  EXPECT_TRUE(t.Send(kFrontEndpoint, 3, "f1"));
  ASSERT_EQ(front_got.size(), 1u);
  EXPECT_EQ(front_got[0], "3:ack-f1");

  // Re-registering replaces the handler for later sends.
  int replaced = 0;
  t.RegisterEndpoint(3, [&](ShardId, const std::string&) { ++replaced; });
  EXPECT_TRUE(t.Send(kFrontEndpoint, 3, "f2"));
  EXPECT_EQ(replaced, 1);
  EXPECT_EQ(front_got.size(), 1u);
}

// Concurrent senders (the shards' worker threads shipping match frames to
// the front) share the lock-free send path: every frame arrives exactly
// once at the endpoint it was addressed to.
TEST(ShardTransportTest, ConcurrentSendersDeliverEveryFrameExactlyOnce) {
  constexpr int kThreads = 4;
  constexpr int kFramesPerThread = 5000;
  constexpr int kFrames = kThreads * kFramesPerThread;
  LoopbackTransport t;
  std::vector<std::atomic<int>> seen(kFrames);
  std::atomic<int> at_front{0}, at_shard{0};
  auto record = [&](std::atomic<int>* count) {
    return [&seen, count](ShardId, const std::string& frame) {
      seen[std::stoi(frame)].fetch_add(1, std::memory_order_relaxed);
      count->fetch_add(1, std::memory_order_relaxed);
    };
  };
  t.RegisterEndpoint(kFrontEndpoint, record(&at_front));
  t.RegisterEndpoint(0, record(&at_shard));

  std::vector<std::thread> senders;
  for (int i = 0; i < kThreads; ++i) {
    senders.emplace_back([&t, i] {
      for (int j = 0; j < kFramesPerThread; ++j) {
        const int id = i * kFramesPerThread + j;
        // Even frames to the front, odd ones to shard 0.
        EXPECT_TRUE(t.Send(i, id % 2 == 0 ? kFrontEndpoint : 0,
                           std::to_string(id)));
      }
    });
  }
  for (std::thread& s : senders) s.join();

  EXPECT_EQ(at_front.load(), kFrames / 2);
  EXPECT_EQ(at_shard.load(), kFrames / 2);
  for (int id = 0; id < kFrames; ++id) {
    ASSERT_EQ(seen[id].load(), 1) << "frame " << id;
  }
}

}  // namespace
}  // namespace ps2
