#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/stopwatch.h"

namespace ps2 {
namespace {

// Bounded multi-producer multi-consumer blocking queue: the stage hop of the
// original threaded runtime, since replaced by SPSC rings
// (runtime/spsc_ring.h). It no longer ships; it lives on here as the
// reference for the blocking stream contract the rings keep — backpressure
// by blocking producers when full, Close() releasing every waiter, and
// consumers draining remaining items before observing end-of-stream.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while full. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Pops one item, blocking while empty. Returns nullopt when the queue is
  // closed *and* drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // Pops up to `max_items` at once (reduces lock traffic for hot workers).
  // Empty result means closed-and-drained.
  std::vector<T> PopBatch(size_t max_items) {
    std::vector<T> batch;
    PopBatch(max_items, &batch);
    return batch;
  }

  // Allocation-reusing variant: clears `out` (keeping its capacity) and
  // fills it with up to `max_items`. Consumer loops pass the same vector
  // every drain so the steady state stops reallocating batch storage.
  void PopBatch(size_t max_items, std::vector<T>* out) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    while (!items_.empty() && out->size() < max_items) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (!out->empty()) not_full_.notify_all();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};


TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) q.Push(i);
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, CloseReleasesConsumers) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, DrainsBeforeEndOfStream) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, PushAfterCloseFails) {
  BoundedQueue<int> q(4);
  q.Close();
  EXPECT_FALSE(q.Push(1));
}

TEST(BoundedQueueTest, PopBatchRespectsLimit) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) q.Push(i);
  auto batch = q.PopBatch(4);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0], 0);
  batch = q.PopBatch(100);
  EXPECT_EQ(batch.size(), 6u);
}

TEST(BoundedQueueTest, BackpressureBlocksProducer) {
  BoundedQueue<int> q(2);
  q.Push(1);
  q.Push(2);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(3);  // blocks until a consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueueTest, CloseReleasesBlockedProducer) {
  BoundedQueue<int> q(1);
  q.Push(1);
  std::atomic<bool> returned{false};
  std::atomic<bool> result{true};
  std::thread producer([&] {
    result = q.Push(2);  // blocks: queue is full
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(result.load());  // Push on a closed queue reports failure
}

TEST(BoundedQueueTest, PopBatchDrainsAfterClose) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 6; ++i) q.Push(i);
  q.Close();
  auto b1 = q.PopBatch(4);
  ASSERT_EQ(b1.size(), 4u);
  EXPECT_EQ(b1.front(), 0);
  auto b2 = q.PopBatch(4);
  ASSERT_EQ(b2.size(), 2u);
  EXPECT_EQ(b2.back(), 5);
  EXPECT_TRUE(q.PopBatch(4).empty());  // closed and drained
}

TEST(BoundedQueueTest, CloseReleasesBlockedBatchConsumer) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] {
    auto batch = q.PopBatch(8);  // blocks: queue is empty
    EXPECT_TRUE(batch.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, ConcurrentProducersConsumersDeliverAll) {
  BoundedQueue<int> q(64);
  constexpr int kProducers = 4, kPerProducer = 2000, kConsumers = 3;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Push(p * kPerProducer + i);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum += *v;
        ++count;
      }
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  const int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
}

TEST(StopwatchTest, MonotoneAndPositive) {
  Stopwatch sw;
  const int64_t a = sw.ElapsedNanos();
  const int64_t b = sw.ElapsedNanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

TEST(StopwatchTest, NowMicrosMonotone) {
  const int64_t a = NowMicros();
  const int64_t b = NowMicros();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace ps2
