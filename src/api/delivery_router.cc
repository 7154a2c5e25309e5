#include "api/delivery_router.h"

#include <algorithm>

namespace ps2 {

void DeliveryRouter::Route(QueryId id,
                           std::shared_ptr<SubscriberSession> session) {
  if (session == nullptr) {
    Unroute(id);
    return;
  }
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  // `session` takes the replaced route, released after the lock.
  s.map[id].swap(session);
}

void DeliveryRouter::Unroute(QueryId id) {
  std::shared_ptr<SubscriberSession> dropped;  // released after the lock
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(id);
  if (it == s.map.end()) return;
  dropped = std::move(it->second);
  s.map.erase(it);
}

void DeliveryRouter::RegisterSession(
    const std::shared_ptr<SubscriberSession>& session) {
  // A session destroyed before Stop() must not lose its delivered/dropped
  // counters: wire it to the shared retired-stats accumulator its
  // destructor folds into.
  session->AttachRetiredStats(retired_);
  if (shedding_.load(std::memory_order_relaxed)) session->SetShedding(true);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  // Compact expired registrations opportunistically so a long-lived service
  // opening many short-lived sessions stays bounded.
  sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                 [](const std::weak_ptr<SubscriberSession>& w) {
                                   return w.expired();
                                 }),
                  sessions_.end());
  sessions_.push_back(session);
}

void DeliveryRouter::SetDraining(bool draining) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& w : sessions_) {
    if (auto s = w.lock()) s->SetDraining(draining);
  }
}

void DeliveryRouter::SetShedding(bool shedding) {
  shedding_.store(shedding, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& w : sessions_) {
    if (auto s = w.lock()) s->SetShedding(shedding);
  }
}

std::shared_ptr<SubscriberSession> DeliveryRouter::Lookup(QueryId id) const {
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(id);
  return it != s.map.end() ? it->second : nullptr;
}

void DeliveryRouter::Enqueue(const Delivery& d) {
  const auto session = Lookup(d.query_id);
  if (session == nullptr) {
    unrouted_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  session->Enqueue(d);
}

void DeliveryRouter::DeliverAdmitted(const Delivery& admitted) {
  Enqueue(admitted);
}

void DeliveryRouter::Deliver(const MatchResult& m, int64_t publish_us) {
  Delivery d;
  d.query_id = m.query_id;
  d.object_id = m.object_id;
  d.publish_us = publish_us;
  d.score = m.score;
  d.expire_us = m.expire_us;
  if (topk_ != nullptr && topk_->active() && topk_->Owns(d.query_id)) {
    if (!topk_->Offer(d)) {
      topk_buffered_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  Enqueue(d);
}

void DeliveryRouter::DeliverBatch(const Delivery* pending, size_t n) {
  if (topk_ != nullptr && topk_->active()) {
    // Top-k admission is per delivery; the run-grouping below would reorder
    // admissions around buffered candidates, so take the simple path while
    // any top-k subscription is live.
    for (size_t i = 0; i < n; ++i) {
      if (topk_->Owns(pending[i].query_id)) {
        if (topk_->Offer(pending[i])) {
          Enqueue(pending[i]);
        } else {
          topk_buffered_.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        Enqueue(pending[i]);
      }
    }
    return;
  }
  // Group contiguous runs bound for the same session: matches arrive
  // cell-clustered, so neighbours usually share a session, and a run
  // enqueues under a single session lock. Each delivery is resolved once;
  // `run` pins the current run's session, so comparing raw pointers under
  // the shard lock is safe, and only a run boundary copies a shared_ptr.
  std::shared_ptr<SubscriberSession> run;  // routed session of [begin, i)
  size_t begin = 0;
  for (size_t i = 0; i <= n; ++i) {
    std::shared_ptr<SubscriberSession> next;
    if (i < n) {
      Shard& s = ShardFor(pending[i].query_id);
      std::lock_guard<std::mutex> lock(s.mu);
      const auto it = s.map.find(pending[i].query_id);
      SubscriberSession* const found =
          it != s.map.end() ? it->second.get() : nullptr;
      if (i > begin && found == run.get()) continue;
      if (found != nullptr) next = it->second;
    }
    if (run != nullptr) {
      run->EnqueueBatch(pending + begin, i - begin);
    } else if (i > begin) {
      unrouted_.fetch_add(i - begin, std::memory_order_relaxed);
    }
    run = std::move(next);
    begin = i;
  }
}

SessionStats DeliveryRouter::AggregateStats() const {
  SessionStats total = retired_->Snapshot();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& w : sessions_) {
    if (const auto s = w.lock()) total.Merge(s->stats());
  }
  return total;
}

void DeliveryRouter::QueueDepth(uint64_t* pending, uint64_t* capacity) const {
  uint64_t p = 0, c = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& w : sessions_) {
      if (const auto s = w.lock()) {
        p += s->pending();
        c += s->options().queue_capacity;
      }
    }
  }
  *pending = p;
  *capacity = c;
}

}  // namespace ps2
