#ifndef PS2_SHARD_RELIABLE_H_
#define PS2_SHARD_RELIABLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "shard/wire.h"

namespace ps2 {

// Retransmission schedule of one reliable link. The first send is free; a
// frame unacked after base_backoff_us is resent, doubling the wait each
// attempt (capped at max_backoff_us) with +/-jitter applied so a fleet of
// links never retries in lockstep. A frame still unacked after max_attempts
// sends marks the link exhausted — the fabric's signal that the peer is
// down, handed to the ShardSupervisor.
struct RetryPolicy {
  int max_attempts = 10;
  int64_t base_backoff_us = 200;
  int64_t max_backoff_us = 20000;
  double jitter = 0.2;  // fraction of the backoff, uniform in [-j, +j]
};

// Sender half of a reliable link: sequence-numbers frames, envelopes them
// (wire kControl), retransmits per the RetryPolicy until a cumulative ack
// covers them, and reports exhaustion when a frame runs out of attempts.
// A frame is sealed into its envelope once, at Enqueue (re-stamped only by
// Reset); every (re)send shares that buffer instead of re-encoding it.
// Epochs fence incarnations: a shard restart bumps the link epoch, and acks
// or frames stamped with an older epoch are ignored by both halves.
//
// Not thread-safe; the owner wraps it in whatever lock the link's call
// pattern needs (the fabric's control links take acks from worker threads).
class ReliableSender {
 public:
  struct Outgoing {
    // Shared with the pending entry, so an ack that retires the frame while
    // the caller is still sending it cannot free the bytes under it.
    std::shared_ptr<const std::string> envelope;
    bool is_retry = false;
  };

  explicit ReliableSender(RetryPolicy policy = RetryPolicy(),
                          uint64_t seed = 0x9E3779B97F4A7C15ULL)
      : policy_(policy), rng_(seed) {}

  // Stand-up hook: re-keys policy and jitter seed after construction (the
  // fabric's links are members of a default-constructed Shard). Only safe
  // while nothing is pending.
  void Configure(RetryPolicy policy, uint64_t seed) {
    policy_ = policy;
    rng_ = Rng(seed);
  }

  // Queues one sealed frame; due for its first send immediately.
  void Enqueue(const std::string& inner) {
    Pending p;
    p.seq = next_seq_++;
    p.envelope = std::make_shared<const std::string>(
        EncodeControlFrame(epoch_, p.seq, inner));
    pending_.push_back(std::move(p));
  }

  // Appends every pending frame whose (re)send is due at `now` to `out` and
  // schedules its next retransmission. A frame that already burned
  // max_attempts sends is not resent; it trips exhausted() instead.
  void CollectDue(int64_t now, std::vector<Outgoing>* out) {
    for (Pending& p : pending_) {
      if (p.next_due_us > now) continue;
      if (p.attempts >= policy_.max_attempts) {
        exhausted_ = true;
        continue;
      }
      ++p.attempts;
      if (p.attempts > 1) ++retries_;
      p.next_due_us = now + Backoff(p.attempts);
      out->push_back(Outgoing{p.envelope, p.attempts > 1});
    }
  }

  // Cumulative ack: drops every pending frame with seq <= upto. Progress
  // proves the link is alive, so the surviving frames get a fresh attempt
  // budget. Acks from another epoch are stale and ignored.
  bool Ack(uint64_t epoch, uint64_t upto) {
    if (epoch != epoch_) return false;
    bool progress = false;
    while (!pending_.empty() && pending_.front().seq <= upto) {
      pending_.pop_front();
      progress = true;
    }
    if (progress) {
      exhausted_ = false;
      for (Pending& p : pending_) p.attempts = 0;
    }
    return progress;
  }

  // Restart fence: re-keys the link to `epoch` and re-stamps `prepend`
  // followed by every surviving pending frame from sequence 1, all due
  // immediately with a fresh attempt budget. `prepend` is the restarted
  // peer's state-sync prologue — it must apply before the replayed frames.
  void Reset(uint64_t epoch, std::vector<std::string> prepend) {
    std::deque<Pending> replay = std::move(pending_);
    pending_.clear();
    epoch_ = epoch;
    next_seq_ = 1;
    exhausted_ = false;
    for (const std::string& inner : prepend) Enqueue(inner);
    for (const Pending& p : replay) Enqueue(ControlFrameInner(*p.envelope));
  }

  // Drains the pending frames (in order) for local application — used when
  // the peer is gone for good (quarantine) or the frames can be applied
  // without the wire (salvaging a dead shard's unacked matches).
  std::vector<std::string> TakeInners() {
    std::vector<std::string> out;
    out.reserve(pending_.size());
    for (const Pending& p : pending_) {
      out.push_back(ControlFrameInner(*p.envelope));
    }
    pending_.clear();
    exhausted_ = false;
    return out;
  }

  size_t unacked() const { return pending_.size(); }
  bool exhausted() const { return exhausted_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t retries() const { return retries_; }
  // Earliest next (re)send time across pending frames; INT64_MAX when idle.
  int64_t next_due_us() const {
    int64_t next = INT64_MAX;
    for (const Pending& p : pending_) {
      if (p.attempts < policy_.max_attempts && p.next_due_us < next) {
        next = p.next_due_us;
      }
    }
    return next;
  }

 private:
  struct Pending {
    uint64_t seq = 0;
    std::shared_ptr<const std::string> envelope;  // sealed at Enqueue/Reset
    int attempts = 0;
    int64_t next_due_us = 0;  // 0 = due now
  };

  int64_t Backoff(int attempts) {
    int64_t us = policy_.base_backoff_us;
    for (int i = 1; i < attempts && us < policy_.max_backoff_us; ++i) {
      us *= 2;
    }
    if (us > policy_.max_backoff_us) us = policy_.max_backoff_us;
    const double factor =
        1.0 + policy_.jitter * (2.0 * rng_.NextDouble() - 1.0);
    us = static_cast<int64_t>(static_cast<double>(us) * factor);
    return us < 1 ? 1 : us;
  }

  RetryPolicy policy_;
  Rng rng_;
  uint64_t epoch_ = 1;
  uint64_t next_seq_ = 1;
  bool exhausted_ = false;
  uint64_t retries_ = 0;
  std::deque<Pending> pending_;  // ascending seq
};

// Receiver half: deduplicates by sequence number and produces the
// cumulative ack. kOrdered releases frames strictly in sequence order
// (buffering ahead-of-sequence arrivals) — the fabric's control links,
// where the front's per-shard operation order is the correctness contract.
// kUnordered applies fresh frames immediately — the match links, where the
// delivery router's dedup window owns ordering-independent exactness.
class ReliableReceiver {
 public:
  enum class Order { kOrdered, kUnordered };

  struct Result {
    bool stale = false;      // older epoch: drop silently, no ack
    bool duplicate = false;  // seen before: re-ack only
    uint64_t epoch = 0;
    uint64_t ack_upto = 0;  // cumulative: every seq <= this was received
  };

  explicit ReliableReceiver(Order order = Order::kOrdered) : order_(order) {}

  // Accepts one enveloped frame and appends the frames it releases to
  // `apply`, in release order — a caller-owned buffer, so a steady link
  // reuses its capacity instead of allocating per frame.
  Result Accept(Frame&& f, std::vector<Frame>* apply) {
    Result r;
    if (f.epoch < epoch_) {
      r.stale = true;
      return r;
    }
    // A newer epoch means the sender restarted; adopt it (the old state
    // described a dead incarnation).
    if (f.epoch > epoch_) Reset(f.epoch);
    r.epoch = epoch_;
    const uint64_t seq = f.seq;
    if (order_ == Order::kOrdered) {
      if (seq <= upto_ || ahead_.count(seq) != 0) {
        r.duplicate = true;
      } else if (seq == upto_ + 1) {
        apply->push_back(std::move(f));
        ++upto_;
        auto it = ahead_.begin();
        while (it != ahead_.end() && it->first == upto_ + 1) {
          apply->push_back(std::move(it->second));
          ++upto_;
          it = ahead_.erase(it);
        }
      } else {
        ahead_.emplace(seq, std::move(f));
      }
    } else {
      if (seq <= upto_ || seen_.count(seq) != 0) {
        r.duplicate = true;
      } else {
        apply->push_back(std::move(f));
        // In-sequence arrivals (the fault-free norm) extend the prefix
        // directly; only gaps are remembered in seen_.
        if (seq == upto_ + 1) {
          ++upto_;
        } else {
          seen_.insert(seq);
        }
        while (!seen_.empty() && *seen_.begin() == upto_ + 1) {
          seen_.erase(seen_.begin());
          ++upto_;
        }
      }
    }
    r.ack_upto = upto_;
    return r;
  }

  void Reset(uint64_t epoch) {
    epoch_ = epoch;
    upto_ = 0;
    ahead_.clear();
    seen_.clear();
  }

  uint64_t epoch() const { return epoch_; }

 private:
  Order order_;
  uint64_t epoch_ = 1;
  uint64_t upto_ = 0;               // contiguous prefix fully received
  std::map<uint64_t, Frame> ahead_;  // kOrdered: buffered out-of-order
  std::set<uint64_t> seen_;          // kUnordered: applied beyond the prefix
};

}  // namespace ps2

#endif  // PS2_SHARD_RELIABLE_H_
