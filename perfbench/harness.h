// Measurement logic of the ps2bench benchmark that does not depend on the
// system under test: open-loop schedules and due-time latency, span
// recording with self times, percentiles, and the delivery checker. Kept in
// one header so selftest.cc can exercise it without a PS2Stream.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Open loop: the send time of every operation is fixed before the run, from
// the start time and the rate alone, so a slow system cannot slow the
// offered load down.
// Times are steady-clock nanoseconds.
struct Schedule {
  int64_t start_ns = 0;
  double rate_per_sec = 1.0;

  int64_t Due(uint64_t i) const {
    return start_ns +
           static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_per_sec);
  }
};

// Timing of one open-loop operation. Latency is taken from the due time,
// not from the actual call: measuring from the call hides every operation
// that a stalled generator sent late (coordinated omission).
struct OpTiming {
  int64_t due_ns = 0;
  int64_t start_ns = 0;  // when the generator actually made the call
  int64_t end_ns = 0;    // when the call returned
  bool ok = true;        // the call succeeded

  int64_t FromDue() const { return end_ns - due_ns; }
  int64_t FromSend() const { return end_ns - start_ns; }
  int64_t Lag() const { return start_ns - due_ns; }
  // Latency from the due time in ns; a failed call never completed, so it
  // misses every latency limit.
  double LatencyNs() const {
    return ok ? static_cast<double>(FromDue())
              : std::numeric_limits<double>::infinity();
  }
};

// Runs `n` operations on `schedule`, waiting for each due time (never
// skipping one) and timing each through `clock`. `op(i)` returns false for
// a failed call. Both callbacks are injectable so tests can stall the
// generator on a virtual clock.
inline std::vector<OpTiming> RunOpenLoop(
    const Schedule& schedule, uint64_t n,
    const std::function<int64_t()>& clock,
    const std::function<void(int64_t)>& wait_until,
    const std::function<bool(uint64_t)>& op, uint64_t* failed) {
  std::vector<OpTiming> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    OpTiming t;
    t.due_ns = schedule.Due(i);
    if (clock() < t.due_ns) wait_until(t.due_ns);
    t.start_ns = clock();
    t.ok = op(i);
    t.end_ns = clock();
    if (!t.ok && failed != nullptr) ++*failed;
    out.push_back(t);
  }
  return out;
}

// One T per thread that touches it, owned by this object. The thread-local
// cache is keyed by a process-unique id, not the address, so an instance
// built where a destroyed one lived never sees its stale T.
template <typename T>
class PerThread {
 public:
  T& Local() {
    thread_local uint64_t owner = 0;
    thread_local T* item = nullptr;
    if (owner != uid_) {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::make_unique<T>());
      item = items_.back().get();
      owner = uid_;
    }
    return *item;
  }

  // Every thread's T; call only after those threads stopped touching them.
  std::vector<T*> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T*> out;
    for (const auto& item : items_) out.push_back(item.get());
    return out;
  }

 private:
  static uint64_t NextUid() {
    static std::atomic<uint64_t> next{0};
    return ++next;
  }

  const uint64_t uid_ = NextUid();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T>> items_;
};

// ---- spans -------------------------------------------------------------------

// One timed interval. `parent` indexes the enclosing span of the same
// thread (-1 for a root); spans of one operation share `op`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t op = 0;
};

// Span store: each recording thread appends to its own buffer, so a worker
// thread calling into a sink never contends with the publisher. Spans stay
// in memory until the run ends.
class Tracer {
 public:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;  // stack of unfinished span indexes
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(const char* name, uint64_t op) {
    Buffer& b = buffers_.Local();
    Span s;
    s.name = name;
    s.op = op;
    s.parent = b.open.empty() ? -1 : b.open.back();
    s.start_ns = NowNanos();
    b.spans.push_back(s);
    b.open.push_back(static_cast<int32_t>(b.spans.size() - 1));
  }

  void End() {
    Buffer& b = buffers_.Local();
    b.spans[static_cast<size_t>(b.open.back())].end_ns = NowNanos();
    b.open.pop_back();
  }

  // All buffers; call only after every recording thread has stopped.
  std::vector<const std::vector<Span>*> Threads() const {
    std::vector<const std::vector<Span>*> out;
    for (const Buffer* b : buffers_.All()) out.push_back(&b->spans);
    return out;
  }

 private:
  PerThread<Buffer> buffers_;
};

// RAII span; a null tracer records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, op);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;  // summed durations
  int64_t self_ns = 0;   // summed durations minus time covered by children
};

// Self time of every span of one thread: its duration minus the union of
// its children's intervals (clipped to the span), so overlapping or
// out-of-order children are never subtracted twice.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool have = false;
    for (auto [lo, hi] : c) {
      lo = std::max(lo, spans[i].start_ns);
      hi = std::min(hi, spans[i].end_ns);
      if (hi <= lo) continue;
      if (have && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (have) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      have = true;
    }
    if (have) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

// Per-name totals over every thread of `tracer`.
inline std::map<std::string, SpanTotals> Summarize(const Tracer& tracer) {
  std::map<std::string, SpanTotals> out;
  for (const std::vector<Span>* spans : tracer.Threads()) {
    const std::vector<int64_t> self = SelfTimes(*spans);
    for (size_t i = 0; i < spans->size(); ++i) {
      const Span& s = (*spans)[i];
      SpanTotals& t = out[s.name];
      t.count++;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += self[i];
    }
  }
  return out;
}

// Summed duration of the root spans (those with no parent) of `tracer`.
inline int64_t RootTotalNanos(const Tracer& tracer) {
  int64_t total = 0;
  for (const std::vector<Span>* spans : tracer.Threads()) {
    for (const Span& s : *spans) {
      if (s.parent < 0) total += s.end_ns - s.start_ns;
    }
  }
  return total;
}

// ---- delivery checker -------------------------------------------------------

using Pair = std::pair<uint64_t, uint64_t>;  // (query id, object id)

struct CheckResult {
  uint64_t objects = 0;   // sampled objects checked
  uint64_t expected = 0;  // pairs the reference requires
  uint64_t missing = 0;   // required pairs not delivered, not excused
  uint64_t extra = 0;     // delivered pairs the reference does not allow,
                          // and repeated deliveries of one pair
  uint64_t excused = 0;   // required pairs missing for an allowed reason

  bool ok() const { return missing == 0 && extra == 0; }
};

// Compares the deliveries of the sampled objects with the reference.
// `required`: pairs that must be delivered exactly once. `allowed`: pairs
// that may be delivered at most once but need not be (continuous top-k
// admissions, which depend on every earlier object). `excusable(pair)`
// says whether a missing required pair has a reason the delivery contract
// allows (a subscription cancelled while the object was in flight).
inline CheckResult CheckDeliveries(
    const std::set<uint64_t>& sampled_objects, const std::set<Pair>& required,
    const std::set<Pair>& allowed, const std::vector<Pair>& delivered,
    const std::function<bool(const Pair&)>& excusable) {
  CheckResult r;
  r.objects = sampled_objects.size();
  r.expected = required.size();
  std::set<Pair> seen;
  for (const Pair& p : delivered) {
    if (sampled_objects.count(p.second) == 0) continue;
    if (!seen.insert(p).second) {
      r.extra++;
      continue;
    }
    if (required.count(p) == 0 && allowed.count(p) == 0) r.extra++;
  }
  for (const Pair& p : required) {
    if (seen.count(p) != 0) continue;
    if (excusable && excusable(p)) {
      r.excused++;
    } else {
      r.missing++;
    }
  }
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
