// Tests of the benchmark's own measurement logic (harness.h): due-time
// latency under a stalled generator, failed calls, self time with nested
// spans, and the delivery checker. Exits non-zero on the first failed check.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

// A generator that stalls for 100 ms on one call at 1000 ops/s: every
// operation due during the stall is sent late. Timed from the due time the
// stall shows in ~100 operations; timed from the actual send it shows in one
// (coordinated omission).
void DueTimeLatencyShowsGeneratorStall() {
  int64_t now = 0;  // virtual clock, ns
  perfbench::Schedule schedule;
  schedule.start_ns = 0;
  schedule.rate_per_sec = 1000.0;  // due every 1 ms
  const uint64_t n = 1000;
  const auto timings = perfbench::RunOpenLoop(
      schedule, n, [&] { return now; }, [&](int64_t due) { now = due; },
      [&](uint64_t i) {
        now += (i == 500) ? 100000000 : 10;  // one call blocks for 100 ms
        return true;
      },
      nullptr);
  EXPECT(timings.size() == n);
  std::vector<double> from_due, from_send, lag;
  for (const auto& t : timings) {
    from_due.push_back(static_cast<double>(t.FromDue()));
    from_send.push_back(static_cast<double>(t.FromSend()));
    lag.push_back(static_cast<double>(t.Lag()));
  }
  // The 99 operations queued behind the stall are late by up to 99 ms.
  EXPECT(perfbench::Percentile(from_due, 0.95) > 40e6);
  EXPECT(perfbench::Percentile(lag, 0.95) > 40e6);
  // Measured from the send, only the stalled call itself is slow.
  EXPECT(perfbench::Percentile(from_send, 0.99) == 10.0);
  // No operation is skipped and none is sent before it is due.
  for (const auto& t : timings) EXPECT(t.start_ns >= t.due_ns);
}

// A refused call counts as missing every latency limit: two failures in a
// hundred calls put the p99 at infinity, however fast they returned.
void FailedCallMissesEveryLimit() {
  int64_t now = 0;
  perfbench::Schedule schedule;
  schedule.rate_per_sec = 1000.0;
  uint64_t failed = 0;
  const auto timings = perfbench::RunOpenLoop(
      schedule, 100, [&] { return now; }, [&](int64_t due) { now = due; },
      [&](uint64_t i) {
        now += 10;
        return i != 10 && i != 20;
      },
      &failed);
  EXPECT(failed == 2);
  std::vector<double> latency;
  for (const auto& t : timings) latency.push_back(t.LatencyNs());
  EXPECT(std::isinf(timings[10].LatencyNs()));
  EXPECT(perfbench::Percentile(latency, 0.50) == 10.0);
  EXPECT(std::isinf(perfbench::Percentile(latency, 0.99)));
}

// Self time: a root with two children, one of which has a child; the sum of
// self times equals the root's duration.
void SelfTimeWithNestedSpans() {
  std::vector<perfbench::Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"a", 10, 40, 0, 1};
  spans[2] = {"b", 50, 90, 0, 1};
  spans[3] = {"b.inner", 60, 70, 2, 1};
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 30);  // 100 - 30 - 40
  EXPECT(self[1] == 30);
  EXPECT(self[2] == 30);  // 40 - 10
  EXPECT(self[3] == 10);
  EXPECT(self[0] + self[1] + self[2] + self[3] == 100);

  // Overlapping children are subtracted once.
  std::vector<perfbench::Span> overlap(3);
  overlap[0] = {"root", 0, 100, -1, 2};
  overlap[1] = {"x", 10, 60, 0, 2};
  overlap[2] = {"y", 40, 80, 0, 2};
  EXPECT(perfbench::SelfTimes(overlap)[0] == 30);

  // The live tracer nests by call order on one thread.
  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan root(&tracer, "root", 7);
    perfbench::ScopedSpan child(&tracer, "child", 7);
  }
  const auto totals = perfbench::Summarize(tracer);
  EXPECT(totals.at("root").count == 1 && totals.at("child").count == 1);
  EXPECT(totals.at("root").self_ns + totals.at("child").self_ns ==
         perfbench::RootTotalNanos(tracer));
}

// The checker must fail a run with one delivery removed, one delivered
// twice, or one the reference does not allow.
void CheckerCatchesInjectedFaults() {
  const std::set<uint64_t> objects = {100, 200};
  const std::set<perfbench::Pair> required = {{1, 100}, {2, 100}, {1, 200}};
  const std::set<perfbench::Pair> allowed = {{9, 200}};
  const std::vector<perfbench::Pair> all = {{1, 100}, {2, 100}, {1, 200},
                                            {5, 300}};
  auto never = [](const perfbench::Pair&) { return false; };
  EXPECT(perfbench::CheckDeliveries(objects, required, allowed, all, never)
             .ok());

  std::vector<perfbench::Pair> missing = all;
  missing.erase(missing.begin() + 1);  // drop (2, 100)
  const auto r = perfbench::CheckDeliveries(objects, required, allowed,
                                            missing, never);
  EXPECT(!r.ok());
  EXPECT(r.missing == 1);

  std::vector<perfbench::Pair> twice = all;
  twice.push_back({1, 200});
  EXPECT(perfbench::CheckDeliveries(objects, required, allowed, twice, never)
             .extra == 1);

  std::vector<perfbench::Pair> stray = all;
  stray.push_back({3, 200});
  EXPECT(!perfbench::CheckDeliveries(objects, required, allowed, stray, never)
              .ok());

  std::vector<perfbench::Pair> topk = all;
  topk.push_back({9, 200});
  EXPECT(perfbench::CheckDeliveries(objects, required, allowed, topk, never)
             .ok());

  // An excusable miss is counted, not failed.
  const auto excused = perfbench::CheckDeliveries(
      objects, required, allowed, missing,
      [](const perfbench::Pair& p) { return p.first == 2; });
  EXPECT(excused.ok() && excused.excused == 1);
}

}  // namespace

int main() {
  DueTimeLatencyShowsGeneratorStall();
  FailedCallMissesEveryLimit();
  SelfTimeWithNestedSpans();
  CheckerCatchesInjectedFaults();
  std::printf("%s (%d failed checks)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
