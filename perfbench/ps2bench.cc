// ps2bench: the repository benchmark. Drives the public PS2Stream facade
// from one publisher thread on one named workload and prints every metric
// by name, unit and sample count, then one JSON result line.
//
//   ps2bench --workload steady-match --seed 7 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics (no spans recorded).
// --trace 1 is the separate traced run: spans around the facade calls, a
// replay of the same inputs through the layers' public functions, and the
// engine's own counters give the per-layer metrics.
//
// Every run also checks its deliveries against ReferenceMatcher on a seeded
// subset of objects, and exits non-zero on any missing or extra delivery and
// on any failed call.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/delivery_router.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/workload_stats.h"
#include "dispatch/merger.h"
#include "harness.h"
#include "index/reference_matcher.h"
#include "partition/plan.h"
#include "persist/durability.h"
#include "runtime/cluster.h"
#include "runtime/ps2stream.h"
#include "shard/wire.h"
#include "subscribe/spec.h"
#include "subscribe/topk.h"
#include "text/tokenizer.h"
#include "workload/query_gen.h"
#include "workload/synthetic_corpus.h"

#ifndef PS2BENCH_BUILD_TYPE
#define PS2BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PS2BENCH_COMPILER
#define PS2BENCH_COMPILER "unknown"
#endif

namespace ps2 {
namespace {

using perfbench::CheckResult;
using perfbench::Median;
using perfbench::OpTiming;
using perfbench::Pair;
using perfbench::Percentile;
using perfbench::Schedule;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// ---- workloads ----------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  // Why the workload is in the benchmark: which layers it loads and which
  // it leaves idle. Mirrored in BENCHMARK.json.
  const char* why;
  bool us_q1;                 // US corpus + Q1 queries, else UK + Q2
  size_t initial_subs;        // live subscriptions after set-up
  double similarity_share;    // of generated subscriptions
  double topk_share;
  double ttl_share;           // of objects
  int objects_per_sub_op;     // the object : subscription-operation mix
  bool moves;                 // UpdateSubscription among the sub ops
  bool text_posts;            // Post(loc, text) instead of pre-tokenized
  bool threaded;              // Start()ed engine vs the synchronous facade
  int shards;
  int dispatchers;            // per shard
  int workers;                // per shard
  bool durable;               // kFlush WAL + periodic checkpoints
  bool auto_adjust;
  double open_rate;           // open-loop operations per second
};

const WorkloadDef kWorkloads[] = {
    {"steady-match",
     "Paper steady state: GI2 matching, routing, dedup and delivery carry "
     "the work on 30k subscriptions (index past L2); persist, text and "
     "shard do none.",
     true, 30000, 0.10, 0.05, 0.2, 5, false, false, true, 1, 1, 2, false,
     false, 5000.0},
    {"durable-churn",
     "Writes beside reads on the synchronous facade: index insert/delete, "
     "kFlush WAL, checkpoints, tokenizer and load adjustment carry the "
     "work; GI2 matching carries little.",
     false, 20000, 0.0, 0.0, 0.0, 1, true, true, false, 1, 1, 2, true, true,
     2000.0},
    {"sharded-match",
     "steady-match inputs on a 2-shard fabric (1 dispatcher + 1 worker "
     "each): the gap to steady-match is the fabric's encode, transport, "
     "decode and retry cost.",
     true, 30000, 0.10, 0.05, 0.2, 5, false, false, true, 2, 1, 1, false,
     false, 5000.0},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Checkpoint cadence of durable-churn, in WAL records.
constexpr uint64_t kCheckpointEvery = 20000;
// Set-ups per run: setup_s is their median.
constexpr int kSetups = 3;
// Rounds per run. Each round is one open-loop window, then one closed-loop
// burst, so both phases sample the whole run: the shared machine slows
// down and speeds up for seconds at a time. publish_tps is the median of
// the bursts; each latency metric is the median of the per-window
// percentiles, so one rare stall moves one window only.
constexpr int kRounds = 15;
// Share of --seconds given to the closed-loop bursts; the open-loop
// windows get the rest. publish_tps is gated and the window latencies are
// not, so the bursts get the larger share: a window of a 28 s run (0.62 s)
// still holds 1244 operations at durable-churn's 2000 ops/s, 12 of them
// past the p99.
constexpr double kBurstShare = 2.0 / 3.0;
// One object in kSampleMask + 1 is checked against the reference.
constexpr uint64_t kSampleMask = 511;

// ---- generated inputs -----------------------------------------------------------

struct Inputs {
  Vocabulary vocab;
  WorkloadSample sample;
  std::vector<STSQuery> initial;  // ids 1..initial.size()
  std::vector<STSQuery> pool;     // inserted by the churn (id set per op)
  std::vector<SpatioTextualObject> objects;
  std::vector<std::string> texts;  // text_posts: the text of each object
  std::vector<Rect> moves;         // UpdateSubscription target regions
};

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// Turns a generated boolean query into the workload's class mix. Scored
// classes use the query's terms as one OR clause.
void AssignClass(const WorkloadDef& w, Rng& rng, STSQuery* q) {
  const double u = rng.NextDouble();
  SubscriptionClass cls = SubscriptionClass::kBoolean;
  if (u < w.topk_share) {
    cls = SubscriptionClass::kTopK;
  } else if (u < w.topk_share + w.similarity_share) {
    cls = SubscriptionClass::kSimilarity;
  }
  if (cls == SubscriptionClass::kBoolean) return;
  std::vector<TermId> terms;
  for (const auto& clause : q->expr.clauses()) {
    terms.insert(terms.end(), clause.begin(), clause.end());
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  STSQuery scored = *q;
  scored.expr = BoolExpr::Or(std::move(terms));
  scored.cls = cls;
  scored.tau = 0.3;
  scored.k = 5;
  if (ValidateQuerySpec(scored).ok()) *q = std::move(scored);
}

// Everything a run sends, generated from the seed before any timing. The
// corpus geography (city centres, weights, topics) is the preset's and does
// not change with the seed: it would change the matching cost of the whole
// run. The seed draws the subscriptions, the classes, the TTLs and the
// order of the objects. The corpus terms ("US_t12") are renamed to what the
// tokenizer emits ("ust12") so text posts tokenize back to the same ids.
Inputs Generate(const WorkloadDef& w, uint64_t seed) {
  Inputs in;
  Vocabulary raw;
  CorpusConfig ccfg = w.us_q1 ? CorpusConfig::UsPreset()
                              : CorpusConfig::UkPreset();
  ccfg.vocab_size = w.us_q1 ? 150000 : 80000;
  ccfg.topic_terms_per_city = 1500;
  SyntheticCorpus corpus(ccfg, &raw);
  corpus.Generate(20000);  // primes the frequency profile queries sample
  QueryGenConfig qcfg;
  qcfg.kind = w.us_q1 ? QueryKind::kQ1 : QueryKind::kQ2;
  qcfg.seed = 99 + seed;
  if (w.us_q1) {
    qcfg.q1_side_min_frac = 0.0003;
    qcfg.q1_side_max_frac = 0.012;
  } else {
    qcfg.q2_side_min_frac = 0.002;
    qcfg.q2_side_max_frac = 0.04;
  }
  QueryGenerator qgen(qcfg, &corpus);
  Rng rng(0xC0FFEEULL ^ Mix64(seed));

  in.sample.objects = corpus.Generate(20000);
  in.sample.inserts = qgen.Generate(20000);
  in.initial = qgen.Generate(w.initial_subs);
  for (size_t i = 0; i < in.initial.size(); ++i) {
    in.initial[i].id = i + 1;
    AssignClass(w, rng, &in.initial[i]);
  }
  in.pool = qgen.Generate(std::max<size_t>(w.initial_subs / 4, 5000));
  for (STSQuery& q : in.pool) AssignClass(w, rng, &q);
  if (w.moves) {
    for (const STSQuery& q : qgen.Generate(4096)) in.moves.push_back(q.region);
  }
  in.objects = corpus.Generate(w.text_posts ? 50000 : 200000);
  for (size_t i = in.objects.size(); i > 1; --i) {
    std::swap(in.objects[i - 1], in.objects[rng.NextBelow(i)]);
  }
  for (SpatioTextualObject& o : in.objects) {
    o.ttl_us = rng.NextDouble() < w.ttl_share ? 20000 : 0;
  }

  // Tokenizer-compatible vocabulary with the same ids and counts.
  const Tokenizer tokenizer;
  for (TermId t = 0; t < raw.size(); ++t) {
    const std::vector<std::string> tokens =
        tokenizer.Tokenize(raw.TermString(t));
    std::string joined;
    for (const auto& tok : tokens) joined += tok;
    in.vocab.Intern(joined);
    if (raw.Count(t) > 0) in.vocab.AddCount(t, raw.Count(t));
  }
  if (w.text_posts) {
    in.texts.reserve(in.objects.size());
    for (SpatioTextualObject& o : in.objects) {
      std::string text;
      for (const TermId t : o.terms) {
        text += in.vocab.TermString(t);
        text += ' ';
      }
      // The reference sees exactly what the facade's tokenizer produces.
      const SpatioTextualObject tokenized =
          SpatioTextualObject::FromText(o.id, o.loc, text, in.vocab);
      o.terms = tokenized.terms;
      in.texts.push_back(std::move(text));
    }
  }
  return in;
}

// ---- the operation stream -------------------------------------------------------

enum class OpKind : uint8_t { kPost, kInsert, kCancel, kUpdate };

struct LogEntry {
  OpKind kind = OpKind::kPost;
  uint32_t pool = 0;  // object / pool-query / move index
  uint64_t id = 0;    // object id or query id
};

// Deterministic operation i of the workload: objects_per_sub_op posts, then
// one subscription operation cycling insert, cancel-oldest (and move).
OpKind KindOf(const WorkloadDef& w, uint64_t i) {
  const uint64_t period = static_cast<uint64_t>(w.objects_per_sub_op) + 1;
  if (i % period != period - 1) return OpKind::kPost;
  const uint64_t s = i / period;
  if (w.moves) {
    return s % 3 == 0 ? OpKind::kInsert
                      : s % 3 == 1 ? OpKind::kCancel : OpKind::kUpdate;
  }
  return s % 2 == 0 ? OpKind::kInsert : OpKind::kCancel;
}

bool Sampled(uint64_t object_id, uint64_t seed) {
  return (Mix64(object_id ^ (seed * 0x9E3779B97F4A7C15ULL)) & kSampleMask) ==
         0;
}

// Query ids are assigned in operation order: the initial subscriptions
// take 1..N, insert k of the churn takes N + 1 + k with pool query k.
bool IsTopK(const Inputs& in, uint64_t query_id) {
  const uint64_t n = in.initial.size();
  const STSQuery& q = query_id <= n
                          ? in.initial[query_id - 1]
                          : in.pool[(query_id - n - 1) % in.pool.size()];
  return q.cls == SubscriptionClass::kTopK;
}

// ---- delivery sink ----------------------------------------------------------------

// Consumes deliveries on the delivering thread. Records arrival stamps of
// the open-loop phase's objects and the pairs of sampled objects, in
// per-thread buffers so two workers never contend here.
class RecordingSink : public MatchSink {
 public:
  // Deques: growing one never copies what it holds, so recording cannot
  // stall the delivering thread.
  struct Buffer {
    struct Arrival {
      uint64_t query;
      uint64_t object;
      int64_t deliver_us;
    };
    std::deque<Arrival> arrivals;
    std::deque<Pair> sampled;
  };

  explicit RecordingSink(uint64_t seed) : seed_(seed) {}

  void OnMatch(const Delivery& d) override {
    ScopedSpan span(tracer_.load(std::memory_order_acquire), "sink.on_match",
                    d.object_id);
    Buffer& b = buffers_.Local();
    if (d.object_id >= arrival_from_.load(std::memory_order_relaxed) &&
        d.object_id < arrival_to_.load(std::memory_order_relaxed)) {
      b.arrivals.push_back({d.query_id, d.object_id, d.deliver_us});
    }
    if (Sampled(d.object_id, seed_)) {
      b.sampled.push_back({d.query_id, d.object_id});
    }
  }

  // Arrival stamps are kept for objects with ids in [first, last).
  void RecordArrivals(uint64_t first, uint64_t last) {
    arrival_from_.store(first, std::memory_order_relaxed);
    arrival_to_.store(last, std::memory_order_relaxed);
  }
  void set_tracer(Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  // Call only while no thread delivers.
  std::vector<Buffer*> Buffers() const { return buffers_.All(); }

 private:
  const uint64_t seed_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<uint64_t> arrival_from_{~uint64_t{0}};
  std::atomic<uint64_t> arrival_to_{0};
  perfbench::PerThread<Buffer> buffers_;
};

// ---- the facade under test --------------------------------------------------------

PS2StreamOptions OptionsFor(const WorkloadDef& w, const std::string& dir) {
  PS2StreamOptions o;
  o.partitioner = "hybrid";
  o.partition.num_workers = w.workers;
  o.engine.num_dispatchers = w.dispatchers;
  o.sharding.num_shards = w.shards;
  o.auto_adjust = w.auto_adjust;
  if (w.durable) {
    o.durability.enabled = true;
    o.durability.dir = dir;
    o.durability.wal_sync = Wal::SyncMode::kFlush;
    o.durability.checkpoint_every = kCheckpointEvery;
  }
  return o;
}

double RssMiB() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int CountThreads() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

struct Service {
  std::unique_ptr<PS2Stream> stream;
  PS2Stream::SessionPtr session;
  std::string dir;
  double setup_s = 0.0;
};

// Set-up, as timed by setup_s: plan build (Bootstrap), the initial
// subscriptions, and Start() for the threaded workloads.
Service SetUp(const WorkloadDef& w, const Inputs& in, MatchSink* sink,
              const std::string& dir, uint64_t* failed) {
  Service s;
  s.dir = dir;
  if (!dir.empty()) std::filesystem::remove_all(dir);
  s.stream = std::make_unique<PS2Stream>(OptionsFor(w, dir));
  s.stream->vocabulary() = in.vocab;
  s.session = s.stream->OpenSession();
  s.session->SetSink(sink);
  const int64_t begin = NowMicros();
  s.stream->Bootstrap(in.sample);
  for (const STSQuery& q : in.initial) {
    auto sub = s.stream->Subscribe(s.session, q);
    if (sub.ok()) {
      sub->Release();
    } else {
      ++*failed;
    }
  }
  if (w.threaded) s.stream->Start();
  s.setup_s = static_cast<double>(NowMicros() - begin) / 1e6;
  return s;
}

void TearDown(Service& s) {
  s.session.reset();
  s.stream.reset();
  if (!s.dir.empty()) std::filesystem::remove_all(s.dir);
}

// Applies the operation stream to a facade, one call per operation.
class Driver {
 public:
  Driver(const WorkloadDef& w, const Inputs& in, Service& service)
      : w_(w), in_(in), service_(service) {
    for (const STSQuery& q : in.initial) live_.push_back(q.id);
    next_query_id_ = in.initial.size() + 1;
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  uint64_t next_op() const { return next_op_; }
  uint64_t next_object_id() const { return next_object_id_; }
  const std::deque<LogEntry>& log() const { return log_; }

  // Runs the next operation; false when the call did not return Ok.
  bool Step() {
    const uint64_t i = next_op_++;
    PS2Stream& s = *service_.stream;
    LogEntry e;
    e.kind = KindOf(w_, i);
    Status st;
    switch (e.kind) {
      case OpKind::kPost: {
        e.pool = static_cast<uint32_t>(posts_ % in_.objects.size());
        e.id = next_object_id_++;
        const SpatioTextualObject& src = in_.objects[e.pool];
        ScopedSpan span(tracer_, "facade.post", e.id);
        if (w_.text_posts) {
          st = s.Post(src.loc, in_.texts[e.pool]);
        } else {
          scratch_.id = e.id;
          scratch_.loc = src.loc;
          scratch_.terms.assign(src.terms.begin(), src.terms.end());
          scratch_.timestamp_us = static_cast<int64_t>(posts_) * 10;
          scratch_.ttl_us = src.ttl_us;
          st = s.Post(scratch_);
        }
        ++posts_;
        break;
      }
      case OpKind::kInsert: {
        e.pool = static_cast<uint32_t>(inserts_++ % in_.pool.size());
        e.id = next_query_id_++;
        STSQuery q = in_.pool[e.pool];
        q.id = e.id;
        ScopedSpan span(tracer_, "facade.subscribe", e.id);
        auto sub = s.Subscribe(service_.session, q);
        if (sub.ok()) {
          sub->Release();
          live_.push_back(e.id);
        }
        st = sub.status();
        break;
      }
      case OpKind::kCancel: {
        e.id = live_.front();
        live_.pop_front();
        ScopedSpan span(tracer_, "facade.cancel", e.id);
        st = s.Cancel(e.id);
        break;
      }
      case OpKind::kUpdate: {
        e.id = live_[Mix64(i) % live_.size()];
        e.pool = static_cast<uint32_t>(moves_++ % in_.moves.size());
        ScopedSpan span(tracer_, "facade.update", e.id);
        st = s.UpdateSubscription(e.id, in_.moves[e.pool]);
        break;
      }
    }
    log_.push_back(e);
    return st.ok();
  }

 private:
  const WorkloadDef& w_;
  const Inputs& in_;
  Service& service_;
  Tracer* tracer_ = nullptr;
  std::deque<QueryId> live_;
  std::deque<LogEntry> log_;  // a deque: appending never copies the log
  SpatioTextualObject scratch_;
  uint64_t next_op_ = 0;
  uint64_t posts_ = 0;
  uint64_t inserts_ = 0;
  uint64_t moves_ = 0;
  QueryId next_query_id_ = 1;
  ObjectId next_object_id_ = 1;
};

// ---- measured phases ------------------------------------------------------------------

struct Counters {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-Ok calls (session drops are added at the end)
};

// Closed loop, one publisher: operations back to back for `seconds`, then
// drained. Returns operations completed per second, first call to drained;
// a failed call is attempted work, not completed work.
double ClosedBurst(const WorkloadDef& w, Service& s, Driver& d,
                   double seconds, Counters* c, double* drain_ms,
                   std::vector<RunReport>* reports) {
  const int64_t begin = NowMicros();
  const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e6);
  uint64_t n = 0, completed = 0;
  do {
    for (int k = 0; k < 64; ++k) {
      if (d.Step()) {
        ++completed;
      } else {
        c->failed++;
      }
    }
    n += 64;
  } while (NowMicros() < deadline);
  if (w.threaded) {
    const int64_t stop_begin = NowMicros();
    reports->push_back(s.stream->Stop());
    *drain_ms = static_cast<double>(NowMicros() - stop_begin) / 1e3;
  }
  const int64_t end = NowMicros();
  c->attempted += n;
  if (w.threaded) s.stream->Start();
  return static_cast<double>(completed) * 1e6 /
         static_cast<double>(end - begin);
}

// Open-loop timings of every window of a run.
struct OpenLoopLog {
  std::vector<OpTiming> timings;
  std::vector<OpKind> kinds;
  std::vector<int> window;  // per operation
  // By object id: the due time (ns) and window of each open-loop post;
  // window -1 for the closed-loop objects.
  std::vector<int64_t> due_of;
  std::vector<int> window_of;
};

// One open-loop window at the workload's rate for `seconds`, then drained.
// The window's schedule is fixed from the rate before its first call, and
// every latency is taken from the operation's due time.
void OpenWindow(const WorkloadDef& w, Service& s, Driver& d,
                RecordingSink& sink, double seconds, int window, Counters* c,
                std::vector<RunReport>* reports, OpenLoopLog* log) {
  const uint64_t n = static_cast<uint64_t>(w.open_rate * seconds);
  const uint64_t first_op = d.next_op();
  ObjectId object = d.next_object_id();
  sink.RecordArrivals(object, ~uint64_t{0});
  Schedule schedule;
  schedule.start_ns = perfbench::NowNanos() + 1000000;
  schedule.rate_per_sec = w.open_rate;
  const std::vector<OpTiming> timings = perfbench::RunOpenLoop(
      schedule, n, [] { return perfbench::NowNanos(); },
      [](int64_t due) {
        while (perfbench::NowNanos() < due) std::this_thread::yield();
      },
      [&d](uint64_t) { return d.Step(); }, &c->failed);
  c->attempted += n;
  if (w.threaded) {
    reports->push_back(s.stream->Stop());
    s.stream->Start();
  }
  sink.RecordArrivals(0, 0);
  log->due_of.resize(d.next_object_id(), 0);
  log->window_of.resize(d.next_object_id(), -1);
  for (uint64_t i = 0; i < n; ++i) {
    const OpKind kind = KindOf(w, first_op + i);
    if (kind == OpKind::kPost) {
      log->due_of[object] = timings[i].due_ns;
      log->window_of[object] = window;
      ++object;
    }
    log->timings.push_back(timings[i]);
    log->kinds.push_back(kind);
    log->window.push_back(window);
  }
}

struct OpenResult {
  // Per-window percentiles; the reported value is their median.
  std::vector<double> deliver_p50, deliver_p99, post_p99, sub_p99;
  uint64_t deliveries = 0, posts = 0, sub_ops = 0, ops = 0;
  double lag_p99_us = 0.0;
};

// Latencies of the open-loop windows, from the due times and the sink's
// arrival stamps.
OpenResult Analyze(const Inputs& in, const OpenLoopLog& log,
                   RecordingSink& sink) {
  OpenResult r;
  std::vector<std::vector<double>> post_w(kRounds), sub_w(kRounds),
      del_w(kRounds);
  std::vector<double> lags;
  lags.reserve(log.timings.size());
  for (size_t i = 0; i < log.timings.size(); ++i) {
    const OpTiming& t = log.timings[i];
    const int win = log.window[i];
    lags.push_back(t.Lag() / 1e3);
    if (log.kinds[i] == OpKind::kPost) {
      post_w[win].push_back(t.LatencyNs() / 1e3);
      // A refused post delivers nothing: one sample that misses every limit.
      if (!t.ok) del_w[win].push_back(t.LatencyNs() / 1e3);
      r.posts++;
    } else {
      sub_w[win].push_back(t.LatencyNs() / 1e3);
      r.sub_ops++;
    }
  }
  for (RecordingSink::Buffer* b : sink.Buffers()) {
    for (const auto& [query, object, deliver_us] : b->arrivals) {
      // A continuous top-k result may be held back by design until a
      // better one expires; that wait is the subscription's semantics, not
      // delivery delay.
      if (object >= log.window_of.size() || log.window_of[object] < 0 ||
          IsTopK(in, query)) {
        continue;
      }
      // deliver_us is the router's stamp, in whole microseconds.
      del_w[log.window_of[object]].push_back(
          static_cast<double>(deliver_us * 1000 - log.due_of[object]) / 1e3);
      r.deliveries++;
    }
  }
  r.ops = log.timings.size();
  r.lag_p99_us = Percentile(lags, 0.99);
  for (int k = 0; k < kRounds; ++k) {
    r.deliver_p50.push_back(Percentile(del_w[k], 0.50));
    r.deliver_p99.push_back(Percentile(del_w[k], 0.99));
    r.post_p99.push_back(Percentile(post_w[k], 0.99));
    r.sub_p99.push_back(Percentile(sub_w[k], 0.99));
  }
  return r;
}

// ---- correctness -------------------------------------------------------------------

// Replays the logged operation order through ReferenceMatcher and compares
// the sampled objects' deliveries with it. In the started modes a Cancel
// unroutes at once, so a match of an object posted before the Cancel but
// still in flight is counted as unrouted instead of delivered; such a
// missing pair is excused, and the excused count may not exceed the
// router's unrouted counter.
CheckResult CheckRun(const WorkloadDef& w, const Inputs& in,
                     const std::deque<LogEntry>& log,
                     RecordingSink& sink, uint64_t seed, uint64_t unrouted,
                     bool* ok) {
  ReferenceMatcher ref;
  std::unordered_map<QueryId, STSQuery> live;
  for (const STSQuery& q : in.initial) {
    ref.Insert(q);
    live[q.id] = q;
  }
  std::unordered_map<QueryId, uint64_t> cancelled_at;
  for (uint64_t j = 0; j < log.size(); ++j) {
    if (log[j].kind == OpKind::kCancel) cancelled_at[log[j].id] = j;
  }
  std::unordered_map<uint64_t, uint64_t> posted_at;
  std::set<uint64_t> sampled;
  std::set<Pair> required, allowed;
  for (uint64_t j = 0; j < log.size(); ++j) {
    const LogEntry& e = log[j];
    switch (e.kind) {
      case OpKind::kPost: {
        if (!Sampled(e.id, seed)) break;
        SpatioTextualObject o = in.objects[e.pool];
        o.id = e.id;
        sampled.insert(e.id);
        posted_at[e.id] = j;
        for (const MatchResult& m : ref.Match(o)) {
          const bool topk =
              live.at(m.query_id).cls == SubscriptionClass::kTopK;
          (topk ? allowed : required).insert({m.query_id, m.object_id});
        }
        break;
      }
      case OpKind::kInsert: {
        STSQuery q = in.pool[e.pool];
        q.id = e.id;
        ref.Insert(q);
        live[q.id] = std::move(q);
        break;
      }
      case OpKind::kCancel:
        ref.Delete(e.id);
        live.erase(e.id);
        break;
      case OpKind::kUpdate: {
        STSQuery& q = live.at(e.id);
        q.region = in.moves[e.pool];
        ref.Update(q);
        break;
      }
    }
  }
  std::vector<Pair> delivered;
  for (RecordingSink::Buffer* b : sink.Buffers()) {
    delivered.insert(delivered.end(), b->sampled.begin(), b->sampled.end());
  }
  auto excusable = [&](const Pair& p) {
    if (!w.threaded) return false;
    const auto c = cancelled_at.find(p.first);
    return c != cancelled_at.end() && c->second > posted_at.at(p.second);
  };
  const CheckResult r = perfbench::CheckDeliveries(sampled, required,
                                                   allowed, delivered,
                                                   excusable);
  *ok = r.ok() && r.excused <= unrouted;
  std::printf(
      "check: %" PRIu64 " sampled objects, %" PRIu64 " required pairs, "
      "%" PRIu64 " missing, %" PRIu64 " extra, %" PRIu64
      " excused (unrouted %" PRIu64 ") -> %s\n",
      r.objects, r.expected, r.missing, r.extra, r.excused, unrouted,
      *ok ? "OK" : "MISMATCH");
  return r;
}

// ---- layer replay (traced run) ---------------------------------------------------------

struct ReplayStats {
  uint64_t ops = 0;
  uint64_t matches = 0, fresh = 0;
  uint64_t wal_records = 0, wal_bytes = 0, checkpoints = 0;
  double checkpoint_mb = 0.0;
  double seconds = 0.0;
};

// The replay's session consumer: the delivery path runs, nothing is kept.
class NullSink : public MatchSink {
 public:
  void OnMatch(const Delivery&) override {}
};

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

// Replays the first `n_ops` operations of the workload through the public
// functions the synchronous facade calls, in its order: tokenize, WAL
// append, route, GI2 match or insert/delete, merger, router delivery (and
// top-k admission), with checkpoints interleaved. The plan is rebuilt from
// the same sample. With a tracer, each operation is one root span and each
// layer call a child span.
ReplayStats ReplayLayers(const WorkloadDef& w, const Inputs& in,
                         uint64_t n_ops, const std::string& dir,
                         Tracer* tracer) {
  ReplayStats st;
  Vocabulary vocab = in.vocab;
  AccumulateVocabularyCounts(in.sample, vocab);
  // A fabric's workers each index one shard's cells; a plan with as many
  // workers as the whole fabric gives each replay worker an index of that
  // size.
  PartitionConfig cfg;
  cfg.num_workers = w.shards * w.workers;
  const PartitionPlan plan =
      MakePartitioner("hybrid")->Build(in.sample, vocab, cfg);
  Cluster cluster(plan, &vocab);
  DeliveryRouter router;
  TopKCoordinator topk;
  NullSink sink;
  auto session = std::make_shared<SubscriberSession>(SessionOptions());
  session->SetSink(&sink);
  router.RegisterSession(session);
  const Tokenizer tokenizer;
  std::unordered_map<QueryId, STSQuery> live;
  std::deque<QueryId> fifo;
  std::vector<Dispatcher::Delivery> routed;
  std::vector<MatchResult> matches;

  auto apply_insert = [&](const STSQuery& q, uint64_t op) {
    {
      ScopedSpan span(tracer, "dispatch.route", op);
      cluster.dispatcher().Route(StreamTuple::OfInsert(q), &routed);
    }
    for (const auto& d : routed) {
      ScopedSpan span(tracer, "index.insert", op);
      cluster.worker(d.worker).InsertIntoCells(q, d.cells);
    }
  };
  auto apply_delete = [&](const STSQuery& q, uint64_t op) {
    {
      ScopedSpan span(tracer, "dispatch.route", op);
      cluster.dispatcher().Route(StreamTuple::OfDelete(q), &routed);
    }
    for (const auto& d : routed) {
      ScopedSpan span(tracer, "index.delete", op);
      cluster.worker(d.worker).Delete(q.id);
    }
  };
  for (const STSQuery& q : in.initial) {
    live[q.id] = q;
    fifo.push_back(q.id);
    router.Route(q.id, session);
    if (q.cls == SubscriptionClass::kTopK) topk.Register(q.id, q.k);
    apply_insert(q, 0);
  }

  std::unique_ptr<DurabilityManager> durability;
  auto checkpoint_view = [&](uint64_t seq) {
    CheckpointView view;
    view.seq = seq;
    view.vocab = &vocab;
    view.plan = &cluster.router().plan();
    view.next_query_id = in.initial.size() + n_ops + 1;
    view.next_object_id = n_ops + 1;
    view.queries.reserve(live.size());
    for (const auto& [id, q] : live) view.queries.push_back(&q);
    return view;
  };
  if (w.durable) {
    std::filesystem::remove_all(dir);
    DurabilityConfig dc;
    dc.enabled = true;
    dc.dir = dir;
    dc.wal_sync = Wal::SyncMode::kFlush;
    dc.checkpoint_every = kCheckpointEvery;
    durability = std::make_unique<DurabilityManager>(dc);
    if (!durability->Initialize(checkpoint_view(0))) durability.reset();
  }

  uint64_t posts = 0, inserts = 0, moves = 0;
  QueryId next_query_id = in.initial.size() + 1;
  SpatioTextualObject object;
  const int64_t begin = perfbench::NowNanos();
  for (uint64_t i = 0; i < n_ops; ++i) {
    const OpKind kind = KindOf(w, i);
    switch (kind) {
      case OpKind::kPost: {
        const uint32_t p = static_cast<uint32_t>(posts % in.objects.size());
        const uint64_t id = ++posts;
        ScopedSpan root(tracer, "post", id);
        const SpatioTextualObject& src = in.objects[p];
        if (w.text_posts) {
          ScopedSpan span(tracer, "text.tokenize", id);
          std::vector<TermId> ids;
          for (const auto& tok : tokenizer.Tokenize(in.texts[p])) {
            const TermId t = vocab.Lookup(tok);
            if (t != kInvalidTerm) ids.push_back(t);
          }
          object = SpatioTextualObject::FromTerms(id, src.loc, std::move(ids));
        } else {
          object.id = id;
          object.loc = src.loc;
          object.terms.assign(src.terms.begin(), src.terms.end());
          object.timestamp_us = static_cast<int64_t>(posts - 1) * 10;
          object.ttl_us = src.ttl_us;
        }
        const int64_t publish_us = NowMicros();
        const StreamTuple tuple = StreamTuple::OfObject(object);
        {
          ScopedSpan span(tracer, "dispatch.route", id);
          cluster.dispatcher().Route(tuple, &routed);
        }
        for (const auto& d : routed) {
          matches.clear();
          {
            ScopedSpan span(tracer, "index.match", id);
            cluster.worker(d.worker).Match(object, &matches);
          }
          st.matches += matches.size();
          for (const MatchResult& m : matches) {
            bool fresh = false;
            {
              ScopedSpan span(tracer, "dispatch.merger", id);
              fresh = cluster.merger().Accept(m);
            }
            if (!fresh) continue;
            const auto q = live.find(m.query_id);
            if (q != live.end() && q->second.cls == SubscriptionClass::kTopK) {
              ScopedSpan span(tracer, "subscribe.offer", id);
              Delivery dv;
              dv.query_id = m.query_id;
              dv.object_id = m.object_id;
              dv.score = m.score;
              dv.expire_us = m.expire_us;
              topk.Offer(dv);
              continue;
            }
            ScopedSpan span(tracer, "api.deliver", id);
            if (router.AcceptFresh(m.query_id, m.object_id)) {
              router.Deliver(m, publish_us);
              st.fresh++;
            }
          }
        }
        break;
      }
      case OpKind::kInsert: {
        STSQuery q = in.pool[inserts++ % in.pool.size()];
        q.id = next_query_id++;
        ScopedSpan root(tracer, "subscribe", q.id);
        if (durability != nullptr) {
          ScopedSpan span(tracer, "persist.wal_append", q.id);
          durability->wal().AppendSubscribe(q, vocab);
          st.wal_records++;
        }
        {
          ScopedSpan span(tracer, "api.route", q.id);
          router.Route(q.id, session);
        }
        if (q.cls == SubscriptionClass::kTopK) topk.Register(q.id, q.k);
        apply_insert(q, q.id);
        fifo.push_back(q.id);
        live[q.id] = std::move(q);
        break;
      }
      case OpKind::kCancel: {
        const QueryId id = fifo.front();
        fifo.pop_front();
        ScopedSpan root(tracer, "cancel", id);
        if (durability != nullptr) {
          ScopedSpan span(tracer, "persist.wal_append", id);
          durability->wal().AppendUnsubscribe(id);
          st.wal_records++;
        }
        const auto it = live.find(id);
        const STSQuery q = it->second;
        live.erase(it);
        {
          ScopedSpan span(tracer, "api.route", id);
          router.Unroute(id);
        }
        topk.Forget(id);
        apply_delete(q, id);
        break;
      }
      case OpKind::kUpdate: {
        const QueryId id = fifo[Mix64(i) % fifo.size()];
        ScopedSpan root(tracer, "update", id);
        STSQuery& q = live.at(id);
        const STSQuery old = q;
        q.region = in.moves[moves++ % in.moves.size()];
        if (durability != nullptr) {
          ScopedSpan span(tracer, "persist.wal_append", id);
          durability->wal().AppendUpdate(q, vocab);
          st.wal_records++;
        }
        apply_delete(old, id);
        apply_insert(q, id);
        break;
      }
    }
    if (durability != nullptr && durability->ShouldCheckpoint()) {
      st.wal_bytes += FileBytes(durability->wal().path());
      ScopedSpan root(tracer, "persist.checkpoint", i);
      const uint64_t seq = durability->BeginCheckpoint();
      durability->CommitCheckpoint(seq, checkpoint_view(seq));
      st.checkpoints++;
    }
  }
  st.seconds = static_cast<double>(perfbench::NowNanos() - begin) / 1e9;
  st.ops = n_ops;
  if (durability != nullptr) {
    durability->wal().Flush();
    st.wal_bytes += FileBytes(durability->wal().path());
    const uint64_t seq = DurabilityManager::ReadCurrentSeq(dir);
    std::error_code ec;
    st.checkpoint_mb =
        static_cast<double>(std::filesystem::file_size(
            DurabilityManager::CheckpointPath(dir, seq), ec)) /
        (1024.0 * 1024.0);
    durability.reset();
    std::filesystem::remove_all(dir);
  }
  return st;
}

// ---- output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.4f %-9s n=%" PRIu64 "\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    // JSON has no infinity; a latency that missed every limit (a failed
    // call) prints as the largest double.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value)
                      ? metrics[i].value
                      : std::numeric_limits<double>::max());
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Confines the synchronous facade's process to one CPU, the lowest it may
// use, before its WAL flusher thread starts (threads inherit the mask).
// Every subscription operation under kFlush hands its record to the flusher
// and waits for it: across two CPUs of a shared VM that is an idle-CPU
// wake-up whose cost the host decides (durable-churn's ops/s halved for
// minutes at a time); on one CPU it is two context switches, which are the
// program's own cost. Returns the CPU, or -1 if the mask could not be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int BusyThreads(const WorkloadDef& w) {
  // Publisher, plus per shard the dispatchers and workers of a started
  // engine; the synchronous facade runs on the publisher alone.
  return 1 + (w.threaded ? w.shards * (w.dispatchers + w.workers) : 0);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".perfbench/work";
  std::string commit = "unknown";
};

// ---- one run ------------------------------------------------------------------------

int RunWorkload(const WorkloadDef& w, const Args& args) {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("workload %s (%s run)\n  why: %s\n", w.name,
              args.trace ? "traced" : "untraced", w.why);
  std::printf(
      "machine: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s seed=%" PRIu64
      " commit=%s\n",
      nproc, CpuModel().c_str(), PS2BENCH_COMPILER, PS2BENCH_BUILD_TYPE,
      args.seed, args.commit.c_str());
  std::printf(
      "topology: %s, shards=%d dispatchers/shard=%d workers/shard=%d "
      "durable=%d auto_adjust=%d open_rate=%.0f ops/s busy_threads=%d\n",
      w.threaded ? "threaded" : "synchronous", w.shards, w.dispatchers,
      w.workers, w.durable, w.auto_adjust, w.open_rate, BusyThreads(w));
  if (BusyThreads(w) > static_cast<int>(nproc)) {
    std::printf("WARNING: %d busy threads exceed nproc=%u\n", BusyThreads(w),
                nproc);
  }
  if (!w.threaded) {
    const int cpu = PinToOneCpu();
    if (cpu >= 0) {
      std::printf("affinity: pinned to cpu %d (the WAL flusher shares it)\n",
                  cpu);
    } else {
      std::printf("WARNING: could not pin to one cpu; WAL flusher wake-ups "
                  "cross CPUs\n");
    }
  }
  std::fflush(stdout);

  const int64_t gen_begin = NowMicros();
  const Inputs in = Generate(w, args.seed);
  std::printf("inputs: %zu initial subs, %zu pool subs, %zu objects (%.2fs)\n",
              in.initial.size(), in.pool.size(), in.objects.size(),
              static_cast<double>(NowMicros() - gen_begin) / 1e6);
  std::fflush(stdout);

  std::filesystem::create_directories(args.work_dir);
  const std::string dir =
      w.durable ? args.work_dir + "/" + w.name + "-" +
                      std::to_string(static_cast<long>(getpid()))
                : std::string();
  Counters c;
  Tracer facade_tracer;
  Tracer* tracer = args.trace ? &facade_tracer : nullptr;

  // Set-up, several times; the last service is the one measured.
  std::vector<double> setups;
  double mem_mb = 0.0;
  std::unique_ptr<RecordingSink> sink;
  Service service;
  const int setups_wanted = args.trace ? 1 : kSetups;
  for (int k = 0; k < setups_wanted; ++k) {
    if (service.stream != nullptr) TearDown(service);
    sink = std::make_unique<RecordingSink>(args.seed);
    const double rss_before = RssMiB();
    service = SetUp(w, in, sink.get(), dir, &c.failed);
    if (k == 0) mem_mb = RssMiB() - rss_before;
    setups.push_back(service.setup_s);
  }
  c.attempted += in.initial.size() * setups.size();
  const int threads = CountThreads();
  std::printf("set-up: %s s (median %.3f), rss growth %.1f MiB, %d threads "
              "running\n",
              [&] {
                std::string s;
                for (double v : setups) s += std::to_string(v) + " ";
                return s;
              }().c_str(),
              Median(setups), mem_mb, threads);
  std::fflush(stdout);

  Driver driver(w, in, service);
  std::vector<RunReport> reports;
  const double window_s = (1.0 - kBurstShare) * args.seconds / kRounds;
  const double burst_s = kBurstShare * args.seconds / kRounds;

  // The traced run traces every window and every other burst; the gap
  // between its untraced and traced bursts is the tracing overhead.
  OpenLoopLog open_log;
  std::vector<double> tps, untraced;
  double drain_ms = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    driver.set_tracer(tracer);
    sink->set_tracer(tracer);
    OpenWindow(w, service, driver, *sink, window_s, r, &c, &reports,
               &open_log);
    const bool traced_burst = tracer != nullptr && r % 2 == 1;
    driver.set_tracer(traced_burst ? tracer : nullptr);
    sink->set_tracer(traced_burst ? tracer : nullptr);
    const double v =
        ClosedBurst(w, service, driver, burst_s, &c, &drain_ms, &reports);
    (tracer == nullptr || traced_burst ? tps : untraced).push_back(v);
  }
  double overhead_pct = 0.0;
  if (tracer != nullptr) {
    overhead_pct = 100.0 * (Median(untraced) / Median(tps) - 1.0);
    std::printf("tracing overhead (facade): untraced %.0f ops/s, traced %.0f "
                "ops/s -> %.1f%%\n",
                Median(untraced), Median(tps), overhead_pct);
  }
  std::printf("closed-loop bursts (ops/s):");
  for (const double v : tps) std::printf(" %.0f", v);
  std::printf("\n");
  std::fflush(stdout);
  // The window and burst helpers restart the engine after each drain.
  if (w.threaded) reports.push_back(service.stream->Stop());
  const OpenResult open = Analyze(in, open_log, *sink);

  // Session drops and unrouted matches over the whole run.
  const SessionStats sessions = service.stream->delivery_stats();
  const uint64_t unrouted = service.stream->delivery().unrouted();
  c.failed += sessions.dropped;
  bool correct = false;
  CheckRun(w, in, driver.log(), *sink, args.seed, unrouted, &correct);

  // The open loop's latencies and failures, printed in every run. They are
  // not end-to-end gate metrics: on a shared machine, thread wake-ups and
  // memory stalls move the delivery p50 by up to 2x between identical runs,
  // and WAL flusher hand-offs and checkpoint writes move a p99 several-fold.
  // A failed call fails the run instead.
  const std::vector<Metric> tails = {
      {"deliver_p50_us", Median(open.deliver_p50), "us", open.deliveries},
      {"deliver_p99_us", Median(open.deliver_p99), "us", open.deliveries},
      {"post_p99_us", Median(open.post_p99), "us", open.posts},
      {"sub_op_p99_us", Median(open.sub_p99), "us", open.sub_ops},
      {"gen.lag_p99_us", open.lag_p99_us, "us", open.ops},
      {"failed_ratio",
       c.attempted == 0 ? 0.0
                        : static_cast<double>(c.failed) /
                              static_cast<double>(c.attempted),
       "ratio", c.attempted},
  };
  PrintMetrics("open-loop latency (median of per-window percentiles)", tails);
  auto windows = [](const char* name, const std::vector<double>& v) {
    std::printf("  %-30s windows:", name);
    for (const double x : v) std::printf(" %.1f", x);
    std::printf("\n");
  };
  windows("deliver_p50_us", open.deliver_p50);
  windows("deliver_p99_us", open.deliver_p99);
  windows("post_p99_us", open.post_p99);
  windows("sub_op_p99_us", open.sub_p99);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setups), "s", setups.size()},
        {"publish_tps", Median(tps), "tuples/s", tps.size()},
        {"mem_mb", mem_mb, "MiB", 1},
    };
    PrintMetrics("end-to-end metrics", metrics);
  } else {
    // Engine counters are per Start/Stop cycle: summed here, with the
    // per-worker tallies added position by position. Session counters are
    // cumulative, so they come from the last report.
    RunReport total;
    std::vector<uint64_t> cycle_workers;
    for (const RunReport& r : reports) {
      total.MergeShard(r);
      cycle_workers.resize(
          std::max(cycle_workers.size(), r.per_worker_tuples.size()));
      for (size_t k = 0; k < r.per_worker_tuples.size(); ++k) {
        cycle_workers[k] += r.per_worker_tuples[k];
      }
    }
    const RunReport last = reports.empty() ? total : reports.back();
    const bool sync = !w.threaded;
    Cluster* cluster = sync ? &service.stream->cluster() : nullptr;
    DispatchStats dispatch =
        sync ? cluster->dispatcher().stats() : total.dispatch;
    uint64_t tuples = total.tuples_processed;
    std::vector<uint64_t> per_worker = cycle_workers;
    double dispatch_mb = static_cast<double>(last.dispatcher_memory_bytes);
    double index_mb = 0.0;
    for (const size_t b : last.worker_memory_bytes) index_mb += b;
    if (sync) {
      per_worker.clear();
      for (const auto& t : cluster->tallies()) {
        per_worker.push_back(t.objects + t.inserts + t.deletes);
      }
      tuples = c.attempted;
      dispatch_mb = static_cast<double>(cluster->DispatcherMemoryBytes());
      index_mb = 0.0;
      for (int k = 0; k < cluster->num_workers(); ++k) {
        index_mb += static_cast<double>(cluster->WorkerMemoryBytes(k));
      }
    }
    uint64_t worker_sum = 0, worker_max = 0;
    for (const uint64_t v : per_worker) {
      worker_sum += v;
      worker_max = std::max(worker_max, v);
    }
    // A fabric's report lists its workers shard by shard, so a shard's
    // tuples are the sum of its run of `w.workers` entries.
    double shard_share = 0.0;
    if (w.shards > 1 && worker_sum > 0) {
      uint64_t mx = 0;
      for (size_t b = 0; b < per_worker.size(); b += w.workers) {
        uint64_t shard = 0;
        for (size_t k = b; k < std::min(per_worker.size(), b + w.workers);
             ++k) {
          shard += per_worker[k];
        }
        mx = std::max(mx, shard);
      }
      shard_share = static_cast<double>(mx) / worker_sum;
    }
    uint64_t highwater = 0;
    for (const uint64_t h : last.worker_ring_highwater) {
      highwater = std::max(highwater, h);
    }
    double migration_s = 0.0;
    uint64_t migrations = 0, bytes_migrated = total.bytes_migrated;
    for (const AdjustReport& a : service.stream->adjustments()) {
      migration_s += a.migration_seconds;
      migrations += a.queries_moved;
      bytes_migrated += a.bytes_migrated;
    }
    migrations += total.queries_migrated;

    // Partition build on the bootstrap sample, as Bootstrap runs it: the
    // fabric builds one plan with the per-shard worker count.
    std::vector<double> builds;
    for (int k = 0; k < kSetups; ++k) {
      Vocabulary vocab = in.vocab;
      AccumulateVocabularyCounts(in.sample, vocab);
      PartitionConfig cfg;
      cfg.num_workers = w.workers;
      const int64_t b = NowMicros();
      MakePartitioner("hybrid")->Build(in.sample, vocab, cfg);
      builds.push_back(static_cast<double>(NowMicros() - b) / 1e6);
    }

    // Facade spans.
    const auto facade_spans = perfbench::Summarize(facade_tracer);
    std::printf("\nfacade spans (traced run)\n");
    for (const auto& [name, t] : facade_spans) {
      std::printf("  %-22s n=%-9" PRIu64 " total %10.2f ms  mean %8.3f us\n",
                  name.c_str(), t.count, t.total_ns / 1e6,
                  t.total_ns / 1e3 / static_cast<double>(t.count));
    }

    // Layer replay over the same inputs: untraced, then traced.
    const uint64_t replay_ops = w.threaded ? 60000 : 100000;
    const std::string replay_dir = dir.empty() ? dir : dir + "-replay";
    const ReplayStats plain =
        ReplayLayers(w, in, replay_ops, replay_dir, nullptr);
    Tracer layer_tracer;
    const ReplayStats traced =
        ReplayLayers(w, in, replay_ops, replay_dir, &layer_tracer);
    const auto layers = perfbench::Summarize(layer_tracer);
    const int64_t root_ns = perfbench::RootTotalNanos(layer_tracer);
    int64_t self_sum = 0;
    std::printf("\nlayer replay: %" PRIu64 " ops through the synchronous "
                "path's layer calls\n",
                traced.ops);
    std::printf("  %-22s %10s %12s %12s %8s\n", "span", "count", "total ms",
                "self ms", "self %");
    for (const auto& [name, t] : layers) {
      self_sum += t.self_ns;
      std::printf("  %-22s %10" PRIu64 " %12.2f %12.2f %7.1f%%\n",
                  name.c_str(), t.count, t.total_ns / 1e6, t.self_ns / 1e6,
                  root_ns == 0 ? 0.0 : 100.0 * t.self_ns / root_ns);
    }
    std::printf("  self times sum to %.3f ms; root spans (post / subscribe / "
                "cancel / update / checkpoint) total %.3f ms\n",
                self_sum / 1e6, root_ns / 1e6);
    std::printf("tracing overhead (replay): untraced %.3f s, traced %.3f s "
                "-> %.1f%%\n",
                plain.seconds, traced.seconds,
                100.0 * (traced.seconds / plain.seconds - 1.0));

    auto mean_us = [&](const char* name) {
      const auto it = layers.find(name);
      if (it == layers.end() || it->second.count == 0) return 0.0;
      return it->second.self_ns / 1e3 / static_cast<double>(it->second.count);
    };
    auto count_of = [&](const char* name) -> uint64_t {
      const auto it = layers.find(name);
      return it == layers.end() ? 0 : it->second.count;
    };

    // Wire cost over the workload's own objects (fabric only).
    double encode_us = 0.0, decode_us = 0.0, frame_bytes = 0.0;
    uint64_t frames = 0;
    if (w.shards > 1) {
      std::vector<std::string> encoded;
      encoded.reserve(in.objects.size());
      int64_t b = perfbench::NowNanos();
      for (const SpatioTextualObject& o : in.objects) {
        encoded.push_back(EncodeObjectFrame(o, 0));
      }
      encode_us = (perfbench::NowNanos() - b) / 1e3 / in.objects.size();
      Frame f;
      uint64_t decoded = 0;
      b = perfbench::NowNanos();
      for (const std::string& e : encoded) decoded += DecodeFrame(e, &f);
      decode_us = (perfbench::NowNanos() - b) / 1e3 / encoded.size();
      for (const std::string& e : encoded) frame_bytes += e.size();
      frame_bytes /= static_cast<double>(encoded.size());
      frames = encoded.size();
      if (decoded != encoded.size()) correct = false;
    }

    const double matches_emitted =
        sync ? static_cast<double>(traced.matches)
             : static_cast<double>(total.matches_emitted);
    const double session_deliveries =
        sync ? static_cast<double>(traced.fresh)
             : static_cast<double>(last.session_deliveries);
    const uint64_t tuples_routed =
        dispatch.objects_routed + dispatch.inserts_routed +
        dispatch.deletes_routed;
    metrics = {
        {"gen.lag_p99_us", open.lag_p99_us, "us", open.ops},
        {"open.deliver_p50_us", tails[0].value, "us", tails[0].samples},
        {"open.deliver_p99_us", tails[1].value, "us", tails[1].samples},
        {"open.post_p99_us", tails[2].value, "us", tails[2].samples},
        {"open.sub_op_p99_us", tails[3].value, "us", tails[3].samples},
        {"api.deliver_us", mean_us("api.deliver"), "us",
         count_of("api.deliver")},
        {"api.route_us", mean_us("api.route"), "us", count_of("api.route")},
        {"api.dedup_kills",
         static_cast<double>(service.stream->delivery().dedup_kills()),
         "count", 1},
        {"api.useful_match_ratio",
         matches_emitted == 0 ? 0.0 : session_deliveries / matches_emitted,
         "ratio", static_cast<uint64_t>(matches_emitted)},
        {"api.session_drops", static_cast<double>(sessions.dropped), "count",
         1},
        {"text.tokenize_us", mean_us("text.tokenize"), "us",
         count_of("text.tokenize")},
        {"dispatch.route_us", mean_us("dispatch.route"), "us",
         count_of("dispatch.route")},
        {"dispatch.fanout", dispatch.ObjectFanout(), "workers/object",
         dispatch.objects_routed},
        {"dispatch.discard_ratio",
         dispatch.objects_routed == 0
             ? 0.0
             : static_cast<double>(dispatch.objects_discarded) /
                   static_cast<double>(dispatch.objects_routed),
         "ratio", dispatch.objects_routed},
        {"dispatch.merger_us", mean_us("dispatch.merger"), "us",
         count_of("dispatch.merger")},
        {"dispatch.mem_mb", dispatch_mb / (1024.0 * 1024.0), "MiB", 1},
        {"index.mem_mb", index_mb / (1024.0 * 1024.0), "MiB", 1},
        {"index.match_us", mean_us("index.match"), "us",
         count_of("index.match")},
        {"index.insert_us", mean_us("index.insert"), "us",
         count_of("index.insert")},
        {"index.delete_us", mean_us("index.delete"), "us",
         count_of("index.delete")},
        {"partition.build_s", Median(builds), "s", builds.size()},
        {"partition.max_worker_share",
         worker_sum == 0 ? 0.0 : static_cast<double>(worker_max) / worker_sum,
         "ratio", worker_sum},
        {"partition.total_load",
         tuples == 0 ? 0.0 : static_cast<double>(worker_sum) / tuples,
         "ratio", tuples},
        {"runtime.worker_svc_p50_us", total.latency.PercentileMicros(0.50),
         "us", total.latency.count()},
        {"runtime.worker_svc_p99_us", total.latency.PercentileMicros(0.99),
         "us", total.latency.count()},
        {"runtime.ring_highwater", static_cast<double>(highwater), "count",
         1},
        {"runtime.parks_per_tuple",
         tuples_routed == 0 || sync
             ? 0.0
             : static_cast<double>(total.wait_parks) / total.tuples_processed,
         "ratio", total.tuples_processed},
        {"runtime.drain_ms", sync ? 0.0 : drain_ms, "ms", 1},
        {"persist.wal_append_us", mean_us("persist.wal_append"), "us",
         count_of("persist.wal_append")},
        {"persist.wal_bytes_per_op",
         traced.wal_records == 0
             ? 0.0
             : static_cast<double>(traced.wal_bytes) / traced.wal_records,
         "bytes", traced.wal_records},
        {"persist.checkpoint_ms",
         count_of("persist.checkpoint") == 0
             ? 0.0
             : layers.at("persist.checkpoint").total_ns / 1e6 /
                   count_of("persist.checkpoint"),
         "ms", count_of("persist.checkpoint")},
        {"persist.checkpoint_mb", traced.checkpoint_mb, "MiB",
         traced.checkpoints},
        {"shard.encode_us", encode_us, "us", frames},
        {"shard.decode_us", decode_us, "us", frames},
        {"shard.bytes_per_object", frame_bytes, "bytes", frames},
        {"shard.frame_retries", static_cast<double>(total.frame_retries),
         "count", 1},
        {"shard.frame_redeliveries",
         static_cast<double>(total.frame_redeliveries), "count", 1},
        {"shard.max_shard_share", shard_share, "ratio", 1},
        {"subscribe.offer_us", mean_us("subscribe.offer"), "us",
         count_of("subscribe.offer")},
        {"adjust.migrations", static_cast<double>(migrations), "queries", 1},
        {"adjust.bytes_migrated", static_cast<double>(bytes_migrated),
         "bytes", 1},
        {"adjust.migration_s", migration_s, "s", 1},
        {"trace.overhead_pct", overhead_pct, "%",
         untraced.size() + tps.size()},
    };
    PrintMetrics("per-layer metrics", metrics);
  }

  TearDown(service);
  if (!correct) {
    std::printf("FAILED: deliveries differ from ReferenceMatcher\n");
  }
  // The workloads are sized so that no call fails on a healthy run.
  if (c.failed > 0) {
    std::printf("FAILED: %" PRIu64 " calls failed or deliveries dropped\n",
                c.failed);
  }
  std::printf("%s\n",
              ResultJson(correct, c.attempted, c.failed, metrics).c_str());
  std::fflush(stdout);
  return correct && c.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ps2

int main(int argc, char** argv) {
  ps2::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  const ps2::WorkloadDef* w = ps2::FindWorkload(args.workload);
  if (w == nullptr || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: ps2bench --workload <steady-match|durable-churn|"
                 "sharded-match> --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return ps2::RunWorkload(*w, args);
}
