#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/metrics_exporter.h"
#include "runtime/ps2stream.h"
#include "test_util.h"

namespace ps2 {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

RunReport MakeReport() {
  RunReport r;
  r.tuples_processed = 12345;
  r.objects = 12000;
  r.matches_emitted = 900;
  r.matches_delivered = 800;
  r.duplicates_suppressed = 100;
  r.session_deliveries = 780;
  r.session_drops = 20;
  r.quota_rejections = 3;
  r.rate_limited = 7;
  r.overload_trips = 1;
  r.overload_sheds = 2;
  r.live_subscriptions = 42;
  r.wall_seconds = 1.5;
  r.throughput_tps = 8230.0;
  r.latency.Record(10.0);
  r.latency.Record(20.0);
  r.latency.Record(30.0);
  return r;
}

// ---------------------------------------------------------------------------
// Prometheus rendering
// ---------------------------------------------------------------------------

TEST(MetricsExporterTest, PrometheusEmitsHelpTypeAndValues) {
  const std::string out = RenderPrometheus(MakeReport(), nullptr);

  EXPECT_NE(out.find("# HELP ps2_tuples_processed "), std::string::npos);
  EXPECT_NE(out.find("# TYPE ps2_tuples_processed counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_tuples_processed 12345\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_quota_rejections 3\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_rate_limited 7\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_overload_trips 1\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_overload_sheds 2\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE ps2_live_subscriptions gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_live_subscriptions 42\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_shards 1\n"), std::string::npos);

  // Latency renders as a Prometheus summary: quantiles, _sum and _count.
  EXPECT_NE(out.find("# TYPE ps2_match_latency_us summary\n"),
            std::string::npos);
  EXPECT_NE(out.find("ps2_match_latency_us{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(out.find("ps2_match_latency_us{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_match_latency_us_sum 60\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_match_latency_us_count 3\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_delivery_latency_us_count 0\n"),
            std::string::npos);
}

TEST(MetricsExporterTest, PrometheusHonorsPrefix) {
  const std::string out = RenderPrometheus(MakeReport(), nullptr, "svc");
  EXPECT_NE(out.find("\nsvc_tuples_processed 12345\n"), std::string::npos);
  EXPECT_EQ(out.find("ps2_"), std::string::npos);
}

TEST(MetricsExporterTest, PrometheusAddsPerShardLabels) {
  RunReport fleet = MakeReport();
  fleet.shards = 2;
  RunReport s0;
  s0.tuples_processed = 10;
  RunReport s1;
  s1.tuples_processed = 20;
  const std::vector<RunReport> shards = {s0, s1};

  const std::string out = RenderPrometheus(fleet, &shards);
  EXPECT_NE(out.find("\nps2_tuples_processed 12345\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_tuples_processed{shard=\"0\"} 10\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_tuples_processed{shard=\"1\"} 20\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_shards 2\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

TEST(MetricsExporterTest, JsonIsFlatBalancedAndComplete) {
  const std::string out = RenderJson(MakeReport());

  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.substr(out.size() - 2), "}\n");
  // No trailing comma before the closing brace (strict-JSON killers).
  EXPECT_EQ(out.find(",\n}"), std::string::npos);
  EXPECT_EQ(out.find(",}"), std::string::npos);

  EXPECT_NE(out.find("\"tuples_processed\": 12345"), std::string::npos);
  EXPECT_NE(out.find("\"quota_rejections\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"rate_limited\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"live_subscriptions\": 42"), std::string::npos);
  EXPECT_NE(out.find("\"match_latency_us\": {\"count\": 3"),
            std::string::npos);
  EXPECT_NE(out.find("\"p50\": "), std::string::npos);
  EXPECT_NE(out.find("\"p99\": "), std::string::npos);

  int depth = 0;
  for (const char c : out) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// Rendered bytes pinned against the exporter's previous hand-written table
// ---------------------------------------------------------------------------

// Every PS2_RUN_COUNTERS field gets a distinct value (base, base + 1, ... in
// list order), and the hand-written scalars and histograms get values too.
RunReport MakeDistinctReport(uint64_t base) {
  RunReport r;
  uint64_t v = base;
#define PS2_SET_DISTINCT(field, type, help) r.field = v++;
  PS2_RUN_COUNTERS(PS2_SET_DISTINCT)
#undef PS2_SET_DISTINCT
  r.wall_seconds = 2.5 + static_cast<double>(base) / 1000.0;
  r.throughput_tps = 12345.625 + static_cast<double>(base);
  for (int i = 1; i <= 4; ++i) r.latency.Record(10.0 * i);
  r.delivery_latency.Record(250.0);
  r.delivery_latency.Record(1500.0);
  return r;
}

// Captured from the renderers as they were before the metric list existed:
// names, order, HELP/TYPE text and number formatting must not drift.
constexpr char kGoldenPrometheus[] = R"golden(# HELP ps2_tuples_processed Stream tuples processed.
# TYPE ps2_tuples_processed counter
ps2_tuples_processed 1001
ps2_tuples_processed{shard="0"} 2001
ps2_tuples_processed{shard="1"} 3001
# HELP ps2_objects Objects published.
# TYPE ps2_objects counter
ps2_objects 1002
ps2_objects{shard="0"} 2002
ps2_objects{shard="1"} 3002
# HELP ps2_inserts Subscription inserts applied.
# TYPE ps2_inserts counter
ps2_inserts 1003
ps2_inserts{shard="0"} 2003
ps2_inserts{shard="1"} 3003
# HELP ps2_deletes Subscription deletes applied.
# TYPE ps2_deletes counter
ps2_deletes 1004
ps2_deletes{shard="0"} 2004
ps2_deletes{shard="1"} 3004
# HELP ps2_matches_emitted Matches emitted by workers, pre-dedup.
# TYPE ps2_matches_emitted counter
ps2_matches_emitted 1005
ps2_matches_emitted{shard="0"} 2005
ps2_matches_emitted{shard="1"} 3005
# HELP ps2_matches_delivered Deduplicated matches delivered.
# TYPE ps2_matches_delivered counter
ps2_matches_delivered 1006
ps2_matches_delivered{shard="0"} 2006
ps2_matches_delivered{shard="1"} 3006
# HELP ps2_duplicates_suppressed Duplicate matches suppressed.
# TYPE ps2_duplicates_suppressed counter
ps2_duplicates_suppressed 1007
ps2_duplicates_suppressed{shard="0"} 2007
ps2_duplicates_suppressed{shard="1"} 3007
# HELP ps2_objects_discarded Objects discarded by admission.
# TYPE ps2_objects_discarded counter
ps2_objects_discarded 1008
ps2_objects_discarded{shard="0"} 2008
ps2_objects_discarded{shard="1"} 3008
# HELP ps2_session_deliveries Deliveries handed to sessions.
# TYPE ps2_session_deliveries counter
ps2_session_deliveries 1009
ps2_session_deliveries{shard="0"} 2009
ps2_session_deliveries{shard="1"} 3009
# HELP ps2_session_drops Deliveries lost to backpressure or closed sessions.
# TYPE ps2_session_drops counter
ps2_session_drops 1010
ps2_session_drops{shard="0"} 2010
ps2_session_drops{shard="1"} 3010
# HELP ps2_matches_unrouted Matches with no routed session.
# TYPE ps2_matches_unrouted counter
ps2_matches_unrouted 1011
ps2_matches_unrouted{shard="0"} 2011
ps2_matches_unrouted{shard="1"} 3011
# HELP ps2_dedup_kills Duplicates the shared window suppressed.
# TYPE ps2_dedup_kills counter
ps2_dedup_kills 1012
ps2_dedup_kills{shard="0"} 2012
ps2_dedup_kills{shard="1"} 3012
# HELP ps2_wait_spins Wait-strategy spin iterations.
# TYPE ps2_wait_spins counter
ps2_wait_spins 1013
ps2_wait_spins{shard="0"} 2013
ps2_wait_spins{shard="1"} 3013
# HELP ps2_wait_parks Wait-strategy futex parks.
# TYPE ps2_wait_parks counter
ps2_wait_parks 1014
ps2_wait_parks{shard="0"} 2014
ps2_wait_parks{shard="1"} 3014
# HELP ps2_adjustments Load-controller checks that moved work.
# TYPE ps2_adjustments counter
ps2_adjustments 1015
ps2_adjustments{shard="0"} 2015
ps2_adjustments{shard="1"} 3015
# HELP ps2_cells_migrated Cells migrated by load adjustment.
# TYPE ps2_cells_migrated counter
ps2_cells_migrated 1016
ps2_cells_migrated{shard="0"} 2016
ps2_cells_migrated{shard="1"} 3016
# HELP ps2_queries_migrated Queries migrated by load adjustment.
# TYPE ps2_queries_migrated counter
ps2_queries_migrated 1017
ps2_queries_migrated{shard="0"} 2017
ps2_queries_migrated{shard="1"} 3017
# HELP ps2_bytes_migrated Bytes migrated by load adjustment.
# TYPE ps2_bytes_migrated counter
ps2_bytes_migrated 1018
ps2_bytes_migrated{shard="0"} 2018
ps2_bytes_migrated{shard="1"} 3018
# HELP ps2_routing_epochs Routing snapshot versions published.
# TYPE ps2_routing_epochs counter
ps2_routing_epochs 1019
ps2_routing_epochs{shard="0"} 2019
ps2_routing_epochs{shard="1"} 3019
# HELP ps2_transport_errors Transport Send() failures.
# TYPE ps2_transport_errors counter
ps2_transport_errors 1020
ps2_transport_errors{shard="0"} 2020
ps2_transport_errors{shard="1"} 3020
# HELP ps2_frame_retries Reliable-link frame retransmissions.
# TYPE ps2_frame_retries counter
ps2_frame_retries 1021
ps2_frame_retries{shard="0"} 2021
ps2_frame_retries{shard="1"} 3021
# HELP ps2_frame_redeliveries Duplicate frames suppressed by link receivers.
# TYPE ps2_frame_redeliveries counter
ps2_frame_redeliveries 1022
ps2_frame_redeliveries{shard="0"} 2022
ps2_frame_redeliveries{shard="1"} 3022
# HELP ps2_frames_dropped Frames abandoned at quarantined shards.
# TYPE ps2_frames_dropped counter
ps2_frames_dropped 1023
ps2_frames_dropped{shard="0"} 2023
ps2_frames_dropped{shard="1"} 3023
# HELP ps2_fabric_dup_suppressed Cross-restart duplicate matches suppressed.
# TYPE ps2_fabric_dup_suppressed counter
ps2_fabric_dup_suppressed 1024
ps2_fabric_dup_suppressed{shard="0"} 2024
ps2_fabric_dup_suppressed{shard="1"} 3024
# HELP ps2_shard_restarts Supervisor shard restarts.
# TYPE ps2_shard_restarts counter
ps2_shard_restarts 1025
ps2_shard_restarts{shard="0"} 2025
ps2_shard_restarts{shard="1"} 3025
# HELP ps2_shards_quarantined Supervisor quarantine events.
# TYPE ps2_shards_quarantined counter
ps2_shards_quarantined 1026
ps2_shards_quarantined{shard="0"} 2026
ps2_shards_quarantined{shard="1"} 3026
# HELP ps2_quota_rejections Subscribes rejected over a count quota.
# TYPE ps2_quota_rejections counter
ps2_quota_rejections 1027
ps2_quota_rejections{shard="0"} 2027
ps2_quota_rejections{shard="1"} 3027
# HELP ps2_rate_limited Publishes rejected by a tenant token bucket.
# TYPE ps2_rate_limited counter
ps2_rate_limited 1028
ps2_rate_limited{shard="0"} 2028
ps2_rate_limited{shard="1"} 3028
# HELP ps2_overload_trips Overload-controller degraded-mode entries.
# TYPE ps2_overload_trips counter
ps2_overload_trips 1029
ps2_overload_trips{shard="0"} 2029
ps2_overload_trips{shard="1"} 3029
# HELP ps2_overload_sheds Subscribes shed while degraded.
# TYPE ps2_overload_sheds counter
ps2_overload_sheds 1030
ps2_overload_sheds{shard="0"} 2030
ps2_overload_sheds{shard="1"} 3030
# HELP ps2_live_subscriptions Subscriptions live now.
# TYPE ps2_live_subscriptions gauge
ps2_live_subscriptions 1031
ps2_live_subscriptions{shard="0"} 2031
ps2_live_subscriptions{shard="1"} 3031
# HELP ps2_shards Engine shards this report covers.
# TYPE ps2_shards gauge
ps2_shards 2
ps2_shards{shard="0"} 1
ps2_shards{shard="1"} 1
# HELP ps2_wall_seconds Wall-clock seconds of the reported run.
# TYPE ps2_wall_seconds gauge
ps2_wall_seconds 3.501
ps2_wall_seconds{shard="0"} 4.501
ps2_wall_seconds{shard="1"} 5.501
# HELP ps2_throughput_tps Tuples per second of the reported run.
# TYPE ps2_throughput_tps gauge
ps2_throughput_tps 13346.6
ps2_throughput_tps{shard="0"} 14346.6
ps2_throughput_tps{shard="1"} 15346.6
# HELP ps2_match_latency_us Tuple-process to match latency (microseconds).
# TYPE ps2_match_latency_us summary
ps2_match_latency_us{quantile="0.5"} 22.6274
ps2_match_latency_us{quantile="0.9"} 39.9529
ps2_match_latency_us{quantile="0.99"} 44.7246
ps2_match_latency_us_sum 100
ps2_match_latency_us_count 4
# HELP ps2_delivery_latency_us Publish to session-delivery latency (microseconds).
# TYPE ps2_delivery_latency_us summary
ps2_delivery_latency_us{quantile="0.5"} 256
ps2_delivery_latency_us{quantile="0.9"} 1928.03
ps2_delivery_latency_us{quantile="0.99"} 2036
ps2_delivery_latency_us_sum 1750
ps2_delivery_latency_us_count 2
)golden";

constexpr char kGoldenJson[] = R"golden({
  "tuples_processed": 1001,
  "objects": 1002,
  "inserts": 1003,
  "deletes": 1004,
  "matches_emitted": 1005,
  "matches_delivered": 1006,
  "duplicates_suppressed": 1007,
  "objects_discarded": 1008,
  "session_deliveries": 1009,
  "session_drops": 1010,
  "matches_unrouted": 1011,
  "dedup_kills": 1012,
  "wait_spins": 1013,
  "wait_parks": 1014,
  "adjustments": 1015,
  "cells_migrated": 1016,
  "queries_migrated": 1017,
  "bytes_migrated": 1018,
  "routing_epochs": 1019,
  "transport_errors": 1020,
  "frame_retries": 1021,
  "frame_redeliveries": 1022,
  "frames_dropped": 1023,
  "fabric_dup_suppressed": 1024,
  "shard_restarts": 1025,
  "shards_quarantined": 1026,
  "quota_rejections": 1027,
  "rate_limited": 1028,
  "overload_trips": 1029,
  "overload_sheds": 1030,
  "live_subscriptions": 1031,
  "shards": 2,
  "wall_seconds": 3.501,
  "throughput_tps": 13346.6,
  "match_latency_us": {"count": 4, "mean": 25, "max": 40, "p50": 22.6274, "p90": 39.9529, "p99": 44.7246},
  "delivery_latency_us": {"count": 2, "mean": 875, "max": 1500, "p50": 256, "p90": 1928.03, "p99": 2036}
}
)golden";

TEST(MetricsExporterTest, RenderedOutputIsUnchanged) {
  RunReport fleet = MakeDistinctReport(1001);
  fleet.shards = 2;
  const std::vector<RunReport> shards = {MakeDistinctReport(2001),
                                         MakeDistinctReport(3001)};
  EXPECT_EQ(RenderPrometheus(fleet, &shards), kGoldenPrometheus);
  EXPECT_EQ(RenderJson(fleet), kGoldenJson);
}

// ---------------------------------------------------------------------------
// File exporter
// ---------------------------------------------------------------------------

TEST(MetricsExporterTest, WriteOnceWritesBothFiles) {
  const std::string dir = ::testing::TempDir() + "/ps2_metrics_once_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);

  MetricsExporter::Options options;
  options.prometheus_path = dir + "/metrics.prom";
  options.json_path = dir + "/metrics.json";
  MetricsExporter exporter(options, [] { return MakeReport(); });

  ASSERT_TRUE(exporter.WriteOnce());
  EXPECT_EQ(exporter.dumps(), 1u);
  EXPECT_EQ(ReadFileOrDie(options.prometheus_path),
            RenderPrometheus(MakeReport(), nullptr));
  EXPECT_EQ(ReadFileOrDie(options.json_path), RenderJson(MakeReport()));
}

TEST(MetricsExporterTest, PeriodicExporterDumpsAndStopsCleanly) {
  const std::string dir = ::testing::TempDir() + "/ps2_metrics_loop_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);

  MetricsExporter::Options options;
  options.json_path = dir + "/metrics.json";
  options.interval_ms = 5;
  MetricsExporter exporter(options, [] { return MakeReport(); });

  exporter.Start();
  EXPECT_TRUE(exporter.running());
  for (int i = 0; i < 400 && exporter.dumps() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(exporter.dumps(), 2u);
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  // The shutdown path leaves a final, current dump behind.
  EXPECT_EQ(ReadFileOrDie(options.json_path), RenderJson(MakeReport()));
}

// ---------------------------------------------------------------------------
// Summary truncation safety (regression: fixed 448-byte buffer)
// ---------------------------------------------------------------------------

// A report with every optional section active and worst-case-wide counters
// used to overflow Summary()'s fixed buffer, silently truncating the tail
// (the fault and audit sections vanished first — exactly the ones a
// post-mortem needs). The rewrite sizes the output to fit.
RunReport MakeWorstCaseReport() {
  const uint64_t big = std::numeric_limits<uint64_t>::max();
  RunReport r;
  r.shards = 64;
  r.tuples_processed = big;
  r.matches_emitted = big;
  r.matches_delivered = big;
  r.duplicates_suppressed = big;
  r.throughput_tps = 1e18;
  r.session_deliveries = big;
  r.session_drops = big;
  r.matches_unrouted = big;
  r.wait_spins = big;
  r.wait_parks = big;
  r.worker_ring_highwater.assign(8, big);
  r.transport_errors = big;
  r.frame_retries = big;
  r.frame_redeliveries = big;
  r.frames_dropped = big;
  r.fabric_dup_suppressed = big;
  r.shard_restarts = big;
  r.shards_quarantined = big;
  r.quota_rejections = big;
  r.rate_limited = big;
  r.overload_trips = big;
  r.overload_sheds = big;
  for (int i = 0; i < 1000; ++i) r.latency.Record(1e9 + i);
  for (int i = 0; i < 1000; ++i) r.delivery_latency.Record(1e9 + i);
  return r;
}

TEST(RunReportSummaryTest, SummaryIsTruncationSafe) {
  const RunReport r = MakeWorstCaseReport();
  const std::string out = r.Summary();

  // Far beyond the old fixed buffer, and every section survived in full —
  // including the embedded latency digests and the very last byte.
  EXPECT_GT(out.size(), 448u);
  EXPECT_NE(out.find("shards=64 "), std::string::npos);
  EXPECT_NE(out.find(r.latency.Summary()), std::string::npos);
  EXPECT_NE(out.find(r.delivery_latency.Summary()), std::string::npos);
  EXPECT_NE(out.find(" sessions{delivered=18446744073709551615"),
            std::string::npos);
  EXPECT_NE(out.find(" rings{hw=18446744073709551615"), std::string::npos);
  EXPECT_NE(out.find(" faults{xport_err=18446744073709551615"),
            std::string::npos);
  const std::string tail =
      " admission{quota=18446744073709551615 rate=18446744073709551615"
      " trips=18446744073709551615 sheds=18446744073709551615}";
  ASSERT_GE(out.size(), tail.size());
  EXPECT_EQ(out.substr(out.size() - tail.size()), tail);
}

TEST(RunReportSummaryTest, FleetSummaryIsTruncationSafe) {
  const RunReport shard = MakeWorstCaseReport();
  const std::vector<RunReport> shards = {shard, shard, shard};
  RunReport fleet = MakeWorstCaseReport();
  const std::string out = FleetSummary(shards, fleet);

  EXPECT_NE(out.find("shard 0: "), std::string::npos);
  EXPECT_NE(out.find("shard 2: "), std::string::npos);
  EXPECT_NE(out.find("\nfleet:   "), std::string::npos);
  // The fleet line is last and intact.
  const std::string tail =
      " admission{quota=18446744073709551615 rate=18446744073709551615"
      " trips=18446744073709551615 sheds=18446744073709551615}";
  EXPECT_EQ(out.substr(out.size() - tail.size()), tail);
  // Each of the three shard sections plus the fleet line carries the full
  // admission segment.
  size_t count = 0;
  for (size_t pos = out.find(" admission{"); pos != std::string::npos;
       pos = out.find(" admission{", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 4u);
}

TEST(RunReportSummaryTest, MergeShardSumsAdmissionCounters) {
  RunReport fleet;
  RunReport a;
  a.quota_rejections = 2;
  a.rate_limited = 3;
  a.overload_trips = 1;
  a.overload_sheds = 4;
  a.live_subscriptions = 10;
  RunReport b;
  b.quota_rejections = 5;
  b.rate_limited = 7;
  b.overload_trips = 2;
  b.overload_sheds = 1;
  b.live_subscriptions = 20;

  fleet.MergeShard(a);
  fleet.MergeShard(b);
  EXPECT_EQ(fleet.quota_rejections, 7u);
  EXPECT_EQ(fleet.rate_limited, 10u);
  EXPECT_EQ(fleet.overload_trips, 3u);
  EXPECT_EQ(fleet.overload_sheds, 5u);
  EXPECT_EQ(fleet.live_subscriptions, 30u);
}

TEST(RunReportSummaryTest, MergeShardSumsEveryListedCounter) {
  const RunReport a = MakeDistinctReport(1);
  const RunReport b = MakeDistinctReport(1000);
  RunReport fleet;
  fleet.MergeShard(a);
  fleet.MergeShard(b);
#define PS2_EXPECT_SUMMED(field, type, help) \
  EXPECT_EQ(fleet.field, a.field + b.field) << #field;
  PS2_RUN_COUNTERS(PS2_EXPECT_SUMMED)
#undef PS2_EXPECT_SUMMED
}

// ---------------------------------------------------------------------------
// Facade integration
// ---------------------------------------------------------------------------

TEST(PS2StreamMetricsTest, SnapshotAndRenderersWorkLive) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  PS2Stream::SessionPtr session = ps2.OpenSession();
  auto sub = ps2.Subscribe(session, "fire", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "fire nearby").ok());

  // Live snapshot (no Stop() yet): session counters and the gauge overlay.
  const RunReport live = ps2.MetricsSnapshot();
  EXPECT_EQ(live.session_deliveries, 1u);
  EXPECT_EQ(live.live_subscriptions, 1u);

  const std::string prom = ps2.MetricsPrometheus();
  EXPECT_NE(prom.find("\nps2_session_deliveries 1\n"), std::string::npos);
  EXPECT_NE(prom.find("\nps2_live_subscriptions 1\n"), std::string::npos);
  const std::string json = ps2.MetricsJson();
  EXPECT_NE(json.find("\"session_deliveries\": 1"), std::string::npos);
}

TEST(PS2StreamMetricsTest, FabricPrometheusCarriesShardSections) {
  const testutil::TestWorkload workload =
      testutil::MakeWorkload(/*seed=*/23, /*num_objects=*/300,
                             /*num_queries=*/60, /*num_terms=*/30);
  PS2StreamOptions options;
  options.sharding.num_shards = 2;
  PS2Stream ps2(options);
  ps2.Bootstrap(workload.sample);
  ps2.Start();

  PS2Stream::SessionPtr session = ps2.OpenSession();
  auto sub = ps2.Subscribe(session, "fire", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "fire nearby").ok());
  const RunReport report = ps2.Stop();
  EXPECT_EQ(report.shards, 2);

  const std::string prom = ps2.MetricsPrometheus();
  EXPECT_NE(prom.find("\nps2_shards 2\n"), std::string::npos);
  EXPECT_NE(prom.find("ps2_tuples_processed{shard=\"0\"} "),
            std::string::npos);
  EXPECT_NE(prom.find("ps2_tuples_processed{shard=\"1\"} "),
            std::string::npos);
}

// The fabric's fault tallies reach MetricsSnapshot() while the service runs,
// not only after the next Stop() folds them into the report.
TEST(PS2StreamMetricsTest, FabricFaultCountersAreLive) {
  const testutil::TestWorkload workload =
      testutil::MakeWorkload(/*seed=*/29, /*num_objects=*/200,
                             /*num_queries=*/60, /*num_terms=*/30);
  PS2StreamOptions options;
  options.sharding.num_shards = 2;
  options.sharding.retry.max_attempts = 4;
  options.sharding.retry.base_backoff_us = 50;
  options.sharding.retry.max_backoff_us = 200;
  PS2Stream ps2(options);
  ps2.Bootstrap(workload.sample);
  ps2.Start();

  ps2.fabric()->KillShard(1);
  EXPECT_TRUE(ps2.fabric()->CheckHealth().ok());

  const RunReport live = ps2.MetricsSnapshot();
  EXPECT_GE(live.shard_restarts, 1u);
  EXPECT_EQ(live.shard_restarts, ps2.fabric()->fault_stats().shard_restarts);
  ps2.Stop();
}

TEST(PS2StreamMetricsTest, FacadeExporterWritesConfiguredFiles) {
  const std::string dir = ::testing::TempDir() + "/ps2_metrics_facade_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);

  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  PS2Stream::SessionPtr session = ps2.OpenSession();
  auto sub = ps2.Subscribe(session, "fire", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());

  MetricsExporter::Options options;
  options.prometheus_path = dir + "/live.prom";
  options.json_path = dir + "/live.json";
  options.interval_ms = 3600 * 1000;  // rely on the final dump at Stop
  ASSERT_TRUE(ps2.StartMetricsExporter(options));
  EXPECT_FALSE(ps2.StartMetricsExporter(options));  // already running
  ps2.StopMetricsExporter();

  const std::string prom = ReadFileOrDie(dir + "/live.prom");
  EXPECT_NE(prom.find("\nps2_live_subscriptions 1\n"), std::string::npos);
  const std::string json = ReadFileOrDie(dir + "/live.json");
  EXPECT_NE(json.find("\"live_subscriptions\": 1"), std::string::npos);
}

}  // namespace
}  // namespace ps2
