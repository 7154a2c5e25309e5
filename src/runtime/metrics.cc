#include "runtime/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace ps2 {

namespace {

// printf-append that can never truncate: measure with a first vsnprintf
// pass, then format straight into the string's own storage. Summary lines
// embed LatencyHistogram::Summary() strings of unbounded width, so a fixed
// stack buffer silently loses the tail.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void
AppendF(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (needed > 0) {
    const size_t base = out->size();
    out->resize(base + static_cast<size_t>(needed) + 1);
    std::vsnprintf(&(*out)[base], static_cast<size_t>(needed) + 1, fmt, args);
    out->resize(base + static_cast<size_t>(needed));
  }
  va_end(args);
}

}  // namespace

void RunReport::MergeShard(const RunReport& shard) {
#define PS2_SUM_COUNTER(field, type, help) field += shard.field;
  PS2_RUN_COUNTERS(PS2_SUM_COUNTER)
#undef PS2_SUM_COUNTER
  // Shards ran concurrently: the fleet's wall time is the slowest shard's,
  // and throughput is the merged totals over that time — summing per-shard
  // rates would double-count the overlap.
  wall_seconds = std::max(wall_seconds, shard.wall_seconds);
  throughput_tps =
      wall_seconds > 0 ? tuples_processed / wall_seconds : 0.0;
  latency.Merge(shard.latency);
  delivery_latency.Merge(shard.delivery_latency);
  per_worker_tuples.insert(per_worker_tuples.end(),
                           shard.per_worker_tuples.begin(),
                           shard.per_worker_tuples.end());
  dispatcher_memory_bytes += shard.dispatcher_memory_bytes;
  worker_memory_bytes.insert(worker_memory_bytes.end(),
                             shard.worker_memory_bytes.begin(),
                             shard.worker_memory_bytes.end());
  dispatch.Merge(shard.dispatch);
  worker_ring_highwater.insert(worker_ring_highwater.end(),
                               shard.worker_ring_highwater.begin(),
                               shard.worker_ring_highwater.end());
  shards += shard.shards;
}

std::string FleetSummary(const std::vector<RunReport>& shard_reports,
                         const RunReport& fleet) {
  std::string out;
  for (size_t i = 0; i < shard_reports.size(); ++i) {
    AppendF(&out, "shard %zu: ", i);
    out += shard_reports[i].Summary();
    out += '\n';
  }
  out += "fleet:   ";
  out += fleet.Summary();
  return out;
}

std::string RunReport::Summary() const {
  std::string out;
  if (shards > 1) AppendF(&out, "shards=%d ", shards);
  AppendF(&out,
          "tuples=%llu tps=%.0f emitted=%llu delivered=%llu "
          "dups=%llu lat{%s}",
          static_cast<unsigned long long>(tuples_processed), throughput_tps,
          static_cast<unsigned long long>(matches_emitted),
          static_cast<unsigned long long>(matches_delivered),
          static_cast<unsigned long long>(duplicates_suppressed),
          latency.Summary().c_str());
  if (session_deliveries > 0 || session_drops > 0 || matches_unrouted > 0) {
    AppendF(&out,
            " sessions{delivered=%llu dropped=%llu unrouted=%llu "
            "lat{%s}}",
            static_cast<unsigned long long>(session_deliveries),
            static_cast<unsigned long long>(session_drops),
            static_cast<unsigned long long>(matches_unrouted),
            delivery_latency.Summary().c_str());
  }
  if (wait_spins > 0 || wait_parks > 0) {
    uint64_t ring_hw = 0;
    for (const uint64_t h : worker_ring_highwater) {
      ring_hw = std::max(ring_hw, h);
    }
    AppendF(&out, " rings{hw=%llu spins=%llu parks=%llu}",
            static_cast<unsigned long long>(ring_hw),
            static_cast<unsigned long long>(wait_spins),
            static_cast<unsigned long long>(wait_parks));
  }
  if (transport_errors > 0 || frame_retries > 0 || frame_redeliveries > 0 ||
      frames_dropped > 0 || fabric_dup_suppressed > 0 || shard_restarts > 0 ||
      shards_quarantined > 0) {
    AppendF(&out,
            " faults{xport_err=%llu retries=%llu redeliveries=%llu "
            "dropped=%llu dup_supp=%llu restarts=%llu quarantined=%llu}",
            static_cast<unsigned long long>(transport_errors),
            static_cast<unsigned long long>(frame_retries),
            static_cast<unsigned long long>(frame_redeliveries),
            static_cast<unsigned long long>(frames_dropped),
            static_cast<unsigned long long>(fabric_dup_suppressed),
            static_cast<unsigned long long>(shard_restarts),
            static_cast<unsigned long long>(shards_quarantined));
  }
  if (quota_rejections > 0 || rate_limited > 0 || overload_trips > 0 ||
      overload_sheds > 0) {
    AppendF(&out, " admission{quota=%llu rate=%llu trips=%llu sheds=%llu}",
            static_cast<unsigned long long>(quota_rejections),
            static_cast<unsigned long long>(rate_limited),
            static_cast<unsigned long long>(overload_trips),
            static_cast<unsigned long long>(overload_sheds));
  }
  return out;
}

}  // namespace ps2
