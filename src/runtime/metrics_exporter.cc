#include "runtime/metrics_exporter.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace ps2 {

namespace {

// One exported scalar: how it renders (counter vs gauge, integer vs float)
// and how to read it off a report. Function pointers, not captures, so one
// static table serves the fleet row and every per-shard row.
struct Metric {
  const char* name;  // suffix after the prefix, e.g. "tuples_processed"
  const char* help;
  const char* type;  // "counter" | "gauge"
  bool integral;
  double (*get)(const RunReport&);
};

#define PS2_LISTED_METRIC(field, type, help)                           \
  Metric{#field, help, #type, true,                                    \
         [](const RunReport& r) { return static_cast<double>(r.field); }},

const Metric kMetrics[] = {
    PS2_RUN_COUNTERS(PS2_LISTED_METRIC)
    Metric{"shards", "Engine shards this report covers.", "gauge", true,
           [](const RunReport& r) { return static_cast<double>(r.shards); }},
    Metric{"wall_seconds", "Wall-clock seconds of the reported run.", "gauge",
           false, [](const RunReport& r) { return r.wall_seconds; }},
    Metric{"throughput_tps", "Tuples per second of the reported run.",
           "gauge", false, [](const RunReport& r) { return r.throughput_tps; }},
};

#undef PS2_LISTED_METRIC

struct LatencyMetric {
  const char* name;
  const char* help;
  const LatencyHistogram& (*get)(const RunReport&);
};

const LatencyMetric kLatencies[] = {
    {"match_latency_us", "Tuple-process to match latency (microseconds).",
     [](const RunReport& r) -> const LatencyHistogram& { return r.latency; }},
    {"delivery_latency_us",
     "Publish to session-delivery latency (microseconds).",
     [](const RunReport& r) -> const LatencyHistogram& {
       return r.delivery_latency;
     }},
};

constexpr double kQuantiles[] = {0.5, 0.9, 0.99};

void AppendValue(std::string* out, const Metric& m, const RunReport& r) {
  char buf[64];
  if (m.integral) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(m.get(r)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", m.get(r));
  }
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

// Atomic publish: a scraper reading `path` sees either the previous dump or
// this one, never a prefix.
bool WriteFileAtomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << body;
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

std::string RenderPrometheus(const RunReport& report,
                             const std::vector<RunReport>* shard_reports,
                             const std::string& prefix) {
  std::string out;
  out.reserve(4096);
  for (const Metric& m : kMetrics) {
    const std::string full = prefix + "_" + m.name;
    out += "# HELP " + full + " " + m.help + "\n";
    out += "# TYPE " + full + " " + m.type + "\n";
    out += full + " ";
    AppendValue(&out, m, report);
    out += '\n';
    if (shard_reports != nullptr) {
      for (size_t s = 0; s < shard_reports->size(); ++s) {
        out += full + "{shard=\"" + std::to_string(s) + "\"} ";
        AppendValue(&out, m, (*shard_reports)[s]);
        out += '\n';
      }
    }
  }
  for (const LatencyMetric& lm : kLatencies) {
    const std::string full = prefix + "_" + lm.name;
    const LatencyHistogram& h = lm.get(report);
    out += "# HELP " + full + " " + lm.help + "\n";
    out += "# TYPE " + full + " summary\n";
    for (const double q : kQuantiles) {
      out += full + "{quantile=\"";
      AppendDouble(&out, q);
      out += "\"} ";
      AppendDouble(&out, h.count() > 0 ? h.PercentileMicros(q) : 0.0);
      out += '\n';
    }
    out += full + "_sum ";
    AppendDouble(&out, h.MeanMicros() * static_cast<double>(h.count()));
    out += '\n';
    out += full + "_count " + std::to_string(h.count()) + "\n";
  }
  return out;
}

std::string RenderJson(const RunReport& report) {
  std::string out = "{\n";
  for (const Metric& m : kMetrics) {
    out += "  \"";
    out += m.name;
    out += "\": ";
    AppendValue(&out, m, report);
    out += ",\n";
  }
  bool first_latency = true;
  for (const LatencyMetric& lm : kLatencies) {
    if (!first_latency) out += ",\n";
    first_latency = false;
    const LatencyHistogram& h = lm.get(report);
    out += "  \"";
    out += lm.name;
    out += "\": {\"count\": " + std::to_string(h.count());
    out += ", \"mean\": ";
    AppendDouble(&out, h.MeanMicros());
    out += ", \"max\": ";
    AppendDouble(&out, h.MaxMicros());
    for (const double q : kQuantiles) {
      char key[16];
      std::snprintf(key, sizeof(key), "p%g", q * 100);
      out += ", \"";
      out += key;
      out += "\": ";
      AppendDouble(&out, h.count() > 0 ? h.PercentileMicros(q) : 0.0);
    }
    out += "}";
  }
  out += "\n}\n";
  return out;
}

MetricsExporter::MetricsExporter(Options options, SnapshotFn snapshot)
    : options_(std::move(options)), snapshot_(std::move(snapshot)) {}

MetricsExporter::~MetricsExporter() { Stop(); }

bool MetricsExporter::WriteOnce() {
  const RunReport report = snapshot_();
  bool ok = true;
  if (!options_.prometheus_path.empty()) {
    ok &= WriteFileAtomic(options_.prometheus_path,
                          RenderPrometheus(report, nullptr, options_.prefix));
  }
  if (!options_.json_path.empty()) {
    ok &= WriteFileAtomic(options_.json_path, RenderJson(report));
  }
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

void MetricsExporter::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void MetricsExporter::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void MetricsExporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    WriteOnce();
    lock.lock();
  }
  // Final dump so a graceful shutdown leaves current files behind.
  lock.unlock();
  WriteOnce();
}

}  // namespace ps2
