#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/json.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  items_.emplace_back(name, std::make_pair(std::isfinite(value) ? value : 0.0,
                                           unit));
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += sgcl::JsonEscape(items_[i].first) + "\":{\"value\":" +
           sgcl::JsonDouble(items_[i].second.first) + ",\"unit\":\"" +
           sgcl::JsonEscape(items_[i].second.second) + "\"}";
  }
  return out + "}";
}

void RunResult::AddCheck(const std::string& name, bool ok,
                         const std::string& detail) {
  checks.push_back({name, ok, detail});
  if (!ok) correct = false;
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":" + metrics.ToJson();
  out += ",\"checks\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":\"" + sgcl::JsonEscape(checks[i].name) +
           "\",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":\"" + sgcl::JsonEscape(checks[i].detail) + "\"}";
  }
  out += "],\"notes\":[";
  for (size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += sgcl::JsonEscape(notes[i]);
    out += '"';
  }
  return out + "]}";
}

int64_t CounterOr0(const sgcl::MetricsSnapshot& snap,
                   const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double HistQuantile(const sgcl::MetricsSnapshot& snap,
                    const std::string& name, double q) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
  const double v = it->second.Quantile(q);
  return std::isfinite(v) ? v : 0.0;
}

double HistMean(const sgcl::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count);
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

MetricSet LayerMetricSet(const std::map<std::string, double>& values) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"graph.batch_build_us", "us/batch"},
      {"core.generator_ms", "ms/batch"},
      {"core.generator_nodes_per_s", "nodes/s"},
      {"core.forward_ms", "ms/batch"},
      {"core.forward_self_ms", "ms/batch"},
      {"core.loss_ms", "ms/batch"},
      {"nn.encode_nodes_ms", "ms/batch"},
      {"nn.encode_calls_per_batch", "calls/batch"},
      {"nn.gin_plan_us_per_graph", "us/graph"},
      {"tensor.backward_ms", "ms/batch"},
      {"tensor.optimizer_ms", "ms/batch"},
      {"tensor.matmul_gflop_per_batch", "GFLOP/batch"},
      {"data.fetch_us_p50", "us"},
      {"data.fetch_us_p99", "us"},
      {"data.shard_decodes", "count"},
      {"data.shard_cache_hit_ratio", "ratio"},
      {"data.shard_cache_lookups", "count"},
      {"data.prefetch_stall_ms", "ms/batch"},
      {"comms.allreduce_wait_ms", "ms/round"},
      {"comms.bytes_per_round", "B/round"},
      {"comms.rounds", "count"},
      {"comms.rank_compute_share", "ratio"},
      {"common.pool_queue_wait_us_p50", "us"},
      {"common.pool_queue_wait_us_p99", "us"},
      {"serve.parse_us", "us"},
      {"serve.queue_wait_us_p50", "us"},
      {"serve.queue_wait_us_p99", "us"},
      {"serve.batch_graphs_mean", "graphs"},
      {"serve.infer_us_p50", "us"},
      {"serve.infer_us_p99", "us"},
      {"serve.handoff_us", "us"},
      {"serve.http_floor_us", "us"},
      {"serve.rejected", "count"},
      {"serve.gen_lag_ms_p99", "ms"},
      {"serve.embed_ms_p90", "ms"},
      {"serve.embed_ms_p99", "ms"},
      {"serve.max_rps_at_slo", "1/s"},
      {"trace.overhead_pct", "%"},
      {"trace.blocking_coverage_pct", "%"},
  };
  MetricSet set;
  size_t used = 0;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    if (it != values.end()) ++used;
    set.Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  SGCL_CHECK(used == values.size());
  return set;
}

}  // namespace perfbench
