#include "common/bench_compare.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <thread>

#include "common/json.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace sgcl {
namespace {

// google-benchmark time_unit values.
double UnitToNs(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

}  // namespace

Result<std::vector<BenchEntry>> LoadBenchmarkJson(const std::string& path) {
  SGCL_ASSIGN_OR_RETURN(const JsonValue root, ParseJsonFile(path));
  const JsonValue* benchmarks = root.Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument(
        path + ": not a google-benchmark JSON file (no \"benchmarks\" array)");
  }
  // First pass: which families have aggregate entries at all.
  std::map<std::string, bool> family_has_aggregates;
  for (const JsonValue& b : benchmarks->AsArray()) {
    if (!b.is_object()) continue;
    const std::string run_name = b.GetString("run_name", b.GetString("name"));
    if (!b.GetString("aggregate_name").empty()) {
      family_has_aggregates[run_name] = true;
    }
  }
  std::vector<BenchEntry> entries;
  for (const JsonValue& b : benchmarks->AsArray()) {
    if (!b.is_object()) continue;
    const std::string aggregate = b.GetString("aggregate_name");
    const std::string run_name = b.GetString("run_name", b.GetString("name"));
    if (family_has_aggregates.count(run_name) > 0) {
      if (aggregate != "median") continue;
    } else if (b.GetString("run_type", "iteration") != "iteration") {
      continue;
    }
    BenchEntry entry;
    entry.name = b.GetString("name");
    entry.run_name = run_name;
    const double scale = UnitToNs(b.GetString("time_unit", "ns"));
    entry.real_ns = b.GetDouble("real_time") * scale;
    entry.cpu_ns = b.GetDouble("cpu_time") * scale;
    if (entry.name.empty()) continue;
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    return Status::InvalidArgument(path +
                                   ": no comparable benchmark entries");
  }
  return entries;
}

BenchComparison CompareBenchmarks(const std::vector<BenchEntry>& base,
                                  const std::vector<BenchEntry>& current) {
  std::map<std::string, const BenchEntry*> base_by_name;
  for (const BenchEntry& e : base) base_by_name[e.run_name] = &e;
  std::map<std::string, const BenchEntry*> current_by_name;
  for (const BenchEntry& e : current) current_by_name[e.run_name] = &e;

  BenchComparison comparison;
  for (const auto& [name, b] : base_by_name) {
    const auto it = current_by_name.find(name);
    if (it == current_by_name.end()) {
      comparison.only_base.push_back(name);
      continue;
    }
    BenchDelta delta;
    delta.name = name;
    delta.base_ns = b->real_ns;
    delta.current_ns = it->second->real_ns;
    delta.pct = b->real_ns > 0.0
                    ? 100.0 * (it->second->real_ns - b->real_ns) / b->real_ns
                    : 0.0;
    comparison.matched.push_back(std::move(delta));
  }
  for (const auto& [name, c] : current_by_name) {
    if (base_by_name.count(name) == 0) comparison.only_current.push_back(name);
  }
  return comparison;
}

std::string FormatComparison(const BenchComparison& comparison,
                             double threshold_pct) {
  // Widths sized for typical "BM_Name/256" benchmarks; long names just
  // push their row wider.
  std::string out = StrFormat("%-44s %14s %14s %9s\n", "benchmark",
                              "baseline(ms)", "current(ms)", "delta");
  for (const BenchDelta& d : comparison.matched) {
    const bool flagged = d.pct >= threshold_pct;
    out += StrFormat("%-44s %14.4f %14.4f %+8.2f%%%s\n", d.name.c_str(),
                     d.base_ns * 1e-6, d.current_ns * 1e-6, d.pct,
                     flagged ? "  REGRESSION" : "");
  }
  for (const std::string& name : comparison.only_base) {
    out += StrFormat("%-44s only in baseline (skipped)\n", name.c_str());
  }
  for (const std::string& name : comparison.only_current) {
    out += StrFormat("%-44s only in current (skipped)\n", name.c_str());
  }
  return out;
}

int CountRegressions(const BenchComparison& comparison,
                     double threshold_pct) {
  int regressions = 0;
  for (const BenchDelta& d : comparison.matched) {
    if (d.pct >= threshold_pct) ++regressions;
  }
  return regressions;
}

const char* SgclBuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

Result<BenchHost> LoadBenchmarkHost(const std::string& path) {
  SGCL_ASSIGN_OR_RETURN(const JsonValue root, ParseJsonFile(path));
  BenchHost host;
  const JsonValue* context = root.Find("context");
  if (context == nullptr || !context->is_object()) return host;
  if (context->Find("num_cpus") != nullptr) {
    host.num_cpus = StrFormat("%g", context->GetDouble("num_cpus"));
  }
  host.build_type = context->GetString("sgcl_build_type");
  if (host.build_type.empty()) {
    host.build_type = context->GetString("library_build_type");
  }
  return host;
}

Status WriteBenchJson(
    const std::string& path, const std::string& library,
    const std::vector<std::pair<std::string, double>>& entries_us,
    const std::string& context_fields) {
  const char* build_type = SgclBuildType();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot write " + path);
  out << "{\"context\":{\"library\":\"" << JsonEscape(library)
      << "\",\"num_cpus\":" << std::thread::hardware_concurrency()
      << ",\"library_build_type\":\"" << build_type
      << "\",\"sgcl_build_type\":\"" << build_type << '"';
  if (!context_fields.empty()) out << ',' << context_fields;
  out << "},\"benchmarks\":[";
  for (size_t i = 0; i < entries_us.size(); ++i) {
    if (i > 0) out << ',';
    const std::string name = JsonEscape(entries_us[i].first);
    const std::string us = JsonDouble(entries_us[i].second);
    out << "{\"name\":\"" << name << "\",\"run_name\":\"" << name
        << "\",\"run_type\":\"iteration\",\"iterations\":1,\"real_time\":"
        << us << ",\"cpu_time\":" << us << ",\"time_unit\":\"us\"}";
  }
  out << "]}\n";
  out.flush();
  if (!out) return Status::Internal("write failed for " + path);
  return Status::OK();
}

std::string HostMismatchWarning(const BenchHost& base,
                                const BenchHost& current) {
  std::string fields;
  const auto compare = [&](const char* name, const std::string& a,
                           const std::string& b) {
    if (a.empty() || b.empty() || a == b) return;
    fields += StrFormat("%s%s %s vs %s", fields.empty() ? "" : ", ", name,
                        a.c_str(), b.c_str());
  };
  compare("num_cpus", base.num_cpus, current.num_cpus);
  compare("library_build_type", base.build_type, current.build_type);
  if (fields.empty()) return "";
  return "warning: baseline and current ran on different hosts (" + fields +
         "); deltas measure the hosts as much as the code";
}

}  // namespace sgcl
