// Offline tail-latency analyzer for SGCL trace dumps.
//
//   trace_report <trace.json> [--top=5] [--min-duration-us=0]
//
// Accepts either trace format the repo produces and prints the same
// breakdown the live /v1/traces endpoints serve, but offline:
//
//  * a sampled-trace dump — `curl /v1/traces?detail=1` (the object with a
//    "traces" array, each trace carrying its flat span list), or
//  * a chrome://tracing file written by --trace-out, where sampled
//    spans carry {"args":{"trace_id",...}} (untagged events are
//    aggregated too, but can't be attributed to a request).
//
// Output: a per-stage *self-time* table (span duration minus enclosed
// child spans, so stages don't double-count their children) with
// count/total/p50/p95/p99, then the top-K slowest traces with their
// per-stage breakdown — the offline mirror of GET /v1/traces/<id>.
// Exit codes: 0 on success, 2 on unreadable/malformed input.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace sgcl {
namespace {

struct ReportSpan {
  std::string name;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  int64_t self_us = 0;  // filled by ComputeSelfTimes
};

struct ReportTrace {
  std::string trace_id;
  std::string root_name;
  int64_t dur_us = 0;
  std::vector<ReportSpan> spans;
};

// self = dur - sum(direct children dur), clamped at 0 (clock skew /
// overlapping children). Matches AppendTreeNodeJson in common/trace.cc.
void ComputeSelfTimes(std::vector<ReportSpan>* spans) {
  std::map<uint64_t, int64_t> child_us;
  for (const ReportSpan& s : *spans) {
    if (s.parent_span_id != 0) child_us[s.parent_span_id] += s.dur_us;
  }
  for (ReportSpan& s : *spans) {
    const auto it = child_us.find(s.span_id);
    const int64_t children = it == child_us.end() ? 0 : it->second;
    s.self_us = std::max<int64_t>(0, s.dur_us - children);
  }
}

Result<ReportSpan> ParseRingSpan(const JsonValue& v) {
  if (!v.is_object()) return Status::InvalidArgument("span is not an object");
  ReportSpan s;
  s.name = v.GetString("name");
  s.span_id = static_cast<uint64_t>(v.GetDouble("span_id", 0));
  s.parent_span_id = static_cast<uint64_t>(v.GetDouble("parent_span_id", 0));
  s.start_us = static_cast<int64_t>(v.GetDouble("start_us", 0));
  s.dur_us = static_cast<int64_t>(v.GetDouble("dur_us", 0));
  if (s.name.empty() || s.span_id == 0) {
    return Status::InvalidArgument("span missing name or span_id");
  }
  return s;
}

// Sampled-trace dump: {"traces":[{"trace_id","root","dur_us","spans":[...]}]}
Result<std::vector<ReportTrace>> LoadRingDump(const JsonValue& doc) {
  std::vector<ReportTrace> traces;
  const JsonValue* arr = doc.Find("traces");
  if (arr == nullptr || !arr->is_array()) {
    return Status::InvalidArgument("\"traces\" is not an array");
  }
  for (const JsonValue& t : arr->AsArray()) {
    if (!t.is_object()) {
      return Status::InvalidArgument("trace entry is not an object");
    }
    ReportTrace trace;
    trace.trace_id = t.GetString("trace_id");
    trace.root_name = t.GetString("root");
    trace.dur_us = static_cast<int64_t>(t.GetDouble("dur_us", 0));
    const JsonValue* spans = t.Find("spans");
    if (spans == nullptr || !spans->is_array()) {
      return Status::InvalidArgument(
          "trace " + trace.trace_id +
          " has no span list (fetch /v1/traces with detail=1)");
    }
    for (const JsonValue& sv : spans->AsArray()) {
      ReportSpan span;
      SGCL_ASSIGN_OR_RETURN(span, ParseRingSpan(sv));
      trace.spans.push_back(std::move(span));
    }
    ComputeSelfTimes(&trace.spans);
    traces.push_back(std::move(trace));
  }
  return traces;
}

// Chrome trace: {"traceEvents":[{"name","ts","dur","args":{...}}]}.
// Events tagged with args.trace_id are grouped into traces; untagged
// events are collected under a synthetic "(untraced)" bucket so a plain
// --trace-out file still yields a stage table.
Result<std::vector<ReportTrace>> LoadChromeTrace(const JsonValue& doc,
                                                 int64_t* untagged_events) {
  const JsonValue* arr = doc.Find("traceEvents");
  if (arr == nullptr || !arr->is_array()) {
    return Status::InvalidArgument("\"traceEvents\" is not an array");
  }
  std::map<std::string, ReportTrace> by_id;
  std::vector<std::string> order;  // first-seen, keeps output stable
  ReportTrace untraced;
  uint64_t synthetic_id = 1;  // untagged events carry no span ids
  for (const JsonValue& e : arr->AsArray()) {
    if (!e.is_object()) {
      return Status::InvalidArgument("trace event is not an object");
    }
    ReportSpan span;
    span.name = e.GetString("name");
    span.start_us = static_cast<int64_t>(e.GetDouble("ts", 0));
    span.dur_us = static_cast<int64_t>(e.GetDouble("dur", 0));
    if (span.name.empty()) {
      return Status::InvalidArgument("trace event without a name");
    }
    const JsonValue* args = e.Find("args");
    const std::string id = args != nullptr ? args->GetString("trace_id") : "";
    if (id.empty()) {
      ++*untagged_events;
      span.span_id = synthetic_id++;
      untraced.spans.push_back(std::move(span));
      continue;
    }
    span.span_id = static_cast<uint64_t>(args->GetDouble("span_id", 0));
    span.parent_span_id =
        static_cast<uint64_t>(args->GetDouble("parent_span_id", 0));
    ReportTrace& trace = by_id[id];
    if (trace.trace_id.empty()) {
      trace.trace_id = id;
      order.push_back(id);
    }
    if (span.parent_span_id == 0) {
      trace.root_name = span.name;
      trace.dur_us = span.dur_us;
    }
    trace.spans.push_back(std::move(span));
  }
  std::vector<ReportTrace> traces;
  for (const std::string& id : order) {
    ReportTrace& trace = by_id[id];
    ComputeSelfTimes(&trace.spans);
    traces.push_back(std::move(trace));
  }
  if (!untraced.spans.empty()) {
    untraced.trace_id = "(untraced)";
    untraced.root_name = "(untraced events)";
    // No parent links: self time degenerates to raw duration.
    for (ReportSpan& s : untraced.spans) s.self_us = s.dur_us;
    traces.push_back(std::move(untraced));
  }
  return traces;
}

double Quantile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

// Right-pads every column to its widest cell — same layout idiom as
// eval/table.cc (ResultTable cells are mean±std accuracy pairs, which
// don't fit a latency table, so the alignment is reimplemented here).
void PrintAligned(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return;
  std::vector<size_t> width(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (size_t j = 0; j < row.size(); ++j) {
      width[j] = std::max(width[j], row[j].size());
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (size_t j = 0; j < rows[r].size(); ++j) {
      line += rows[r][j];
      line.append(width[j] - rows[r][j].size() + 2, ' ');
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule;
      for (size_t j = 0; j < width.size(); ++j) {
        rule.append(width[j], '-');
        rule.append(2, ' ');
      }
      std::printf("%s\n", rule.c_str());
    }
  }
}

void PrintStageTable(const std::vector<ReportTrace>& traces) {
  std::map<std::string, std::vector<int64_t>> self_by_stage;
  for (const ReportTrace& t : traces) {
    for (const ReportSpan& s : t.spans) {
      self_by_stage[s.name].push_back(s.self_us);
    }
  }
  int64_t grand_total = 0;
  for (auto& [name, samples] : self_by_stage) {
    std::sort(samples.begin(), samples.end());
    for (int64_t v : samples) grand_total += v;
  }
  // Order stages by total self time, biggest contributor first.
  std::vector<std::pair<int64_t, const std::string*>> order;
  for (const auto& [name, samples] : self_by_stage) {
    int64_t total = 0;
    for (int64_t v : samples) total += v;
    order.emplace_back(total, &name);
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"stage", "count", "total_ms", "share", "self_p50_us",
                  "self_p95_us", "self_p99_us"});
  for (const auto& [total, name] : order) {
    const std::vector<int64_t>& samples = self_by_stage[*name];
    const double share =
        grand_total > 0
            ? 100.0 * static_cast<double>(total) /
                  static_cast<double>(grand_total)
            : 0.0;
    rows.push_back({*name, std::to_string(samples.size()),
                    StrFormat("%.2f", static_cast<double>(total) / 1000.0),
                    StrFormat("%.1f%%", share),
                    StrFormat("%.0f", Quantile(samples, 0.50)),
                    StrFormat("%.0f", Quantile(samples, 0.95)),
                    StrFormat("%.0f", Quantile(samples, 0.99))});
  }
  PrintAligned(rows);
}

void PrintSlowestTraces(const std::vector<ReportTrace>& traces, int64_t top) {
  std::vector<const ReportTrace*> real;
  for (const ReportTrace& t : traces) {
    if (t.trace_id != "(untraced)") real.push_back(&t);
  }
  if (real.empty() || top <= 0) return;
  std::sort(real.begin(), real.end(),
            [](const ReportTrace* a, const ReportTrace* b) {
              return a->dur_us > b->dur_us;
            });
  const size_t k = std::min(real.size(), static_cast<size_t>(top));
  std::printf("\nslowest %zu of %zu traces:\n", k, real.size());
  for (size_t i = 0; i < k; ++i) {
    const ReportTrace& t = *real[i];
    std::printf("  %s  %lld us  %s (%zu spans)\n", t.trace_id.c_str(),
                static_cast<long long>(t.dur_us), t.root_name.c_str(),
                t.spans.size());
    // Per-trace stage breakdown, biggest self time first.
    std::map<std::string, int64_t> self;
    for (const ReportSpan& s : t.spans) self[s.name] += s.self_us;
    std::vector<std::pair<int64_t, std::string>> by_time;
    for (const auto& [name, us] : self) by_time.emplace_back(us, name);
    std::sort(by_time.begin(), by_time.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [us, name] : by_time) {
      const double share =
          t.dur_us > 0
              ? 100.0 * static_cast<double>(us) / static_cast<double>(t.dur_us)
              : 0.0;
      std::printf("    %-24s %8lld us  %5.1f%%\n", name.c_str(),
                  static_cast<long long>(us), share);
    }
  }
}

int Run(int argc, char** argv) {
  int64_t top = 5;
  int64_t min_duration_us = 0;
  FlagSet flags("trace_report <trace.json>");
  flags.Int64("top", &top, "slowest traces to break down (0 disables)");
  flags.Int64("min-duration-us", &min_duration_us,
              "ignore traces shorter than this");

  // One positional file operand; everything else is a strict flag.
  std::vector<std::string> files;
  std::vector<char*> flag_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      flag_argv.push_back(argv[i]);
    } else {
      files.push_back(arg);
    }
  }
  const Status st =
      flags.Parse(static_cast<int>(flag_argv.size()), flag_argv.data(), 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (files.size() != 1) {
    std::fprintf(stderr, "error: expected exactly 1 file operand, got %zu\n%s",
                 files.size(), flags.Help().c_str());
    return 2;
  }

  auto doc = ParseJsonFile(files[0]);
  if (!doc.ok()) {
    std::fprintf(stderr, "error: %s\n", doc.status().ToString().c_str());
    return 2;
  }
  int64_t untagged_events = 0;
  Result<std::vector<ReportTrace>> loaded =
      Status::InvalidArgument("unreachable");
  const char* format = nullptr;
  if (doc->Find("traces") != nullptr) {
    format = "trace-ring dump";
    loaded = LoadRingDump(*doc);
  } else if (doc->Find("traceEvents") != nullptr) {
    format = "chrome trace";
    loaded = LoadChromeTrace(*doc, &untagged_events);
  } else {
    std::fprintf(stderr,
                 "error: %s is neither a /v1/traces dump (\"traces\") nor a "
                 "chrome trace (\"traceEvents\")\n",
                 files[0].c_str());
    return 2;
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", files[0].c_str(),
                 loaded.status().ToString().c_str());
    return 2;
  }

  std::vector<ReportTrace> traces;
  size_t dropped = 0;
  for (ReportTrace& t : *loaded) {
    if (t.trace_id != "(untraced)" && t.dur_us < min_duration_us) {
      ++dropped;
      continue;
    }
    traces.push_back(std::move(t));
  }
  size_t spans = 0;
  size_t real_traces = 0;
  for (const ReportTrace& t : traces) {
    spans += t.spans.size();
    if (t.trace_id != "(untraced)") ++real_traces;
  }
  std::printf("%s: %s, %zu trace(s), %zu span(s)", files[0].c_str(), format,
              real_traces, spans);
  if (dropped > 0) {
    std::printf(", %zu below --min-duration-us=%lld", dropped,
                static_cast<long long>(min_duration_us));
  }
  if (untagged_events > 0) {
    std::printf(", %lld untagged event(s)",
                static_cast<long long>(untagged_events));
  }
  std::printf("\n\n");
  if (spans == 0) {
    std::printf("no spans to report (was the server started with "
                "--trace-sample-rate > 0?)\n");
    return 0;
  }
  PrintStageTable(traces);
  PrintSlowestTraces(traces, top);
  return 0;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
