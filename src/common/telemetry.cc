#include "common/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace sgcl {
namespace {

// Value of `key` in a raw query string ("a=1&b=2"); empty when absent.
// No %-decoding: every /v1/traces parameter is numeric.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return std::string();
}

int64_t QueryInt(const std::string& query, const std::string& key,
                 int64_t fallback) {
  const std::string v = QueryParam(query, key);
  if (v.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (errno != 0 || end == v.c_str() || *end != '\0') return fallback;
  return parsed;
}

}  // namespace

std::string GenerateRunId() {
  static std::atomic<int> counter{0};
  const auto wall = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  return StrFormat("run-%08llx-%04x-%d",
                   static_cast<unsigned long long>(wall),
                   static_cast<unsigned>(getpid()) & 0xffff,
                   counter.fetch_add(1) + 1);
}

RunStatusBoard::RunStatusBoard()
    : start_(std::chrono::steady_clock::now()) {}

void RunStatusBoard::BeginRun(const std::string& command, int total_epochs) {
  std::lock_guard<std::mutex> lock(mu_);
  command_ = command;
  state_ = "running";
  completed_epochs_ = 0;
  total_epochs_ = total_epochs;
  last_epoch_seconds_ = 0.0;
  losses_.clear();
  stage_seconds_.clear();
  checkpoint_count_ = 0;
  last_checkpoint_path_.clear();
  checkpoint_seconds_ = 0.0;
  workers_.clear();
  start_ = std::chrono::steady_clock::now();
}

void RunStatusBoard::RecordEpoch(
    int epoch, int total_epochs, double loss, double seconds,
    const std::map<std::string, double>& stage_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  completed_epochs_ = epoch + 1;
  total_epochs_ = total_epochs;
  last_epoch_seconds_ = seconds;
  losses_.push_back(loss);
  for (const auto& [stage, secs] : stage_seconds) {
    stage_seconds_[stage] += secs;
  }
}

void RunStatusBoard::EndRun(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = ok ? "done" : "failed";
}

void RunStatusBoard::RecordCheckpoint(const std::string& path,
                                      double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++checkpoint_count_;
  last_checkpoint_path_ = path;
  checkpoint_seconds_ += seconds;
}

void RunStatusBoard::RecordWorker(int rank, bool connected,
                                  int64_t last_round, int64_t leaves) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerRow& row = workers_[rank];
  row.connected = connected;
  row.last_round = last_round;
  row.leaves = leaves;
}

std::string RunStatusBoard::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  // The in-progress epoch is 1-based and clamps at total once finished.
  const int in_progress =
      state_ == "running" ? std::min(completed_epochs_ + 1, total_epochs_)
                          : completed_epochs_;
  std::string json = "{\"run_id\":\"" + JsonEscape(GetRunId()) + "\"";
  json += ",\"state\":\"" + JsonEscape(state_) + "\"";
  json += ",\"command\":\"" + JsonEscape(command_) + "\"";
  json += ",\"uptime_seconds\":" + JsonDouble(uptime);
  json += ",\"epoch\":" + std::to_string(in_progress);
  json += ",\"completed_epochs\":" + std::to_string(completed_epochs_);
  json += ",\"total_epochs\":" + std::to_string(total_epochs_);
  json += ",\"last_loss\":" +
          (losses_.empty() ? std::string("null") : JsonDouble(losses_.back()));
  json += ",\"last_epoch_seconds\":" + JsonDouble(last_epoch_seconds_);
  json += ",\"losses\":[";
  for (size_t i = 0; i < losses_.size(); ++i) {
    if (i > 0) json += ',';
    json += JsonDouble(losses_[i]);
  }
  json += "],\"stage_seconds\":{";
  bool first = true;
  for (const auto& [stage, secs] : stage_seconds_) {
    if (!first) json += ',';
    first = false;
    // Appended piecewise: GCC 12's -Wrestrict misfires on chained
    // std::string operator+ here (PR105329).
    json.append("\"").append(JsonEscape(stage)).append("\":");
    json.append(JsonDouble(secs));
  }
  json += "}";
  if (checkpoint_count_ > 0) {
    json += ",\"checkpoint\":{\"count\":" + std::to_string(checkpoint_count_);
    json.append(",\"last_path\":\"")
        .append(JsonEscape(last_checkpoint_path_))
        .append("\"");
    json += ",\"total_seconds\":" + JsonDouble(checkpoint_seconds_) + "}";
  }
  if (!workers_.empty()) {
    json += ",\"workers\":[";
    bool first_worker = true;
    for (const auto& [rank, row] : workers_) {
      if (!first_worker) json += ',';
      first_worker = false;
      json.append("{\"rank\":").append(std::to_string(rank));
      json.append(",\"connected\":").append(row.connected ? "true" : "false");
      json.append(",\"last_round\":").append(std::to_string(row.last_round));
      json.append(",\"leaves\":").append(std::to_string(row.leaves));
      json.append("}");
    }
    json += "]";
  }
  json += "}";
  return json;
}

void RegisterDiagnosticsHandlers(HttpServer* server,
                                 std::chrono::steady_clock::time_point start) {
  server->Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsRegistry::Global().Snapshot().ToPrometheusText();
    return response;
  });
  server->Handle("/healthz", [start](const HttpRequest&) {
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    HttpResponse response;
    response.content_type = "application/json";
    response.body = "{\"status\":\"ok\",\"version\":\"" +
                    std::string(kSgclVersion) + "\",\"run_id\":\"" +
                    JsonEscape(GetRunId()) + "\",\"uptime_seconds\":" +
                    JsonDouble(uptime) + ",\"pid\":" +
                    std::to_string(getpid()) + ",\"compiler\":\"" +
                    JsonEscape(__VERSION__) + "\"}";
    return response;
  });
  // Sampled trace ring: list (newest first, ?min_duration_us= &limit=
  // filters, ?detail=1 inlines flat span lists — the trace_report dump
  // format) and per-trace span trees at /v1/traces/<hex id>.
  server->Handle("/v1/traces", [](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    const int64_t min_duration_us =
        QueryInt(request.query, "min_duration_us", 0);
    const int64_t limit = QueryInt(request.query, "limit", 0);
    const bool detail = QueryInt(request.query, "detail", 0) != 0;
    response.body = TraceCollector::Global().ListJson(
        min_duration_us, static_cast<int>(limit), detail);
    return response;
  });
  server->HandlePrefix("/v1/traces/", [](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    const std::string id_text =
        request.path.substr(std::string("/v1/traces/").size());
    const uint64_t trace_id = ParseTraceId(id_text);
    std::string tree = trace_id == 0
                           ? std::string()
                           : TraceCollector::Global().TreeJson(trace_id);
    if (tree.empty()) {
      response.status = 404;
      response.body = StrFormat(
          "{\"error\":{\"code\":404,\"message\":\"unknown trace %s\"}}",
          JsonEscape(id_text).c_str());
      return response;
    }
    response.body = std::move(tree);
    return response;
  });
}

TelemetryServer::~TelemetryServer() { Stop(); }

Status TelemetryServer::Start(int port, const RunStatusBoard* board) {
  start_ = std::chrono::steady_clock::now();
  RegisterDiagnosticsHandlers(&server_, start_);
  server_.Handle("/status", [board](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    if (board == nullptr) {
      response.body = "{\"state\":\"idle\"}";
    } else {
      response.body = board->ToJson();
    }
    return response;
  });
  server_.Handle("/trace", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = TraceCollector::Global().ToChromeTraceJson();
    return response;
  });
  SGCL_RETURN_NOT_OK(server_.Start(port));
  SGCL_LOG(INFO) << "telemetry listening on http://127.0.0.1:"
                 << server_.port()
                 << " (/metrics /healthz /status /trace /v1/traces)";
  return Status::OK();
}

void TelemetryServer::Stop() { server_.Stop(); }

}  // namespace sgcl
