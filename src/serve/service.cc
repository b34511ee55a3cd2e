#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace sgcl {
namespace serve {
namespace {

const std::vector<double>& LatencyBoundsUs() {
  static const std::vector<double> bounds = {100,   250,   500,    1000,
                                             2500,  5000,  10000,  25000,
                                             50000, 100000, 250000, 1000000};
  return bounds;
}

HttpResponse JsonError(int status, const Status& st) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = StrFormat("{\"error\":{\"code\":%d,\"message\":\"%s\"}}\n",
                            status, JsonEscape(st.message()).c_str());
  return response;
}

// Quantile summary for one histogram, as a JSON object fragment.
std::string HistogramJson(const MetricsSnapshot& snapshot,
                          const std::string& name) {
  const auto it = snapshot.histograms.find(name);
  if (it == snapshot.histograms.end() || it->second.count == 0) {
    return "{\"count\":0}";
  }
  const MetricsSnapshot::HistogramData& h = it->second;
  const double mean = h.sum / static_cast<double>(h.count);
  return StrFormat("{\"count\":%lld,\"mean\":%s,\"p50\":%s,\"p95\":%s,"
                   "\"p99\":%s}",
                   static_cast<long long>(h.count), JsonDouble(mean).c_str(),
                   JsonDouble(h.Quantile(0.50)).c_str(),
                   JsonDouble(h.Quantile(0.95)).c_str(),
                   JsonDouble(h.Quantile(0.99)).c_str());
}

int64_t CounterValue(const MetricsSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

}  // namespace

ServeService::ServeService(const SgclModel* model, const ServeOptions& options,
                           BatchFn embed_override, BatchFn predict_override)
    : model_(model), options_(options), session_(model) {
  BatchFn embed_fn = std::move(embed_override);
  if (!embed_fn) {
    embed_fn = [this](const std::vector<const Graph*>& graphs,
                      std::vector<std::vector<float>>* rows) {
      return session_.EmbedBatch(graphs, rows);
    };
  }
  BatchFn predict_fn = std::move(predict_override);
  if (!predict_fn) {
    predict_fn = [this](const std::vector<const Graph*>& graphs,
                        std::vector<std::vector<float>>* rows) {
      return session_.PredictBatch(graphs, rows);
    };
  }
  embed_batcher_ = std::make_unique<MicroBatcher>("embed", options_.batcher,
                                                  std::move(embed_fn));
  predict_batcher_ = std::make_unique<MicroBatcher>(
      "predict", options_.batcher, std::move(predict_fn));
}

ServeService::~ServeService() { Stop(); }

Status ServeService::Start() {
  start_ = std::chrono::steady_clock::now();
  TraceCollector::Global().SetSampleRate(options_.trace_sample_rate);
  TraceCollector::Global().SetTraceCapacity(
      static_cast<size_t>(std::max<int64_t>(1, options_.trace_ring_size)));
  SGCL_RETURN_NOT_OK(embed_batcher_->Start());
  SGCL_RETURN_NOT_OK(predict_batcher_->Start());

  RegisterDiagnosticsHandlers(&server_, start_);
  server_.Handle("POST", "/v1/embed", [this](const HttpRequest& request) {
    return HandleGraphsRequest(request, embed_batcher_.get(), "embed",
                               "embeddings", session_.embed_dim());
  });
  server_.Handle("POST", "/v1/predict", [this](const HttpRequest& request) {
    return HandleGraphsRequest(request, predict_batcher_.get(), "predict",
                               "keep_probs", -1);
  });
  server_.Handle("/v1/info", [this](const HttpRequest&) { return HandleInfo(); });
  server_.Handle("/status", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = StatusJson();
    return response;
  });

  HttpServerOptions http;
  http.num_threads = options_.http_threads;
  http.keep_alive = true;
  http.idle_timeout_ms = options_.idle_timeout_ms;
  http.max_body_bytes = options_.max_body_bytes;
  http.json_errors = true;
  const Status st = server_.Start(options_.http_port, http);
  if (!st.ok()) {
    embed_batcher_->Stop();
    predict_batcher_->Stop();
    return st;
  }
  SGCL_LOG(INFO) << "serve listening on http://127.0.0.1:" << server_.port()
                 << " (POST /v1/embed /v1/predict; GET /v1/info /status "
                    "/metrics /healthz /v1/traces)";
  return Status::OK();
}

void ServeService::Stop() {
  server_.Stop();
  if (embed_batcher_ != nullptr) embed_batcher_->Stop();
  if (predict_batcher_ != nullptr) predict_batcher_->Stop();
}

HttpResponse ServeService::HandleGraphsRequest(const HttpRequest& request,
                                               MicroBatcher* batcher,
                                               const std::string& endpoint,
                                               const std::string& response_key,
                                               int64_t dim_or_negative) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string prefix = "serve/" + endpoint + "/";
  Counter* requests = registry.GetCounter(prefix + "requests");
  Counter* errors = registry.GetCounter(prefix + "errors");
  Counter* graphs_total = registry.GetCounter(prefix + "graphs");
  Histogram* latency =
      registry.GetHistogram(prefix + "latency_us", LatencyBoundsUs());

  const auto t0 = std::chrono::steady_clock::now();
  requests->Increment();
  // Maybe open a sampled trace for this request; the root span below
  // becomes the tree's root and every phase (parse, queue wait, batch
  // formation, forward, encode) hangs off it. The id goes back to the
  // client in X-Sgcl-Trace and onto the latency exemplar so a p99
  // bucket in /metrics resolves to a /v1/traces/<id> lookup.
  const TraceContext root_ctx = TraceCollector::Global().MaybeStartTrace();
  const uint64_t trace_id = root_ctx.trace_id;
  ScopedTraceContext trace_install(root_ctx);
  HttpResponse response;
  {
    TraceSpan root_span("serve/request");
    auto parsed = [&] {
      SGCL_TRACE_SPAN("serve/parse");
      return ParseGraphsRequest(request.body, session_.feat_dim(),
                                options_.limits);
    }();
    if (!parsed.ok()) {
      errors->Increment();
      response = JsonError(400, parsed.status());
    } else {
      const std::vector<Graph>& graphs = *parsed;
      graphs_total->Increment(static_cast<int64_t>(graphs.size()));

      auto rows = batcher->Submit(graphs);
      if (!rows.ok()) {
        errors->Increment();
        if (rows.status().code() == StatusCode::kUnavailable) {
          response = JsonError(503, rows.status());
          response.extra_headers.push_back(
              {"Retry-After", std::to_string(options_.retry_after_s)});
        } else if (rows.status().code() == StatusCode::kInvalidArgument) {
          response = JsonError(400, rows.status());
        } else {
          response = JsonError(500, rows.status());
        }
      } else {
        SGCL_TRACE_SPAN("serve/encode");
        response.content_type = "application/json";
        response.body =
            FormatRowsResponse(response_key, *rows, dim_or_negative);
      }
    }
  }  // root span closes here, committing the trace
  latency->ObserveWithExemplar(
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      trace_id);
  if (trace_id != 0) {
    response.extra_headers.push_back({"X-Sgcl-Trace", FormatTraceId(trace_id)});
  }
  return response;
}

HttpResponse ServeService::HandleInfo() const {
  const EncoderConfig& enc = model_->config().encoder;
  HttpResponse response;
  response.content_type = "application/json";
  response.body = StrFormat(
      "{\"version\":\"%s\",\"model\":{\"arch\":\"%s\",\"feat_dim\":%lld,"
      "\"embed_dim\":%lld,\"num_layers\":%d,\"pooling\":\"%s\",\"fused\":%s},"
      "\"limits\":{\"max_graphs\":%lld,\"max_total_nodes\":%lld},"
      "\"batcher\":{\"max_batch_graphs\":%lld,\"max_batch_nodes\":%lld,"
      "\"batch_timeout_us\":%lld,\"max_queue_requests\":%lld}}\n",
      kSgclVersion, GnnArchToString(enc.arch),
      static_cast<long long>(session_.feat_dim()),
      static_cast<long long>(session_.embed_dim()), enc.num_layers,
      PoolingKindToString(enc.pooling), session_.fused() ? "true" : "false",
      static_cast<long long>(options_.limits.max_graphs),
      static_cast<long long>(options_.limits.max_total_nodes),
      static_cast<long long>(options_.batcher.max_batch_graphs),
      static_cast<long long>(options_.batcher.max_batch_nodes),
      static_cast<long long>(options_.batcher.batch_timeout_us),
      static_cast<long long>(options_.batcher.max_queue_requests));
  return response;
}

std::string ServeService::StatusJson() const {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  std::string json = "{\"state\":\"serving\"";
  json += ",\"run_id\":\"" + JsonEscape(GetRunId()) + "\"";
  json += ",\"uptime_seconds\":" + JsonDouble(uptime);
  json += ",\"fused\":" + std::string(session_.fused() ? "true" : "false");
  json += ",\"http_requests\":" + std::to_string(requests_served());
  for (const char* endpoint : {"embed", "predict"}) {
    const std::string prefix = std::string("serve/") + endpoint + "/";
    json += ",\"" + std::string(endpoint) + "\":{";
    json += "\"requests\":" +
            std::to_string(CounterValue(snapshot, prefix + "requests"));
    json += ",\"errors\":" +
            std::to_string(CounterValue(snapshot, prefix + "errors"));
    json += ",\"graphs\":" +
            std::to_string(CounterValue(snapshot, prefix + "graphs"));
    json += ",\"rejected\":" +
            std::to_string(CounterValue(snapshot, prefix + "rejected"));
    json += ",\"batches\":" +
            std::to_string(CounterValue(snapshot, prefix + "batches"));
    json += ",\"latency_us\":" + HistogramJson(snapshot, prefix + "latency_us");
    json += ",\"batch_graphs\":" +
            HistogramJson(snapshot, prefix + "batch_graphs");
    json += ",\"batch_nodes\":" +
            HistogramJson(snapshot, prefix + "batch_nodes");
    json += ",\"queue_wait_us\":" +
            HistogramJson(snapshot, prefix + "queue_wait_us");
    const auto gauge = snapshot.gauges.find(prefix + "queue_depth");
    json += ",\"queue_depth\":" +
            JsonDouble(gauge == snapshot.gauges.end() ? 0.0 : gauge->second);
    json += "}";
  }
  json += "}";
  return json;
}

}  // namespace serve
}  // namespace sgcl
