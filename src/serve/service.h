// The embedding inference service: HTTP endpoints wired through the
// dynamic micro-batcher into an InferenceSession.
//
// Endpoints (loopback only; see DESIGN.md §11 for the full table):
//   POST /v1/embed    graphs JSON -> pooled f_k graph embeddings
//   POST /v1/predict  graphs JSON -> per-node keep probabilities (f_q)
//   GET  /v1/info     model + limit metadata for clients/load tools
//   GET  /status      serving stats: per-endpoint latency quantiles,
//                     batch occupancy, queue depth, config
//   GET  /metrics     Prometheus text (shared diagnostics handler)
//   GET  /healthz     liveness (shared diagnostics handler)
//   GET  /v1/traces[/<id>]  sampled request span trees (shared handler)
//
// Error contract: malformed JSON / wrong shapes -> 400, unknown routes
// -> 404, oversized bodies -> 413 (all with a JSON error body); a full
// admission queue -> 503 with Retry-After. Handlers never touch the
// filesystem — checkpoints and datasets are loaded by the CLI before
// Start (enforced by lint rule sgcl-R7).
#ifndef SGCL_SERVE_SERVICE_H_
#define SGCL_SERVE_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/http_server.h"
#include "serve/batcher.h"
#include "serve/graph_json.h"
#include "serve/inference_session.h"

namespace sgcl {
namespace serve {

struct ServeOptions {
  int http_port = 0;      // 0 = ephemeral (see ServeService::port())
  int http_threads = 4;   // keep-alive worker threads
  int idle_timeout_ms = 10000;
  size_t max_body_bytes = 4u << 20;
  MicroBatcherOptions batcher;  // shared by the embed and predict lanes
  RequestLimits limits;         // per-request graph/node caps
  // Retry-After value (seconds) attached to 503 overload responses.
  int retry_after_s = 1;
  // Request tracing: fraction of requests sampled into the global
  // TraceCollector's trace index (deterministic every-Nth; 0 = off) and
  // the index's capacity in traces. A sampled request's span tree is queryable at
  // /v1/traces/<id>; the id is echoed in an X-Sgcl-Trace response
  // header and stamped on latency-histogram exemplars.
  double trace_sample_rate = 0.0;
  int64_t trace_ring_size = 256;
};

class ServeService {
 public:
  // `model` must outlive the service and must not be trained while
  // serving. The optional *_override hooks replace the session-backed
  // batch functions — a test seam for overload/error injection; leave
  // them empty in production.
  ServeService(const SgclModel* model, const ServeOptions& options,
               BatchFn embed_override = nullptr,
               BatchFn predict_override = nullptr);
  ~ServeService();

  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  Status Start();
  void Stop();

  int port() const { return server_.port(); }
  bool running() const { return server_.running(); }
  const InferenceSession& session() const { return session_; }
  int64_t requests_served() const { return server_.requests_served(); }

  // The /status payload (also handy for the CLI's shutdown summary).
  std::string StatusJson() const;

 private:
  HttpResponse HandleGraphsRequest(const HttpRequest& request,
                                   MicroBatcher* batcher,
                                   const std::string& endpoint,
                                   const std::string& response_key,
                                   int64_t dim_or_negative);
  HttpResponse HandleInfo() const;

  const SgclModel* model_;
  ServeOptions options_;
  InferenceSession session_;
  std::unique_ptr<MicroBatcher> embed_batcher_;
  std::unique_ptr<MicroBatcher> predict_batcher_;
  HttpServer server_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace serve
}  // namespace sgcl

#endif  // SGCL_SERVE_SERVICE_H_
