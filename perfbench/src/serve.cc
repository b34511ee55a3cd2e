// serve_embed: an in-process ServeService on the fused GIN plan, loaded
// from a checkpoint, driven open-loop over keep-alive connections.
//
// Load model: independent users, so arrivals are a seeded Poisson
// process at a fixed rate; each of up to kMaxConnections client threads
// takes the next due request, waits for its due time, sends it and
// reads the reply. Latency runs from the due time, so a stall also
// charges the requests that queued behind it. Generator lateness (send
// time minus the later of due time and the moment a connection was free)
// is reported; a run whose lateness passes kMaxGenLagMs is invalid.
//
// Untraced phases: set up kSetups times (bodies, checkpoint round trip,
// service start, warm-up; the last one stays up), nominal-rate windows
// for the latency figures, then closed-loop capacity. The traced run
// adds a traced service and a rate ladder for the highest rate whose p99
// stays under kSloMs with no growing backlog.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/sgcl_model.h"
#include "data/synthetic_molecule.h"
#include "data/synthetic_tu.h"
#include "nn/checkpoint.h"
#include "probe.h"
#include "serve/graph_json.h"
#include "serve/inference_session.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using sgcl::Graph;
using sgcl::Status;

constexpr int kMaxConnections = 4;
constexpr double kSloMs = 10.0;
constexpr double kNominalRps = 400.0;
// Rate ladder (requests/s), about 1.26x apart.
constexpr double kLadder[] = {100,  125,  160,  200,  250,  320,  400,
                              500,  630,  800,  1000, 1250, 1600, 2000,
                              2500, 3200};
constexpr int kSetups = 3;
// Request mix: an assumption, not measured traffic. Most requests embed
// one molecule; kBulkFraction of them carry kBulkGraphs synthetic IMDB-B
// graphs (MakeTuDataset, Table I statistics: ~19.8 nodes, ~96.5 edges).
constexpr int kBodies = 512;
constexpr double kBulkFraction = 0.1;
constexpr int kBulkGraphs = 8;
// Batch window of the service. The CLI's default is 2000 us; at <= 4
// connections a 16-graph batch never fills, so that window would be a
// fixed sleep making up most of every request's latency.
constexpr int64_t kBatchWindowUs = 250;
// Generator lateness beyond the latency limit makes a run invalid.
constexpr double kMaxGenLagMs = kSloMs;
// Untraced run: kNominalShare of --seconds at the nominal rate in windows
// of kWindowS, the rest closed-loop capacity. A window in which the load
// generator's own p99 lateness passes kCalmLagMs measured the host's
// scheduling more than the service: the run adds windows (at most
// kMaxExtraWindows) until kNominalWindows are calm, and reports the
// medians of the kNominalWindows calmest.
constexpr double kNominalShare = 0.6;
constexpr double kWindowS = 1.2;
constexpr int kNominalWindows = 5;
constexpr double kCalmLagMs = 1.5;
constexpr int kMaxExtraWindows = 16;
constexpr int kCapacityWindows = 3;
// Traced run: share of --seconds per nominal window (untraced, traced),
// then ladder rungs of fixed length.
constexpr double kTracedShare = 0.25;
constexpr double kLadderRungS = 1.5;
// A rung is abandoned as overloaded once a request starts this late; the
// requests it never sends count as missing the latency limit.
constexpr double kOverloadLateMs = 1000.0;
constexpr int kVerifyEvery = 16;
constexpr double kFailedLatencyMs = 1e6;  // a failure misses any limit
constexpr int kHidden = 64;
constexpr int kLayers = 3;

sgcl::SgclConfig ServeConfig() {
  sgcl::SgclConfig cfg = sgcl::MakeUnsupervisedConfig(sgcl::kMoleculeFeatDim);
  cfg.encoder.hidden_dim = kHidden;
  cfg.encoder.num_layers = kLayers;
  cfg.proj_dim = kHidden;
  return cfg;
}

// Minimal blocking keep-alive HTTP/1.1 client with Content-Length framing.
class Client {
 public:
  explicit Client(int port) : port_(port) {}
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Returns the status code (0 on a transport error) and fills `body`.
  int Roundtrip(const std::string& request, std::string* body) {
    if (fd_ < 0 && !Connect()) return 0;
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) {
        Close();
        return 0;
      }
      sent += static_cast<size_t>(n);
    }
    buf_.clear();
    size_t header_end = std::string::npos;
    while (header_end == std::string::npos) {
      if (!Receive()) return 0;
      header_end = buf_.find("\r\n\r\n");
    }
    const size_t sp = buf_.find(' ');
    const int code = sp == std::string::npos ? 0 : std::atoi(&buf_[sp + 1]);
    const size_t cl = buf_.find("Content-Length:");
    if (cl == std::string::npos || cl > header_end) {
      Close();
      return 0;
    }
    const size_t length =
        static_cast<size_t>(std::atoll(&buf_[cl + std::strlen("Content-Length:")]));
    while (buf_.size() < header_end + 4 + length) {
      if (!Receive()) return 0;
    }
    if (body != nullptr) body->assign(buf_, header_end + 4, length);
    return code;
  }

 private:
  bool Connect() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      Close();
      return false;
    }
    return true;
  }
  bool Receive() {
    char chunk[16384];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return false;
    }
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  int port_;
  int fd_ = -1;
  std::string buf_;
};

// Client connections: at most kMaxConnections and at most one per core.
int Connections() {
  return std::min<int>(kMaxConnections,
                       std::max(1u, std::thread::hardware_concurrency()));
}

std::string PostEmbed(const std::string& body) {
  return "POST /v1/embed HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: keep-alive\r\n\r\n" +
         body;
}

std::string GraphJson(const Graph& g) {
  std::string out = "{\"num_nodes\":" + std::to_string(g.num_nodes()) +
                    ",\"features\":[";
  const std::vector<float>& f = g.features();
  for (size_t i = 0; i < f.size(); ++i) {
    if (i > 0) out += ',';
    out += Fmt("%.9g", f[i]);
  }
  out += "],\"edges\":[";
  bool first = true;
  for (size_t e = 0; e < g.edge_src().size(); ++e) {
    const int32_t a = g.edge_src()[e];
    const int32_t b = g.edge_dst()[e];
    if (a >= b) continue;  // each undirected edge once
    if (!first) out += ',';
    first = false;
    out += std::to_string(a) + "," + std::to_string(b);
  }
  return out + "]}";
}

// `g` with its one-hot degree-bucket features widened to the molecule
// model's input width (the extra columns stay 0).
Graph ToMoleculeWidth(const Graph& g) {
  Graph out(g.num_nodes(), sgcl::kMoleculeFeatDim);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    for (int64_t j = 0; j < std::min<int64_t>(g.feat_dim(), out.feat_dim());
         ++j) {
      out.set_feature(v, j, g.feature(v, j));
    }
  }
  for (size_t e = 0; e < g.edge_src().size(); ++e) {
    if (g.edge_src()[e] < g.edge_dst()[e]) {
      out.AddUndirectedEdge(g.edge_src()[e], g.edge_dst()[e]);
    }
  }
  return out;
}

struct Body {
  std::string request;  // full HTTP request
  std::string json;
  int graphs = 0;
};

std::vector<Body> MakeBodies(uint64_t seed) {
  sgcl::Rng rng(seed);
  const sgcl::MoleculeSampler sampler;
  // Exactly kBulkFraction of the bodies are bulk, at seeded positions, so
  // the mean graphs per request is the same for every seed.
  const int64_t bulk_bodies = std::lround(kBodies * kBulkFraction);
  std::vector<int> bulk_at(kBodies, 0);
  std::fill_n(bulk_at.begin(), bulk_bodies, 1);
  rng.Shuffle(&bulk_at);
  sgcl::SyntheticTuOptions tu;
  tu.graph_fraction =
      static_cast<double>(bulk_bodies * kBulkGraphs) /
      sgcl::GetTuConfig(sgcl::TuDataset::kImdbB).num_graphs;
  tu.seed = seed;
  const sgcl::GraphDataset imdb =
      sgcl::MakeTuDataset(sgcl::TuDataset::kImdbB, tu);
  int64_t next_bulk = 0;
  std::vector<Body> bodies;
  for (int i = 0; i < kBodies; ++i) {
    const bool bulk = bulk_at[i] != 0;
    const int count = bulk ? kBulkGraphs : 1;
    std::string json = "{\"graphs\":[";
    for (int k = 0; k < count; ++k) {
      if (k > 0) json += ',';
      json += GraphJson(
          bulk ? ToMoleculeWidth(imdb.graph(next_bulk++ % imdb.size()))
               : sampler.Sample(&rng).graph);
    }
    json += "]}";
    bodies.push_back({PostEmbed(json), json, count});
  }
  return bodies;
}

struct Rung {
  double rate = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t graphs_ok = 0;
  double duration_s = 0.0;
  bool overloaded = false;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> send_wait_ms;  // due time to send (free connection)
  std::vector<std::pair<int, std::string>> verify;  // body index, response

  double p(double q) const { return Quantile(latency_ms, q); }
  double lag_p99() const { return Quantile(lag_ms, 0.99); }
  // Growing backlog: the last quarter's median latency is well above
  // the first quarter's.
  bool growing() const {
    const size_t n = latency_ms.size();
    if (n < 8) return false;
    const std::vector<double> first(latency_ms.begin(),
                                    latency_ms.begin() + n / 4);
    const std::vector<double> last(latency_ms.end() - n / 4, latency_ms.end());
    return Median(last) > 2.0 * Median(first) + 1.0;
  }
  bool meets_slo() const {
    return !overloaded && failed == 0 && !latency_ms.empty() &&
           p(0.99) <= kSloMs && !growing() && lag_p99() <= kMaxGenLagMs;
  }
};

// One open-loop rung: Poisson arrivals at `rate` for `seconds`.
Rung RunRung(int port, const std::vector<Body>& bodies, double rate,
             double seconds, uint64_t seed, bool keep_verify) {
  sgcl::Rng rng(seed ^ static_cast<uint64_t>(rate * 1000.0));
  const int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
  std::vector<int64_t> due_ns(n);
  std::vector<int> pick(n);
  double t = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    due_ns[i] = static_cast<int64_t>(t * 1e9);
    pick[i] = static_cast<int>(rng.UniformInt(static_cast<int64_t>(bodies.size())));
  }
  Rung rung;
  rung.rate = rate;
  std::vector<double> latency(n, -1.0);
  std::vector<double> lag(n, 0.0);
  std::vector<double> send_wait(n, 0.0);
  std::vector<int> graphs(n, 0);
  std::atomic<int64_t> next{0};
  std::atomic<bool> overloaded{false};
  std::mutex verify_mu;
  const int connections = Connections();
  const int64_t t0 = NowNs() + 5'000'000;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&] {
        Client client(port);
        std::string response;
        for (;;) {
          const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n || overloaded.load(std::memory_order_relaxed)) break;
          const int64_t due = t0 + due_ns[i];
          const int64_t free_at = NowNs();
          if (free_at < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - free_at));
          } else if ((free_at - due) / 1e6 > kOverloadLateMs) {
            overloaded.store(true, std::memory_order_relaxed);
            break;
          }
          const int64_t sent = NowNs();
          lag[i] = (sent - std::max(due, free_at)) / 1e6;
          send_wait[i] = (sent - due) / 1e6;
          const Body& body = bodies[pick[i]];
          const int code = client.Roundtrip(body.request, &response);
          const int64_t done = NowNs();
          const bool ok = code >= 200 && code < 300;
          latency[i] = ok ? (done - due) / 1e6 : kFailedLatencyMs;
          graphs[i] = ok ? body.graphs : -1;
          if (ok && keep_verify && i % kVerifyEvery == 0) {
            std::lock_guard<std::mutex> lock(verify_mu);
            rung.verify.emplace_back(pick[i], response);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  rung.duration_s = static_cast<double>(due_ns[n - 1]) / 1e9;
  rung.overloaded = overloaded.load();
  for (int64_t i = 0; i < n; ++i) {
    if (latency[i] < 0) {  // never sent: the rung was abandoned
      rung.latency_ms.push_back(kFailedLatencyMs);
      continue;
    }
    ++rung.attempted;
    rung.latency_ms.push_back(latency[i]);
    rung.lag_ms.push_back(lag[i]);
    rung.send_wait_ms.push_back(send_wait[i]);
    if (graphs[i] < 0) {
      ++rung.failed;
    } else {
      rung.graphs_ok += graphs[i];
    }
  }
  return rung;
}

struct ClosedLoop {
  double graphs_per_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Closed loop: each connection sends its next request as soon as the
// previous reply arrives, for `seconds`.
ClosedLoop RunClosedLoop(int port, const std::vector<Body>& bodies,
                         double seconds, uint64_t seed) {
  std::atomic<int64_t> graphs{0}, attempted{0}, failed{0};
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < Connections(); ++c) {
    threads.emplace_back([&, c] {
      sgcl::Rng rng(seed * 131 + static_cast<uint64_t>(c));
      Client client(port);
      while (NowNs() < end) {
        const Body& body =
            bodies[rng.UniformInt(static_cast<int64_t>(bodies.size()))];
        const int code = client.Roundtrip(body.request, nullptr);
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (code >= 200 && code < 300) {
          graphs.fetch_add(body.graphs, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoop loop;
  loop.graphs_per_s =
      static_cast<double>(graphs.load()) / ((NowNs() - start) / 1e9);
  loop.attempted = attempted.load();
  loop.failed = failed.load();
  return loop;
}

// Checks sampled responses against InferenceSession::EmbedBatch on each
// graph alone. Returns the number of mismatches; `checked` counts graphs.
int64_t VerifyResponses(const Rung& rung, const std::vector<Body>& bodies,
                        const sgcl::serve::InferenceSession& session,
                        int64_t* checked) {
  int64_t bad = 0;
  for (const auto& [index, response] : rung.verify) {
    auto graphs = sgcl::serve::ParseGraphsRequest(
        bodies[index].json, session.feat_dim(), sgcl::serve::RequestLimits{
                                                    64, 1 << 20});
    auto doc = sgcl::JsonValue::Parse(response);
    const sgcl::JsonValue* rows = doc.ok() ? doc->Find("embeddings") : nullptr;
    if (!graphs.ok() || rows == nullptr || !rows->is_array() ||
        rows->AsArray().size() != graphs->size()) {
      ++bad;
      continue;
    }
    for (size_t g = 0; g < graphs->size(); ++g) {
      std::vector<std::vector<float>> alone;
      const Status st = session.EmbedBatch({&(*graphs)[g]}, &alone);
      const std::vector<sgcl::JsonValue>& got = rows->AsArray()[g].AsArray();
      bool same = st.ok() && alone.size() == 1 && got.size() == alone[0].size();
      for (size_t j = 0; same && j < got.size(); ++j) {
        const float v = static_cast<float>(got[j].AsDouble());
        same = std::memcmp(&v, &alone[0][j], sizeof(float)) == 0;
      }
      ++*checked;
      if (!same) ++bad;
    }
  }
  return bad;
}

// A loaded model, its checkpoint round trip and a started service.
struct Server {
  std::unique_ptr<sgcl::SgclModel> model;
  std::unique_ptr<sgcl::serve::InferenceSession> session;
  std::unique_ptr<sgcl::serve::ServeService> service;
};

sgcl::Result<Server> StartServer(const std::string& work_dir, uint64_t seed,
                                 sgcl::serve::BatchFn embed_override) {
  const sgcl::SgclConfig cfg = ServeConfig();
  const std::string ckpt = work_dir + "/serve.ckpt";
  {
    sgcl::Rng rng(seed);
    const sgcl::SgclModel trained(cfg, &rng);
    SGCL_RETURN_NOT_OK(sgcl::SaveCheckpoint(trained, ckpt));
  }
  Server server;
  sgcl::Rng rng(seed + 1);  // weights are overwritten by the checkpoint
  server.model = std::make_unique<sgcl::SgclModel>(cfg, &rng);
  SGCL_RETURN_NOT_OK(sgcl::LoadCheckpoint(ckpt, server.model.get()));
  server.session =
      std::make_unique<sgcl::serve::InferenceSession>(server.model.get());
  sgcl::serve::ServeOptions options;  // the CLI's defaults, except:
  options.limits.max_total_nodes = 2048;
  options.batcher.batch_timeout_us = kBatchWindowUs;
  server.service = std::make_unique<sgcl::serve::ServeService>(
      server.model.get(), options, std::move(embed_override));
  SGCL_RETURN_NOT_OK(server.service->Start());
  return server;
}

// Closed-loop warm-up over every body on every connection.
Status WarmUp(int port, const std::vector<Body>& bodies) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kMaxConnections; ++c) {
    threads.emplace_back([&, c] {
      Client client(port);
      for (size_t i = c; i < bodies.size(); i += kMaxConnections) {
        const int code = client.Roundtrip(bodies[i].request, nullptr);
        if (code != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return failures.load() == 0 ? Status::OK()
                              : Status::Internal("warm-up requests failed");
}

double HttpFloorUs(int port) {
  Client client(port);
  const std::string get =
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
  std::vector<double> us;
  for (int i = 0; i < 300; ++i) {
    const int64_t t0 = NowNs();
    if (client.Roundtrip(get, nullptr) != 200) return 0.0;
    us.push_back((NowNs() - t0) / 1e3);
  }
  return Median(us);
}

// Time of ParseGraphsRequest on each body (three passes), in µs.
std::vector<double> ParseUs(const std::vector<Body>& bodies) {
  std::vector<double> us;
  const sgcl::serve::RequestLimits limits{64, 2048};
  for (int pass = 0; pass < 3; ++pass) {
    for (const Body& body : bodies) {
      const int64_t t0 = NowNs();
      auto graphs = sgcl::serve::ParseGraphsRequest(
          body.json, sgcl::kMoleculeFeatDim, limits);
      const int64_t t1 = NowNs();
      if (graphs.ok()) us.push_back((t1 - t0) / 1e3);
    }
  }
  return us;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// Embed override for the traced run: times InferenceSession::EmbedBatch.
struct InferTimer {
  const sgcl::serve::InferenceSession* session = nullptr;
  std::mutex mu;
  std::vector<double> us;
  int64_t graphs = 0;
  int64_t stall_after_ns = 0;  // self-test: one stall after this time
  int64_t stall_ms = 0;
  bool stalled = false;

  sgcl::serve::BatchFn Fn() {
    return [this](const std::vector<const Graph*>& batch,
                  std::vector<std::vector<float>>* rows) {
      Span span(ProbeSpanName(kEmbedBatch));
      const int64_t t0 = NowNs();
      int64_t stall_now_ms = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stall_ms > 0 && !stalled && t0 >= stall_after_ns) {
          stalled = true;
          stall_now_ms = stall_ms;
        }
      }
      if (stall_now_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_now_ms));
      }
      const Status st = session->EmbedBatch(batch, rows);
      const int64_t ns = NowNs() - t0;
      AddToTotals(kEmbedBatch, ns);
      std::lock_guard<std::mutex> lock(mu);
      us.push_back(ns / 1e3);
      graphs += static_cast<int64_t>(batch.size());
      return st;
    };
  }
};

RunResult Failed(const Status& status) {
  RunResult result;
  result.AddCheck("run", false, status.ToString());
  return result;
}

void AddRungNote(const char* label, const Rung& r, RunResult* result) {
  result->notes.push_back(
      std::string(label) + " rung " + Fmt("%.0f", r.rate) + " rps: " +
      Fmt("%.0f", static_cast<double>(r.attempted)) + " requests, p50 " +
      Fmt("%.3f", r.p(0.5)) + " ms, p99 " + Fmt("%.3f", r.p(0.99)) +
      " ms, gen lag p99 " + Fmt("%.3f", r.lag_p99()) + " ms" +
      (r.overloaded ? ", overloaded" : "") + (r.growing() ? ", growing" : ""));
}

}  // namespace

RunResult RunServeEmbed(const RunOptions& options) {
  sgcl::SetParallelThreads(kPoolThreads);
  std::vector<double> setup_s;
  std::vector<Body> bodies;
  Server server;
  for (int i = 0; i < kSetups; ++i) {
    server.service.reset();  // stop the previous setup's service first
    const int64_t t0 = NowNs();
    bodies = MakeBodies(options.seed);
    auto started = StartServer(options.work_dir, options.seed, nullptr);
    if (!started.ok()) return Failed(started.status());
    server = std::move(*started);
    const Status warm = WarmUp(server.service->port(), bodies);
    if (!warm.ok()) return Failed(warm);
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  RunResult result;
  result.AddCheck("fused_plan", server.session->fused(),
                  "the service runs the fused GIN plan");
  const int port = server.service->port();
  int64_t checked = 0;
  int64_t bad = 0;
  // Every open-loop request counts toward attempted/failed; sampled
  // replies are checked against EmbedBatch on each graph alone.
  auto account = [&](const Rung& rung) {
    result.attempted += rung.attempted;
    result.failed += rung.failed;
    bad += VerifyResponses(rung, bodies, *server.session, &checked);
  };
  std::vector<double> lag_ms;

  if (!options.trace) {
    // Latency at the nominal rate: median of the p50s of the calmest
    // windows.
    std::vector<Rung> windows;
    int calm = 0;
    const int planned = std::max(
        kNominalWindows,
        static_cast<int>(options.seconds * kNominalShare / kWindowS));
    for (int w = 0; w < planned + kMaxExtraWindows; ++w) {
      if (w >= planned && calm >= kNominalWindows) break;
      Rung rung = RunRung(port, bodies, kNominalRps, kWindowS,
                          options.seed + w, w < kNominalWindows);
      AddRungNote("nominal", rung, &result);
      account(rung);
      if (rung.lag_p99() <= kCalmLagMs) ++calm;
      windows.push_back(std::move(rung));
    }
    std::sort(windows.begin(), windows.end(),
              [](const Rung& a, const Rung& b) {
                return a.lag_p99() < b.lag_p99();
              });
    windows.resize(kNominalWindows);
    std::vector<double> p50;
    for (const Rung& rung : windows) {
      p50.push_back(rung.p(0.5));
      lag_ms.insert(lag_ms.end(), rung.lag_ms.begin(), rung.lag_ms.end());
    }
    result.notes.push_back(
        Fmt("%.0f", calm) + " calm windows (generator lateness p99 <= " +
        Fmt("%.1f", kCalmLagMs) + " ms); latency from the " +
        Fmt("%.0f", kNominalWindows) + " calmest");
    // Capacity: closed loop over every connection, median of windows.
    std::vector<double> capacity;
    const double cap_s =
        options.seconds * (1.0 - kNominalShare) / kCapacityWindows;
    for (int w = 0; w < kCapacityWindows; ++w) {
      const ClosedLoop loop = RunClosedLoop(port, bodies, cap_s, options.seed + w);
      result.attempted += loop.attempted;
      result.failed += loop.failed;
      capacity.push_back(loop.graphs_per_s);
    }
    std::string windows_text;
    for (double c : capacity) windows_text += Fmt(" %.1f", c);
    result.notes.push_back("closed-loop capacity " +
                           Fmt("%.1f", Median(capacity)) +
                           " graphs/s, median of windows [" + windows_text +
                           " ]");
    result.metrics.Add("setup_s", Median(setup_s), "s");
    result.metrics.Add("graphs_per_s", Median(capacity), "graphs/s");
    result.metrics.Add("latency_ms_p50", Median(p50), "ms");
    result.metrics.Add("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    const double window_s = options.seconds * kTracedShare;
    const Rung nominal =
        RunRung(port, bodies, kNominalRps, window_s, options.seed, true);
    AddRungNote("nominal", nominal, &result);
    account(nominal);
    lag_ms = nominal.lag_ms;
    // A second service whose embed override times
    // InferenceSession::EmbedBatch, at the same nominal rate.
    InferTimer timer;
    Server traced_server;
    {
      auto started = StartServer(options.work_dir, options.seed, timer.Fn());
      if (!started.ok()) return Failed(started.status());
      traced_server = std::move(*started);
    }
    timer.session = traced_server.session.get();
    const int traced_port = traced_server.service->port();
    const Status warm = WarmUp(traced_port, bodies);
    if (!warm.ok()) return Failed(warm);
    {
      std::lock_guard<std::mutex> lock(timer.mu);
      timer.us.clear();
      timer.graphs = 0;
    }
    sgcl::MetricsRegistry::Global().Reset();
    ResetTotals();
    SetTracing(true);
    const Rung traced = RunRung(traced_port, bodies, kNominalRps, window_s,
                                options.seed, true);
    SetTracing(false);
    AddRungNote("traced", traced, &result);
    account(traced);
    const sgcl::MetricsSnapshot snap =
        sgcl::MetricsRegistry::Global().Snapshot();
    const ProbeTotals totals = ReadTotals();
    CheckLayerSources({kEmbedBatch, kBatchBuild},
                      {"serve/embed/queue_wait_us", "serve/embed/batch_graphs",
                       "serve/embed/latency_us"},
                      snap, &result);
    std::vector<double> infer_us;
    int64_t infer_graphs = 0;
    {
      std::lock_guard<std::mutex> lock(timer.mu);
      infer_us = timer.us;
      infer_graphs = timer.graphs;
    }
    const double http_floor_us = HttpFloorUs(traced_port);
    traced_server.service->Stop();

    // Ladder on the untraced service: from the nominal rate up while the
    // SLO holds, or down until it does.
    const int count = static_cast<int>(std::size(kLadder));
    const int at = static_cast<int>(
        std::find(kLadder, kLadder + count, kNominalRps) - kLadder);
    double max_rps = nominal.meets_slo() ? kNominalRps : 0.0;
    const int step = max_rps > 0 ? 1 : -1;
    for (int i = at + step; i >= 0 && i < count; i += step) {
      const Rung rung =
          RunRung(port, bodies, kLadder[i], kLadderRungS, options.seed, true);
      AddRungNote("ladder", rung, &result);
      account(rung);
      const bool pass = rung.meets_slo();
      if (pass) max_rps = std::max(max_rps, kLadder[i]);
      if (pass != (step > 0)) break;
    }

    std::map<std::string, double> v;
    const double batches =
        std::max<double>(1.0, static_cast<double>(infer_us.size()));
    v["graph.batch_build_us"] = totals.ns[kBatchBuild] / 1e3 / batches;
    v["nn.gin_plan_us_per_graph"] =
        infer_graphs > 0 ? totals.ns[kEmbedBatch] / 1e3 / infer_graphs : 0.0;
    v["tensor.matmul_gflop_per_batch"] =
        CounterOr0(snap, "tensor/matmul_flops") / 1e9 / batches;
    v["common.pool_queue_wait_us_p50"] =
        HistQuantile(snap, "parallel/queue_wait_us", 0.5);
    v["common.pool_queue_wait_us_p99"] =
        HistQuantile(snap, "parallel/queue_wait_us", 0.99);
    const std::vector<double> parse_us = ParseUs(bodies);
    v["serve.parse_us"] = Median(parse_us);
    v["serve.queue_wait_us_p50"] =
        HistQuantile(snap, "serve/embed/queue_wait_us", 0.5);
    v["serve.queue_wait_us_p99"] =
        HistQuantile(snap, "serve/embed/queue_wait_us", 0.99);
    v["serve.batch_graphs_mean"] = HistMean(snap, "serve/embed/batch_graphs");
    // In-handler time outside parse, queue wait and the forward: submit,
    // hand-back from the batcher thread and response formatting. The
    // handler time comes from the service's own latency histogram.
    const double handler_us = HistMean(snap, "serve/embed/latency_us");
    v["serve.handoff_us"] = handler_us - Mean(parse_us) -
                            HistMean(snap, "serve/embed/queue_wait_us") -
                            Mean(infer_us);
    v["serve.infer_us_p50"] = Quantile(infer_us, 0.5);
    v["serve.infer_us_p99"] = Quantile(infer_us, 0.99);
    v["serve.http_floor_us"] = http_floor_us;
    v["serve.rejected"] =
        static_cast<double>(CounterOr0(snap, "serve/embed/rejected"));
    v["serve.gen_lag_ms_p99"] = traced.lag_p99();
    v["serve.embed_ms_p90"] = nominal.p(0.9);
    v["serve.embed_ms_p99"] = nominal.p(0.99);
    v["serve.max_rps_at_slo"] = max_rps;
    v["trace.overhead_pct"] = 100.0 * (traced.p(0.5) / nominal.p(0.5) - 1.0);
    // Blocking path of a request, in means (which add up): wait for a
    // free connection, HTTP round-trip floor, then parse + queue wait +
    // forward + hand-off, which sum to the handler time; against the mean
    // latency of the same traced window (the overhead of tracing is
    // trace.overhead_pct).
    v["trace.blocking_coverage_pct"] =
        100.0 *
        (Mean(traced.send_wait_ms) + (http_floor_us + handler_us) / 1e3) /
        Mean(traced.latency_ms);
    result.metrics = LayerMetricSet(v);
    result.notes.push_back("max_rps_at_slo " + Fmt("%.0f", max_rps) +
                           " rps (p99 limit " + Fmt("%.0f", kSloMs) + " ms)");
  }
  const double lag_p99 = Quantile(lag_ms, 0.99);
  result.AddCheck("generator_on_time", lag_p99 <= kMaxGenLagMs,
                  "generator lateness p99 " + Fmt("%.3f", lag_p99) +
                      " ms (bound " + Fmt("%.1f", kMaxGenLagMs) + " ms)");
  result.AddCheck("responses_2xx", result.failed == 0,
                  Fmt("%.0f", static_cast<double>(result.failed)) +
                      " failed of " +
                      Fmt("%.0f", static_cast<double>(result.attempted)));
  result.AddCheck("embeddings_match_alone", bad == 0 && checked > 0,
                  Fmt("%.0f", static_cast<double>(checked)) +
                      " served graphs compared bitwise with EmbedBatch alone, " +
                      Fmt("%.0f", static_cast<double>(bad)) + " mismatches");
  server.service->Stop();
  return result;
}

RunResult RunServeStallSelfTest(const RunOptions& options) {
  sgcl::SetParallelThreads(kPoolThreads);
  const std::vector<Body> bodies = MakeBodies(options.seed);
  InferTimer timer;
  auto started = StartServer(options.work_dir, options.seed, timer.Fn());
  if (!started.ok()) return Failed(started.status());
  Server server = std::move(*started);
  timer.session = server.session.get();
  RunResult result;
  const int port = server.service->port();
  const Status warm = WarmUp(port, bodies);
  if (!warm.ok()) return Failed(warm);
  constexpr int64_t kStallMs = 300;
  const double seconds = 3.0;
  {
    std::lock_guard<std::mutex> lock(timer.mu);
    timer.stall_ms = kStallMs;
    timer.stall_after_ns = NowNs() + 1'000'000'000;
  }
  const Rung rung = RunRung(port, bodies, kNominalRps, seconds, options.seed,
                            false);
  AddRungNote("stalled", rung, &result);
  result.attempted = rung.attempted;
  result.failed = rung.failed;
  // Requests due during the stall wait for it: with ~kNominalRps *
  // kStallMs / 1000 of them (far more than 1% of the rung), p99 must
  // reach a good part of the stall, while p50 stays unaffected.
  result.AddCheck("stall_shows_in_p99", rung.p(0.99) >= 0.5 * kStallMs,
                  "p99 " + Fmt("%.1f", rung.p(0.99)) + " ms with one " +
                      Fmt("%.0f", kStallMs) + " ms stall");
  result.AddCheck("stall_spares_p50", rung.p(0.5) < kSloMs,
                  "p50 " + Fmt("%.2f", rung.p(0.5)) + " ms");
  result.metrics.Add("latency_ms_p50", rung.p(0.5), "ms");
  result.metrics.Add("latency_ms_p99", rung.p(0.99), "ms");
  server.service->Stop();
  return result;
}

}  // namespace perfbench
