// Wrapped-symbol interposers (see probe.h). Each __wrap_X below has the
// signature of the member function X with `this` as an explicit first
// parameter, which is how the Itanium C++ ABI passes it (after the
// hidden return-slot pointer for class-type returns) on x86-64 and
// AArch64. The __real_X declarations resolve to the library's original
// definitions.
#include "probe.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/trace.h"
#include "core/lipschitz_generator.h"
#include "core/sgcl_model.h"
#include "graph/graph_batch.h"
#include "nn/encoder.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::array<std::atomic<int64_t>, kNumProbes> g_calls{};
std::array<std::atomic<int64_t>, kNumProbes> g_ns{};
std::atomic<int64_t> g_generator_nodes{0};
std::atomic<uint64_t> g_next_id{1};

struct OpenSpan {
  uint64_t trace_id;
  uint64_t span_id;
};

struct ThreadState {
  std::vector<OpenSpan> spans;
  int in_forward = 0;
  int in_generator = 0;
};

ThreadState& Tls() {
  thread_local ThreadState state;
  return state;
}

// Times one wrapped call: totals and a span when tracing.
class Timed {
 public:
  explicit Timed(Probe probe)
      : probe_(probe), on_(g_tracing.load(std::memory_order_relaxed)) {
    if (!on_) return;
    span_.emplace(ProbeSpanName(probe));
    start_ = NowNs();
  }
  ~Timed() {
    if (!on_) return;
    const int64_t ns = NowNs() - start_;
    AddToTotals(probe_, ns);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  bool on() const { return on_; }

 private:
  Probe probe_;
  bool on_;
  int64_t start_ = 0;
  std::optional<Span> span_;
};

}  // namespace

const char* ProbeSpanName(Probe probe) {
  switch (probe) {
    case kBatchBuild: return "graph/FromGraphPtrs";
    case kGenerator: return "core/ComputeConstants";
    case kForward: return "core/ComputeLoss";
    case kEncodeNodes: return "nn/EncodeNodes";
    case kBackward: return "tensor/Backward";
    case kFetch: return "data/Fetch";
    case kEmbedBatch: return "nn/EmbedBatch";
    case kNumProbes: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

ProbeTotals ReadTotals() {
  ProbeTotals totals;
  for (int p = 0; p < kNumProbes; ++p) {
    totals.calls[p] = g_calls[p].load(std::memory_order_relaxed);
    totals.ns[p] = g_ns[p].load(std::memory_order_relaxed);
  }
  totals.generator_nodes = g_generator_nodes.load(std::memory_order_relaxed);
  return totals;
}

void ResetTotals() {
  for (int p = 0; p < kNumProbes; ++p) {
    g_calls[p].store(0, std::memory_order_relaxed);
    g_ns[p].store(0, std::memory_order_relaxed);
  }
  g_generator_nodes.store(0, std::memory_order_relaxed);
}

void AddToTotals(Probe probe, int64_t ns) {
  g_calls[probe].fetch_add(1, std::memory_order_relaxed);
  g_ns[probe].fetch_add(ns, std::memory_order_relaxed);
}

void CheckLayerSources(std::initializer_list<Probe> probes,
                       std::initializer_list<const char*> series,
                       const sgcl::MetricsSnapshot& snap, RunResult* result) {
  const ProbeTotals totals = ReadTotals();
  std::string silent;
  for (Probe probe : probes) {
    if (totals.calls[probe] == 0) {
      silent += std::string(" ") + ProbeSpanName(probe);
    }
  }
  for (const char* name : series) {
    const auto hist = snap.histograms.find(name);
    const bool seen = hist != snap.histograms.end()
                          ? hist->second.count > 0
                          : CounterOr0(snap, name) > 0;
    if (!seen) silent += std::string(" ") + name;
  }
  result->AddCheck("layer_sources", silent.empty(),
                   silent.empty() ? "every probe and counter recorded data"
                                  : "recorded nothing:" + silent);
}

Span::Span(const char* name) : name_(name) {
  if (!Tracing()) return;
  ThreadState& tls = Tls();
  active_ = true;
  span_id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (tls.spans.empty()) {
    trace_id_ = span_id_;
  } else {
    trace_id_ = tls.spans.back().trace_id;
    parent_id_ = tls.spans.back().span_id;
  }
  tls.spans.push_back({trace_id_, span_id_});
  start_us_ = sgcl::TraceCollector::Global().NowUs();
}

Span::~Span() {
  if (!active_) return;
  sgcl::TraceCollector& collector = sgcl::TraceCollector::Global();
  sgcl::TraceCollector::Event event;
  event.name = name_;
  event.tid = sgcl::TraceCollector::CurrentThreadId();
  event.start_us = start_us_;
  event.dur_us = collector.NowUs() - start_us_;
  event.trace_id = trace_id_;
  event.span_id = span_id_;
  event.parent_span_id = parent_id_;
  collector.Record(std::move(event));
  Tls().spans.pop_back();
}

}  // namespace perfbench

using perfbench::Timed;

namespace {

// The real definitions are weak references: a library that no longer
// defines a wrapped symbol still links, and its wrapper is never called.
// Reaching a wrapper whose real function is missing is a link problem.
template <typename F>
F* Real(F* fn, const char* name) {
  if (fn == nullptr) {
    std::fprintf(stderr, "perfbench: %s is wrapped but not linked\n", name);
    std::abort();
  }
  return fn;
}

}  // namespace

// --- graph -----------------------------------------------------------------
sgcl::GraphBatch RealFromGraphPtrs(
    const std::vector<const sgcl::Graph*>& graphs) __asm__(
    "__real__ZN4sgcl10GraphBatch13FromGraphPtrsERKSt6vectorIPKNS_5GraphESaIS4_"
    "EE") __attribute__((weak));
sgcl::GraphBatch WrapFromGraphPtrs(
    const std::vector<const sgcl::Graph*>& graphs) __asm__(
    "__wrap__ZN4sgcl10GraphBatch13FromGraphPtrsERKSt6vectorIPKNS_5GraphESaIS4_"
    "EE");
sgcl::GraphBatch WrapFromGraphPtrs(
    const std::vector<const sgcl::Graph*>& graphs) {
  Timed timed(perfbench::kBatchBuild);
  return Real(&RealFromGraphPtrs, "GraphBatch::FromGraphPtrs")(graphs);
}

// --- core ------------------------------------------------------------------
std::vector<float> RealComputeConstants(
    const sgcl::LipschitzGenerator* self,
    const std::vector<const sgcl::Graph*>& graphs) __asm__(
    "__real__ZNK4sgcl18LipschitzGenerator16ComputeConstantsERKSt6vectorIPKNS_"
    "5GraphESaIS4_EE") __attribute__((weak));
std::vector<float> WrapComputeConstants(
    const sgcl::LipschitzGenerator* self,
    const std::vector<const sgcl::Graph*>& graphs) __asm__(
    "__wrap__ZNK4sgcl18LipschitzGenerator16ComputeConstantsERKSt6vectorIPKNS_"
    "5GraphESaIS4_EE");
std::vector<float> WrapComputeConstants(
    const sgcl::LipschitzGenerator* self,
    const std::vector<const sgcl::Graph*>& graphs) {
  perfbench::ThreadState& tls = perfbench::Tls();
  ++tls.in_generator;
  std::vector<float> out;
  {
    Timed timed(perfbench::kGenerator);
    if (timed.on()) {
      int64_t nodes = 0;
      for (const sgcl::Graph* g : graphs) nodes += g->num_nodes();
      perfbench::g_generator_nodes.fetch_add(nodes,
                                             std::memory_order_relaxed);
    }
    out = Real(&RealComputeConstants,
               "LipschitzGenerator::ComputeConstants")(self, graphs);
  }
  --tls.in_generator;
  return out;
}

sgcl::Tensor RealComputeLoss(sgcl::SgclModel* self,
                             const std::vector<const sgcl::Graph*>& graphs,
                             sgcl::Rng* rng, sgcl::SgclLossStats* stats)
    __asm__(
        "__real__ZN4sgcl9SgclModel11ComputeLossERKSt6vectorIPKNS_5GraphESaIS4_"
        "EEPNS_3RngEPNS_13SgclLossStatsE") __attribute__((weak));
sgcl::Tensor WrapComputeLoss(sgcl::SgclModel* self,
                             const std::vector<const sgcl::Graph*>& graphs,
                             sgcl::Rng* rng, sgcl::SgclLossStats* stats)
    __asm__(
        "__wrap__ZN4sgcl9SgclModel11ComputeLossERKSt6vectorIPKNS_5GraphESaIS4_"
        "EEPNS_3RngEPNS_13SgclLossStatsE");
sgcl::Tensor WrapComputeLoss(sgcl::SgclModel* self,
                             const std::vector<const sgcl::Graph*>& graphs,
                             sgcl::Rng* rng, sgcl::SgclLossStats* stats) {
  perfbench::ThreadState& tls = perfbench::Tls();
  ++tls.in_forward;
  sgcl::Tensor loss;
  {
    Timed timed(perfbench::kForward);
    loss = Real(&RealComputeLoss, "SgclModel::ComputeLoss")(self, graphs,
                                                             rng, stats);
  }
  --tls.in_forward;
  return loss;
}

// --- nn --------------------------------------------------------------------
sgcl::Tensor RealEncodeNodes(const sgcl::GnnEncoder* self,
                             const sgcl::Tensor& x,
                             const sgcl::GraphBatch& batch) __asm__(
    "__real__ZNK4sgcl10GnnEncoder11EncodeNodesERKNS_6TensorERKNS_"
    "10GraphBatchE") __attribute__((weak));
sgcl::Tensor WrapEncodeNodes(const sgcl::GnnEncoder* self,
                             const sgcl::Tensor& x,
                             const sgcl::GraphBatch& batch) __asm__(
    "__wrap__ZNK4sgcl10GnnEncoder11EncodeNodesERKNS_6TensorERKNS_"
    "10GraphBatchE");
sgcl::Tensor WrapEncodeNodes(const sgcl::GnnEncoder* self,
                             const sgcl::Tensor& x,
                             const sgcl::GraphBatch& batch) {
  const perfbench::ThreadState& tls = perfbench::Tls();
  if (tls.in_forward == 0 || tls.in_generator > 0) {
    return Real(&RealEncodeNodes, "GnnEncoder::EncodeNodes")(self, x, batch);
  }
  Timed timed(perfbench::kEncodeNodes);
  return Real(&RealEncodeNodes, "GnnEncoder::EncodeNodes")(self, x, batch);
}

// --- tensor ----------------------------------------------------------------
void RealBackward(sgcl::Tensor* self) __asm__(
    "__real__ZN4sgcl6Tensor8BackwardEv") __attribute__((weak));
void WrapBackward(sgcl::Tensor* self) __asm__(
    "__wrap__ZN4sgcl6Tensor8BackwardEv");
void WrapBackward(sgcl::Tensor* self) {
  Timed timed(perfbench::kBackward);
  Real(&RealBackward, "Tensor::Backward")(self);
}
