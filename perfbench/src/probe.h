// Layer probes: timed interposers around public functions of the sgcl
// library.
//
// The benchmark binary is linked with `ld --wrap=<symbol>` for each
// function below (see ../CMakeLists.txt), so every call the library makes
// across object files into, say, Tensor::Backward lands in a wrapper in
// probe.cc first. The wrapper forwards to the real function unchanged;
// with tracing on it also adds the call's wall time to a per-layer total
// and records a chrome-trace span. The training and serving code under
// test is therefore the program's own, not a copy.
//
// Tracing off costs a relaxed atomic load and a few thread-local counter
// updates per wrapped call.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "util.h"

namespace perfbench {

enum Probe : int {
  kBatchBuild = 0,  // graph:  GraphBatch::FromGraphPtrs
  kGenerator,       // core:   LipschitzGenerator::ComputeConstants
  kForward,         // core:   SgclModel::ComputeLoss
  kEncodeNodes,     // nn:     GnnEncoder::EncodeNodes, on the tape only
  kBackward,        // tensor: Tensor::Backward
  kFetch,           // data:   GraphSource::Fetch (benchmark decorator)
  kEmbedBatch,      // nn:     InferenceSession::EmbedBatch (embed override)
  kNumProbes,
};

const char* ProbeSpanName(Probe probe);

struct ProbeTotals {
  std::array<int64_t, kNumProbes> calls{};
  std::array<int64_t, kNumProbes> ns{};
  int64_t generator_nodes = 0;  // nodes handed to ComputeConstants
};

// Turns timing and span recording on or off process-wide.
void SetTracing(bool on);
bool Tracing();

// Totals since the last ResetTotals, summed over threads.
ProbeTotals ReadTotals();
void ResetTotals();

// Adds the check "layer_sources": every probe in `probes` recorded a call
// and every registry counter or histogram in `series` a nonzero value
// since the last reset. A probe whose wrapped function changed signature
// is never called, and a renamed counter reads 0; without this check
// either would show as a layer that costs nothing.
void CheckLayerSources(std::initializer_list<Probe> probes,
                       std::initializer_list<const char*> series,
                       const sgcl::MetricsSnapshot& snap, RunResult* result);

// Adds a call's duration to a probe's totals (for probes the benchmark
// times itself: the Fetch decorator and the embed override).
void AddToTotals(Probe probe, int64_t ns);

// RAII chrome-trace span, nested under the calling thread's innermost
// open span (a new trace when there is none). Records nothing unless
// tracing is on.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  int64_t start_us_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
};

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
