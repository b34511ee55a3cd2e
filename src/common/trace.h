// Scoped trace spans, kept by one bounded sink (TraceCollector) that
// exports them as chrome://tracing "trace event" JSON and assembles
// request-scoped trace trees for /v1/traces.
//
// Usage at an instrumentation site:
//   void Stage() {
//     SGCL_TRACE_SPAN("generator/encode_views");
//     ...
//   }
// or, to also accumulate the stage's wall time into a metrics counter
// (the "time/<stage>_us" convention consumed by SgclTrainer):
//   SGCL_TRACE_SPAN_TIMED("generator");   // counter "time/generator_us"
//
// Every completed span takes one record path into TraceCollector, which
// keeps two views of it:
//
//  1. The chrome store. Off by default; Enable(true) records spans and
//     WriteChromeTrace() produces a file loadable by chrome://tracing /
//     Perfetto. It holds the newest kMaxSpans (65536) spans: a full
//     store evicts its oldest span and counts it in the
//     "trace/dropped_spans" counter, so no run grows it without bound.
//
//  2. The sampled-trace index, always on. A root is opened with
//     MaybeStartTrace() (a deterministic every-Nth sampler; rate 0
//     disables), installed as the thread's ambient TraceContext via
//     ScopedTraceContext, and every TraceSpan that runs under an ambient
//     context becomes a node in that trace's span tree (64-bit trace id
//     + parent span id). When the root span closes, the assembled tree
//     is committed to a ring of trace_capacity() trees (oldest evicted)
//     and is queryable as JSON. It works whether or not the chrome
//     store is enabled.
//
// Crossing a thread boundary is explicit: capture CurrentTraceContext()
// on the submitting side, install it with ScopedTraceContext inside the
// worker. Nothing is propagated implicitly through thread pools.
//
// Cost when disabled: a disabled span costs one relaxed atomic load for
// the chrome store plus one thread-local read for the ambient
// context, and no clock reads (TIMED spans keep feeding their counter
// either way — metrics are always-on). MaybeStartTrace with rate 0 is
// one relaxed load.
//
// Span conventions: names are "<subsystem>/<what>" (stage-level, not
// per-node — spans inside tight loops belong at chunk granularity).
// Thread ids are small dense integers assigned in first-span order; tid 0
// is whichever thread traced first (normally the main thread).
#ifndef SGCL_COMMON_TRACE_H_
#define SGCL_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace sgcl {

// Identity of the trace (and enclosing span) a piece of work belongs to.
// trace_id == 0 means "not traced"; span_id is the id of the innermost
// open span, i.e. the parent for any span started under this context.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

// The calling thread's ambient context ({0,0} when untraced).
TraceContext CurrentTraceContext();

// Formats a trace id as the 16-digit lowercase hex string used in JSON,
// HTTP paths, and response headers; ParseTraceId accepts the same form
// (with or without a "0x" prefix) and returns 0 on malformed input.
std::string FormatTraceId(uint64_t trace_id);
uint64_t ParseTraceId(const std::string& text);

// RAII install/restore of the ambient TraceContext. Used to carry a
// context across explicit thread boundaries (batcher dispatch thread,
// prefetcher pool workers); installing an invalid context is a no-op so
// untraced work pays nothing.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
  bool installed_ = false;
};

// The process-wide sink for completed spans: the chrome store and the
// sampled-trace index of the file comment, under one lock. Thread-safe.
class TraceCollector {
 public:
  struct Span {
    std::string name;
    int tid = 0;
    int64_t start_us = 0;  // relative to the collector's epoch
    int64_t dur_us = 0;
    // Trace-tree identity; all zero for spans recorded outside a
    // sampled trace. Exported as chrome "args" so offline tools can
    // rebuild the tree from the file.
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;  // 0 == root
  };
  // The chrome store's name for a span; external probes build these.
  using Event = Span;

  struct Trace {
    uint64_t trace_id = 0;
    std::string root_name;
    int64_t start_us = 0;
    int64_t dur_us = 0;        // root span duration
    std::vector<Span> spans;   // includes the root, completion order
  };

  // Chrome-store capacity in spans. A full store evicts its oldest span
  // and counts it in the "trace/dropped_spans" counter.
  static constexpr size_t kMaxSpans = 65536;

  TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Stores a span in the chrome store, enabled or not: callers that time
  // their own spans decide themselves whether to record.
  void Record(Span span);
  // Drops the chrome store, the completed traces and the in-flight ones.
  void Clear();

  // Copy of the chrome store, ordered by (start_us, dur_us desc) so a
  // parent span sorts before the children it encloses.
  std::vector<Span> Events() const;
  // Number of spans in the chrome store (no copy).
  size_t span_count() const;

  // {"traceEvents":[...],"displayTimeUnit":"ms"} with one "ph":"X"
  // complete event per span.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  // Microseconds since the collector's epoch (steady clock).
  int64_t NowUs() const;
  // Dense id of the calling thread, assigned on first use.
  static int CurrentThreadId();

  // Sampling: rate in [0,1]; 0 disables. Implemented as a deterministic
  // every-Nth admission (period = round(1/rate)) off a relaxed atomic
  // counter — no RNG, so sampled runs stay reproducible (sgcl-R2).
  void SetSampleRate(double rate);
  double sample_rate() const;

  // Capacity of the sampled-trace ring in completed traces (default 256;
  // minimum 1).
  void SetTraceCapacity(size_t capacity);
  size_t trace_capacity() const;

  // Opens a new trace if the sampler admits this call. The returned
  // context has span_id == 0: the first TraceSpan run under it becomes
  // the trace's root, and its completion commits the trace.
  // Returns an invalid context (trace_id 0) when not sampled.
  TraceContext MaybeStartTrace();

  // Fresh span id (process-wide, never 0).
  static uint64_t NextSpanId();

  // Completed traces, newest first.
  std::vector<Trace> Traces() const;
  // Number of traces committed since construction/Clear (not capped by
  // capacity — used by tests and /v1/traces metadata).
  uint64_t committed_count() const;

  // JSON for /v1/traces: newest-first summaries filtered by
  // min_duration_us, capped at limit (<=0 means no cap). When
  // include_spans is set, each trace carries its flat span list —
  // the dump format tools/trace_report ingests.
  std::string ListJson(int64_t min_duration_us, int limit,
                       bool include_spans) const;
  // JSON span tree for /v1/traces/<id>; empty string when unknown.
  std::string TreeJson(uint64_t trace_id) const;

  static TraceCollector& Global();

 private:
  friend class TraceSpan;
  friend uint64_t RecordManualSpan(const char* name, TraceContext parent,
                                   int64_t start_us, int64_t end_us,
                                   uint64_t span_id);

  // The one record path for completed spans: stores `span` in the
  // chrome store when `chrome` is set, and appends it to its open
  // sampled trace when it has one (late or foreign trace ids are
  // dropped); a span with parent_span_id == 0 commits its trace.
  void Complete(Span span, bool chrome);
  void StoreLocked(Span span) SGCL_REQUIRES(mu_);
  void CommitLocked(uint64_t trace_id) SGCL_REQUIRES(mu_);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  Counter* const dropped_spans_;
  std::atomic<uint64_t> period_{0};      // 0 == sampling off
  std::atomic<uint64_t> admit_seq_{0};   // every-Nth admission counter
  std::atomic<uint64_t> trace_seq_{0};   // mixed into trace ids

  mutable std::mutex mu_;
  std::deque<Span> spans_ SGCL_GUARDED_BY(mu_);  // chrome store, oldest first
  size_t trace_capacity_ SGCL_GUARDED_BY(mu_) = 256;
  uint64_t committed_count_ SGCL_GUARDED_BY(mu_) = 0;
  std::deque<Trace> completed_ SGCL_GUARDED_BY(mu_);  // oldest at front
  // In-flight traces: spans buffered until the root span closes. A
  // trace id is "open" iff it has an entry here; spans for other ids
  // (late arrivals after commit, foreign ids) are dropped.
  std::unordered_map<uint64_t, std::vector<Span>> pending_
      SGCL_GUARDED_BY(mu_);
};

// Records a completed span with explicit timestamps (collector-epoch
// µs, i.e. TraceCollector::NowUs values) as a child of `parent`. Used
// by instrumentation that reconstructs phases after the fact (the
// micro-batcher's per-request queue_wait/batch_form/forward). Feeds the
// chrome store (when enabled) and the sampled trace; no-op returning 0
// when `parent` is invalid. Returns the span's id. Passing a nonzero
// `span_id` (from TraceCollector::NextSpanId) uses it instead of allocating;
// this lets callers pre-allocate an id, run nested work under
// ScopedTraceContext{trace_id, span_id}, and record the enclosing span
// afterwards with the children already pointing at it.
uint64_t RecordManualSpan(const char* name, TraceContext parent,
                          int64_t start_us, int64_t end_us,
                          uint64_t span_id = 0);

// RAII span. When `time_counter` is non-null the scope's duration is
// always added to it (in µs); the chrome trace event is only recorded
// while the global collector is enabled, and the span only joins a
// sampled trace when the thread's ambient TraceContext is valid (in
// which case the span also becomes the ambient parent for its scope).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Counter* time_counter = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Identity of this span while open ({0,0} when the span is not part
  // of a sampled trace). Lets instrumentation attach the id to
  // exemplars/headers without reaching back into thread-locals.
  TraceContext context() const { return TraceContext{trace_id_, span_id_}; }

 private:
  const char* name_;
  Counter* counter_;
  bool chrome_ = false;       // record into the chrome store on close
  uint64_t trace_id_ = 0;     // nonzero => part of a sampled trace
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  int64_t start_us_ = 0;
};

}  // namespace sgcl

#define SGCL_TRACE_CONCAT_IMPL_(a, b) a##b
#define SGCL_TRACE_CONCAT_(a, b) SGCL_TRACE_CONCAT_IMPL_(a, b)

// Trace-only span (no metrics counter).
#define SGCL_TRACE_SPAN(name)                                       \
  ::sgcl::TraceSpan SGCL_TRACE_CONCAT_(_sgcl_trace_span_, __LINE__)(name)

// Span that also accumulates wall time into counter "time/<name>_us" in
// the global metrics registry. `name` must be a string literal.
#define SGCL_TRACE_SPAN_TIMED(name)                                        \
  static ::sgcl::Counter* SGCL_TRACE_CONCAT_(_sgcl_span_counter_,          \
                                             __LINE__) =                   \
      ::sgcl::MetricsRegistry::Global().GetCounter("time/" name "_us");    \
  ::sgcl::TraceSpan SGCL_TRACE_CONCAT_(_sgcl_trace_span_, __LINE__)(       \
      name, SGCL_TRACE_CONCAT_(_sgcl_span_counter_, __LINE__))

#endif  // SGCL_COMMON_TRACE_H_
