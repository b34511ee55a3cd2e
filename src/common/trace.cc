#include "common/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "common/string_util.h"

namespace sgcl {
namespace {

std::atomic<int> g_next_thread_id{0};

int AssignThreadId() {
  thread_local int id = g_next_thread_id.fetch_add(1);
  return id;
}

thread_local TraceContext t_ambient_context;  // {0,0} == untraced

// splitmix64 finalizer: turns the sequential trace counter into ids that
// are unique, well-distributed, and still fully deterministic (sgcl-R2
// bans RNG outside common/rng; trace ids must not perturb training).
uint64_t MixTraceId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

using Span = TraceCollector::Span;

void AppendSpanJson(const Span& s, std::string* out) {
  *out += StrFormat(
      "{\"name\":\"%s\",\"span_id\":%llu,\"parent_span_id\":%llu,"
      "\"tid\":%d,\"start_us\":%lld,\"dur_us\":%lld}",
      JsonEscape(s.name).c_str(), static_cast<unsigned long long>(s.span_id),
      static_cast<unsigned long long>(s.parent_span_id), s.tid,
      static_cast<long long>(s.start_us), static_cast<long long>(s.dur_us));
}

// Emits one span-tree node: the span itself, its self time (duration not
// covered by child spans), and its children ordered by start time.
void AppendTreeNodeJson(const Span& node,
                        const std::vector<const Span*>& spans,
                        int depth, std::string* out) {
  std::vector<const Span*> children;
  for (const Span* s : spans) {
    if (s->parent_span_id == node.span_id && s->span_id != node.span_id) {
      children.push_back(s);
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Span* a, const Span* b) {
              if (a->start_us != b->start_us) return a->start_us < b->start_us;
              return a->span_id < b->span_id;
            });
  int64_t child_us = 0;
  for (const Span* c : children) child_us += c->dur_us;
  const int64_t self_us = std::max<int64_t>(0, node.dur_us - child_us);
  *out += StrFormat(
      "{\"name\":\"%s\",\"span_id\":%llu,\"tid\":%d,\"start_us\":%lld,"
      "\"dur_us\":%lld,\"self_us\":%lld,\"children\":[",
      JsonEscape(node.name).c_str(),
      static_cast<unsigned long long>(node.span_id), node.tid,
      static_cast<long long>(node.start_us),
      static_cast<long long>(node.dur_us), static_cast<long long>(self_us));
  if (depth < 64) {  // guard against malformed parent links
    bool first = true;
    for (const Span* c : children) {
      if (!first) *out += ',';
      first = false;
      AppendTreeNodeJson(*c, spans, depth + 1, out);
    }
  }
  *out += "]}";
}

}  // namespace

TraceContext CurrentTraceContext() { return t_ambient_context; }

std::string FormatTraceId(uint64_t trace_id) {
  return StrFormat("%016llx", static_cast<unsigned long long>(trace_id));
}

uint64_t ParseTraceId(const std::string& text) {
  const char* p = text.c_str();
  if (text.size() > 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) p += 2;
  if (*p == '\0' || *p == '-') return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(p, &end, 16);
  if (end == p || *end != '\0') return 0;
  return static_cast<uint64_t>(v);
}

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) {
  if (!ctx.valid()) return;
  saved_ = t_ambient_context;
  t_ambient_context = ctx;
  installed_ = true;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (installed_) t_ambient_context = saved_;
}

TraceCollector::TraceCollector()
    : epoch_(std::chrono::steady_clock::now()),
      dropped_spans_(
          MetricsRegistry::Global().GetCounter("trace/dropped_spans")) {}

void TraceCollector::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  StoreLocked(std::move(span));
}

void TraceCollector::StoreLocked(Span span) {
  if (spans_.size() == kMaxSpans) {
    spans_.pop_front();
    dropped_spans_->Increment();
  }
  spans_.push_back(std::move(span));
}

void TraceCollector::Complete(Span span, bool chrome) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = span.trace_id == 0 ? pending_.end() : pending_.find(span.trace_id);
  if (it == pending_.end()) {  // untraced, late or foreign span
    if (chrome) StoreLocked(std::move(span));
    return;
  }
  if (chrome) StoreLocked(span);
  const bool is_root = span.parent_span_id == 0;
  it->second.push_back(std::move(span));
  if (is_root) CommitLocked(it->first);
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  completed_.clear();
  pending_.clear();
  committed_count_ = 0;
}

std::vector<TraceCollector::Span> TraceCollector::Events() const {
  std::vector<Span> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.assign(spans_.begin(), spans_.end());
  }
  std::sort(events.begin(), events.end(),
            [](const Span& a, const Span& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  return events;
}

size_t TraceCollector::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string TraceCollector::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& e : Events()) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"sgcl\",\"ph\":\"X\",\"ts\":%lld,"
        "\"dur\":%lld,\"pid\":0,\"tid\":%d",
        JsonEscape(e.name).c_str(), static_cast<long long>(e.start_us),
        static_cast<long long>(e.dur_us), e.tid);
    if (e.trace_id != 0) {
      out += StrFormat(
          ",\"args\":{\"trace_id\":\"%s\",\"span_id\":%llu,"
          "\"parent_span_id\":%llu}",
          FormatTraceId(e.trace_id).c_str(),
          static_cast<unsigned long long>(e.span_id),
          static_cast<unsigned long long>(e.parent_span_id));
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status TraceCollector::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file " + path);
  }
  out << ToChromeTraceJson() << '\n';
  out.flush();
  if (!out) return Status::Internal("short write to trace file " + path);
  return Status::OK();
}

int64_t TraceCollector::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int TraceCollector::CurrentThreadId() { return AssignThreadId(); }

void TraceCollector::SetSampleRate(double rate) {
  uint64_t period = 0;
  if (rate > 0.0) {
    if (rate >= 1.0) {
      period = 1;
    } else {
      period = static_cast<uint64_t>(std::llround(1.0 / rate));
      if (period == 0) period = 1;
    }
  }
  period_.store(period, std::memory_order_relaxed);
}

double TraceCollector::sample_rate() const {
  const uint64_t period = period_.load(std::memory_order_relaxed);
  return period == 0 ? 0.0 : 1.0 / static_cast<double>(period);
}

void TraceCollector::SetTraceCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  trace_capacity_ = std::max<size_t>(1, capacity);
  while (completed_.size() > trace_capacity_) completed_.pop_front();
}

size_t TraceCollector::trace_capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_capacity_;
}

TraceContext TraceCollector::MaybeStartTrace() {
  const uint64_t period = period_.load(std::memory_order_relaxed);
  if (period == 0) return TraceContext{};
  const uint64_t n = admit_seq_.fetch_add(1, std::memory_order_relaxed);
  if (n % period != 0) return TraceContext{};
  const uint64_t id =
      MixTraceId(trace_seq_.fetch_add(1, std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A caller that samples a trace but never opens a root span would
    // leak its pending entry; bound the in-flight set defensively.
    if (pending_.size() >= trace_capacity_ * 4 + 16) return TraceContext{};
    pending_.emplace(id, std::vector<Span>());
  }
  return TraceContext{id, 0};
}

uint64_t TraceCollector::NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void TraceCollector::CommitLocked(uint64_t trace_id) {
  auto it = pending_.find(trace_id);
  if (it == pending_.end()) return;
  Trace trace;
  trace.trace_id = trace_id;
  for (const Span& s : it->second) {
    if (s.parent_span_id == 0) {
      trace.root_name = s.name;
      trace.start_us = s.start_us;
      trace.dur_us = s.dur_us;
      break;
    }
  }
  trace.spans = std::move(it->second);
  pending_.erase(it);
  completed_.push_back(std::move(trace));
  ++committed_count_;
  while (completed_.size() > trace_capacity_) completed_.pop_front();
}

std::vector<TraceCollector::Trace> TraceCollector::Traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Trace> out(completed_.rbegin(), completed_.rend());
  return out;
}

uint64_t TraceCollector::committed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_count_;
}

std::string TraceCollector::ListJson(int64_t min_duration_us, int limit,
                                     bool include_spans) const {
  std::vector<Trace> traces = Traces();
  std::string out = StrFormat(
      "{\"capacity\":%llu,\"committed\":%llu,\"sample_rate\":%s,"
      "\"traces\":[",
      static_cast<unsigned long long>(trace_capacity()),
      static_cast<unsigned long long>(committed_count()),
      JsonDouble(sample_rate()).c_str());
  bool first = true;
  int emitted = 0;
  for (const Trace& t : traces) {
    if (t.dur_us < min_duration_us) continue;
    if (limit > 0 && emitted >= limit) break;
    if (!first) out += ',';
    first = false;
    ++emitted;
    out += StrFormat(
        "{\"trace_id\":\"%s\",\"root\":\"%s\",\"start_us\":%lld,"
        "\"dur_us\":%lld,\"span_count\":%llu",
        FormatTraceId(t.trace_id).c_str(), JsonEscape(t.root_name).c_str(),
        static_cast<long long>(t.start_us), static_cast<long long>(t.dur_us),
        static_cast<unsigned long long>(t.spans.size()));
    if (include_spans) {
      out += ",\"spans\":[";
      for (size_t i = 0; i < t.spans.size(); ++i) {
        if (i > 0) out += ',';
        AppendSpanJson(t.spans[i], &out);
      }
      out += ']';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string TraceCollector::TreeJson(uint64_t trace_id) const {
  Trace trace;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Trace& t : completed_) {
      if (t.trace_id == trace_id) {
        trace = t;
        found = true;
        break;
      }
    }
  }
  if (!found) return std::string();
  const Span* root = nullptr;
  std::vector<const Span*> spans;
  spans.reserve(trace.spans.size());
  for (const Span& s : trace.spans) {
    spans.push_back(&s);
    if (s.parent_span_id == 0) root = &s;
  }
  std::string out = StrFormat("{\"trace_id\":\"%s\",\"span_count\":%llu",
                              FormatTraceId(trace.trace_id).c_str(),
                              static_cast<unsigned long long>(spans.size()));
  if (root != nullptr) {
    out += ",\"root\":";
    AppendTreeNodeJson(*root, spans, 0, &out);
  }
  out += '}';
  return out;
}

TraceCollector& TraceCollector::Global() {
  // NOLINTNEXTLINE(sgcl-R5): intentionally leaked singleton
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

uint64_t RecordManualSpan(const char* name, TraceContext parent,
                          int64_t start_us, int64_t end_us,
                          uint64_t span_id) {
  // A parent span id of 0 would make this span look like a trace root
  // (committing the trace); manual spans must nest under a real span.
  if (!parent.valid() || parent.span_id == 0) return 0;
  if (span_id == 0) span_id = TraceCollector::NextSpanId();
  TraceCollector& collector = TraceCollector::Global();
  collector.Complete({.name = name,
                      .tid = TraceCollector::CurrentThreadId(),
                      .start_us = start_us,
                      .dur_us = std::max<int64_t>(0, end_us - start_us),
                      .trace_id = parent.trace_id,
                      .span_id = span_id,
                      .parent_span_id = parent.span_id},
                     collector.enabled());
  return span_id;
}

TraceSpan::TraceSpan(const char* name, Counter* time_counter)
    : name_(name), counter_(time_counter) {
  chrome_ = TraceCollector::Global().enabled();
  const TraceContext ambient = t_ambient_context;
  if (ambient.trace_id != 0) {
    trace_id_ = ambient.trace_id;
    parent_span_id_ = ambient.span_id;
    span_id_ = TraceCollector::NextSpanId();
    t_ambient_context = TraceContext{trace_id_, span_id_};
  }
  if (chrome_ || trace_id_ != 0 || counter_ != nullptr) {
    start_us_ = TraceCollector::Global().NowUs();
  }
}

TraceSpan::~TraceSpan() {
  if (trace_id_ != 0) {
    t_ambient_context = TraceContext{trace_id_, parent_span_id_};
  }
  if (!chrome_ && trace_id_ == 0 && counter_ == nullptr) return;
  TraceCollector& collector = TraceCollector::Global();
  const int64_t end_us = collector.NowUs();
  if (counter_ != nullptr) counter_->Increment(end_us - start_us_);
  // Spans that began before Enable() (or after a disable) are dropped
  // rather than recorded with a bogus duration.
  const bool chrome = chrome_ && collector.enabled();
  if (!chrome && trace_id_ == 0) return;
  collector.Complete({.name = name_,
                      .tid = TraceCollector::CurrentThreadId(),
                      .start_us = start_us_,
                      .dur_us = end_us - start_us_,
                      .trace_id = trace_id_,
                      .span_id = span_id_,
                      .parent_span_id = parent_span_id_},
                     chrome);
}

}  // namespace sgcl
