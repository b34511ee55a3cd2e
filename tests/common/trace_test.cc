#include "common/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace sgcl {
namespace {

// The global collector is process-wide; each test starts from a clean,
// enabled state and disables on exit so other tests see the default-off
// behavior.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceCollector::Global().Clear();
    TraceCollector::Global().Enable(true);
  }
  void TearDown() override {
    TraceCollector::Global().Enable(false);
    TraceCollector::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  TraceCollector::Global().Enable(false);
  { SGCL_TRACE_SPAN("ignored"); }
  EXPECT_TRUE(TraceCollector::Global().Events().empty());
}

TEST_F(TraceTest, NestedSpansSortParentFirst) {
  // Sub-µs scopes can tie on (start, dur), making the order ambiguous;
  // the sleeps force inner to outlast the tie and outer to outlast inner.
  {
    SGCL_TRACE_SPAN("outer");
    {
      SGCL_TRACE_SPAN("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto events = TraceCollector::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  // Parent starts no later and lasts at least as long; the (start asc,
  // dur desc) order puts it first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_LE(events[0].start_us, events[1].start_us);
  EXPECT_GE(events[0].start_us + events[0].dur_us,
            events[1].start_us + events[1].dur_us);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, TimedSpanFeedsCounterEvenWhenDisabled) {
  TraceCollector::Global().Enable(false);
  Counter* counter =
      MetricsRegistry::Global().GetCounter("time/trace_test_stage_us");
  counter->Reset();
  { SGCL_TRACE_SPAN_TIMED("trace_test_stage"); }
  EXPECT_GE(counter->value(), 0);
  EXPECT_TRUE(TraceCollector::Global().Events().empty());
  // Enabled, the same site records a span too.
  TraceCollector::Global().Enable(true);
  { SGCL_TRACE_SPAN_TIMED("trace_test_stage"); }
  auto events = TraceCollector::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "trace_test_stage");
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  { SGCL_TRACE_SPAN("stage/a"); }
  const std::string json = TraceCollector::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage/a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST_F(TraceTest, WriteChromeTraceRoundTrip) {
  { SGCL_TRACE_SPAN("stage/write"); }
  const std::string path =
      ::testing::TempDir() + "/sgcl_trace_test_out.json";
  ASSERT_TRUE(TraceCollector::Global().WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("stage/write"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, WriteChromeTraceRejectsBadPath) {
  EXPECT_FALSE(TraceCollector::Global()
                   .WriteChromeTrace("/nonexistent-dir/trace.json")
                   .ok());
}

TEST_F(TraceTest, ConcurrentThreadPoolSpansAreDenseAndWellNested) {
  // TSan-covered: spans recorded from ThreadPool workers land with small
  // dense thread ids, and spans sharing a tid are well-nested (chrome
  // tracing renders overlapping-but-not-nested spans on one track as
  // garbage).
  ParallelFor(0, 64, /*grain=*/4, [](int64_t lo, int64_t hi) {
    SGCL_TRACE_SPAN("pool/chunk_outer");
    for (int64_t i = lo; i < hi; ++i) {
      SGCL_TRACE_SPAN("pool/chunk_inner");
    }
  });
  const auto events = TraceCollector::Global().Events();
  ASSERT_FALSE(events.empty());
  std::set<int> tids;
  for (const auto& e : events) tids.insert(e.tid);
  // Dense ids: every id seen across the process so far is a small
  // non-negative integer bounded by pool size + observed threads, never a
  // raw OS thread id.
  const int bound =
      ParallelRuntimeThreads() + static_cast<int>(tids.size()) + 4;
  for (int tid : tids) {
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, bound);
  }
  // Well-nested per tid: spans sorted by (start asc, dur desc) behave
  // like a bracket sequence — each next span either nests inside the
  // enclosing open span or starts after it ends, never straddles.
  std::map<int, std::vector<TraceCollector::Event>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(e);
  for (const auto& [tid, spans] : by_tid) {
    std::vector<const TraceCollector::Event*> open;
    for (const auto& e : spans) {
      while (!open.empty() &&
             e.start_us >= open.back()->start_us + open.back()->dur_us) {
        open.pop_back();
      }
      if (!open.empty()) {
        EXPECT_LE(e.start_us + e.dur_us,
                  open.back()->start_us + open.back()->dur_us)
            << "span " << e.name << " straddles " << open.back()->name
            << " on tid " << tid;
      }
      open.push_back(&e);
    }
  }
}

TEST_F(TraceTest, ClearDropsEvents) {
  { SGCL_TRACE_SPAN("gone"); }
  EXPECT_FALSE(TraceCollector::Global().Events().empty());
  TraceCollector::Global().Clear();
  EXPECT_TRUE(TraceCollector::Global().Events().empty());
}

// TraceRing tests run with the chrome collector off (the ring is an
// independent sink); each test resets the global ring's sampling,
// capacity, and contents so tests are order-independent.
class TraceRingTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetRing(); }
  void TearDown() override { ResetRing(); }

  static void ResetRing() {
    TraceRing::Global().SetSampleRate(0.0);
    TraceRing::Global().SetCapacity(256);
    TraceRing::Global().Clear();
  }

  // Opens a sampled trace and runs a root span with two children under
  // it, returning the trace id.
  static uint64_t CommitSimpleTrace() {
    const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
    EXPECT_TRUE(ctx.valid());
    ScopedTraceContext install(ctx);
    {
      TraceSpan root("test/root");
      { SGCL_TRACE_SPAN("test/parse"); }
      { SGCL_TRACE_SPAN("test/forward"); }
    }
    return ctx.trace_id;
  }
};

TEST_F(TraceRingTest, RateZeroNeverSamples) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(TraceRing::Global().MaybeStartTrace().valid());
  }
  EXPECT_EQ(TraceRing::Global().sample_rate(), 0.0);
}

TEST_F(TraceRingTest, SamplesEveryNthDeterministically) {
  TraceRing::Global().SetSampleRate(0.25);  // period 4
  int sampled = 0;
  for (int i = 0; i < 40; ++i) {
    if (TraceRing::Global().MaybeStartTrace().valid()) ++sampled;
  }
  EXPECT_EQ(sampled, 10);
  EXPECT_DOUBLE_EQ(TraceRing::Global().sample_rate(), 0.25);
}

TEST_F(TraceRingTest, UntracedSpansCostNoRingEntries) {
  TraceRing::Global().SetSampleRate(1.0);
  // No ambient context installed: spans do not join any trace.
  { SGCL_TRACE_SPAN("test/orphan"); }
  EXPECT_EQ(TraceRing::Global().committed_count(), 0u);
}

TEST_F(TraceRingTest, RootSpanCommitsAssembledTree) {
  TraceRing::Global().SetSampleRate(1.0);
  const uint64_t trace_id = CommitSimpleTrace();
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].trace_id, trace_id);
  EXPECT_EQ(traces[0].root_name, "test/root");
  ASSERT_EQ(traces[0].spans.size(), 3u);
  // Children carry the root's span id as parent.
  uint64_t root_span_id = 0;
  for (const auto& s : traces[0].spans) {
    if (s.parent_span_id == 0) root_span_id = s.span_id;
  }
  ASSERT_NE(root_span_id, 0u);
  for (const auto& s : traces[0].spans) {
    if (s.parent_span_id != 0) {
      EXPECT_EQ(s.parent_span_id, root_span_id);
    }
  }
  // The tree JSON nests both children under the root with self_us.
  const std::string tree = TraceRing::Global().TreeJson(trace_id);
  EXPECT_NE(tree.find("\"root\":{\"name\":\"test/root\""), std::string::npos);
  EXPECT_NE(tree.find("test/parse"), std::string::npos);
  EXPECT_NE(tree.find("test/forward"), std::string::npos);
  EXPECT_NE(tree.find("\"self_us\":"), std::string::npos);
  EXPECT_EQ(TraceRing::Global().TreeJson(trace_id + 1), "");
}

TEST_F(TraceRingTest, AmbientContextRestoredAfterScope) {
  TraceRing::Global().SetSampleRate(1.0);
  EXPECT_FALSE(CurrentTraceContext().valid());
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  {
    ScopedTraceContext install(ctx);
    EXPECT_EQ(CurrentTraceContext().trace_id, ctx.trace_id);
    {
      TraceSpan root("test/root");
      // Inside a span, the ambient parent is the open span itself.
      EXPECT_EQ(CurrentTraceContext().span_id, root.context().span_id);
    }
    EXPECT_EQ(CurrentTraceContext().span_id, 0u);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST_F(TraceRingTest, LateSpansAfterCommitAreDropped) {
  TraceRing::Global().SetSampleRate(1.0);
  const uint64_t trace_id = CommitSimpleTrace();
  TraceRing::Span late;
  late.name = "test/late";
  late.trace_id = trace_id;
  late.span_id = TraceRing::NextSpanId();
  late.parent_span_id = 7;
  TraceRing::Global().RecordSpan(late);
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].spans.size(), 3u);  // late span did not join
}

TEST_F(TraceRingTest, CapacityEvictsOldestTrace) {
  TraceRing::Global().SetSampleRate(1.0);
  TraceRing::Global().SetCapacity(2);
  const uint64_t first = CommitSimpleTrace();
  CommitSimpleTrace();
  CommitSimpleTrace();
  EXPECT_EQ(TraceRing::Global().committed_count(), 3u);
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 2u);
  for (const auto& t : traces) EXPECT_NE(t.trace_id, first);
  EXPECT_EQ(TraceRing::Global().TreeJson(first), "");
}

TEST_F(TraceRingTest, RecordManualSpanRequiresRealParent) {
  TraceRing::Global().SetSampleRate(1.0);
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  // Invalid parent and root-level (span_id 0) parents are both no-ops:
  // a manual span with parent 0 would commit the trace as a bogus root.
  EXPECT_EQ(RecordManualSpan("test/bad", TraceContext{}, 0, 10), 0u);
  EXPECT_EQ(RecordManualSpan("test/bad", ctx, 0, 10), 0u);
  EXPECT_EQ(TraceRing::Global().committed_count(), 0u);
}

TEST_F(TraceRingTest, ManualSpanWithPreallocatedIdParentsLaterChildren) {
  // The batcher pattern: pre-allocate the forward span's id, run nested
  // work under it, record the forward span itself afterwards.
  TraceRing::Global().SetSampleRate(1.0);
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  const uint64_t forward_id = TraceRing::NextSpanId();
  ScopedTraceContext install(ctx);
  {
    TraceSpan root("test/root");
    {
      ScopedTraceContext forward_guard(
          TraceContext{ctx.trace_id, forward_id});
      { SGCL_TRACE_SPAN("test/infer"); }
    }
    EXPECT_EQ(RecordManualSpan("test/forward", root.context(), 10, 40,
                               forward_id),
              forward_id);
  }
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  bool saw_infer = false;
  for (const auto& s : traces[0].spans) {
    if (s.name == "test/infer") {
      saw_infer = true;
      EXPECT_EQ(s.parent_span_id, forward_id);
    }
    if (s.name == "test/forward") {
      EXPECT_EQ(s.span_id, forward_id);
    }
  }
  EXPECT_TRUE(saw_infer);
}

TEST_F(TraceRingTest, ListJsonFiltersAndLimits) {
  TraceRing::Global().SetSampleRate(1.0);
  CommitSimpleTrace();
  CommitSimpleTrace();
  const std::string all =
      TraceRing::Global().ListJson(/*min_duration_us=*/0, /*limit=*/0,
                                   /*include_spans=*/false);
  EXPECT_NE(all.find("\"committed\":2"), std::string::npos);
  EXPECT_NE(all.find("\"trace_id\":\""), std::string::npos);
  EXPECT_EQ(all.find("\"spans\":["), std::string::npos);
  const std::string limited =
      TraceRing::Global().ListJson(0, /*limit=*/1, /*include_spans=*/true);
  EXPECT_NE(limited.find("\"spans\":["), std::string::npos);
  // A min-duration filter far past any test span excludes everything.
  const std::string none = TraceRing::Global().ListJson(
      /*min_duration_us=*/1000000000, 0, false);
  EXPECT_NE(none.find("\"traces\":[]"), std::string::npos);
}

TEST_F(TraceRingTest, TraceIdFormatParseRoundTrip) {
  EXPECT_EQ(FormatTraceId(0xdeadbeefu), "00000000deadbeef");
  EXPECT_EQ(ParseTraceId("00000000deadbeef"), 0xdeadbeefu);
  EXPECT_EQ(ParseTraceId("0xdeadbeef"), 0xdeadbeefu);
  EXPECT_EQ(ParseTraceId(""), 0u);
  EXPECT_EQ(ParseTraceId("not-hex"), 0u);
  EXPECT_EQ(ParseTraceId("12zz"), 0u);
  EXPECT_EQ(ParseTraceId("-5"), 0u);
}

TEST_F(TraceRingTest, ConcurrentPoolWorkersJoinTheSchedulersTrace) {
  // TSan-covered (the CI sanitizer job runs *Concurrent* tests): a
  // sampled "request" fans work out to the pool; every worker installs
  // the captured context, so its spans land in the same trace.
  TraceRing::Global().SetSampleRate(1.0);
  const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  {
    ScopedTraceContext install(ctx);
    TraceSpan root("test/root");
    const TraceContext under_root = CurrentTraceContext();
    ParallelFor(0, 32, /*grain=*/2, [&](int64_t lo, int64_t hi) {
      (void)lo;
      (void)hi;
      ScopedTraceContext worker_install(under_root);
      SGCL_TRACE_SPAN("test/pool_chunk");
    });
  }
  const auto traces = TraceRing::Global().Traces();
  ASSERT_EQ(traces.size(), 1u);
  uint64_t root_span_id = 0;
  for (const auto& s : traces[0].spans) {
    if (s.parent_span_id == 0) root_span_id = s.span_id;
  }
  ASSERT_NE(root_span_id, 0u);
  // One span per chunk; the partition size varies with the pool, but
  // every chunk span must hang off the root (32 items / grain 2 caps
  // the chunk count at 16).
  int chunks = 0;
  for (const auto& s : traces[0].spans) {
    EXPECT_EQ(s.trace_id, ctx.trace_id);
    if (s.name == "test/pool_chunk") {
      ++chunks;
      EXPECT_EQ(s.parent_span_id, root_span_id);
    }
  }
  EXPECT_GE(chunks, 1);
  EXPECT_LE(chunks, 16);
}

TEST_F(TraceRingTest, ConcurrentCommitsStayBoundedAndWellFormed) {
  // TSan-covered: many threads open, populate, and commit traces
  // against a tiny ring while readers list/serialize concurrently.
  TraceRing::Global().SetSampleRate(1.0);
  TraceRing::Global().SetCapacity(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 25; ++i) {
        const TraceContext ctx = TraceRing::Global().MaybeStartTrace();
        if (!ctx.valid()) continue;
        ScopedTraceContext install(ctx);
        TraceSpan root("test/root");
        { SGCL_TRACE_SPAN("test/child"); }
      }
    });
  }
  threads.emplace_back([] {
    for (int i = 0; i < 50; ++i) {
      (void)TraceRing::Global().ListJson(0, 0, true);
      (void)TraceRing::Global().Traces();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(TraceRing::Global().committed_count(), 100u);
  EXPECT_LE(TraceRing::Global().Traces().size(), 4u);
  for (const auto& trace : TraceRing::Global().Traces()) {
    EXPECT_EQ(trace.root_name, "test/root");
    EXPECT_EQ(trace.spans.size(), 2u);
  }
}

}  // namespace
}  // namespace sgcl
