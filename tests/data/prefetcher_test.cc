#include "data/prefetcher.h"

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

namespace fs = std::filesystem;

std::string MakeStore(const char* name, int num_graphs,
                      int64_t graphs_per_shard) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  GraphDataset ds = MakeZincLikeDataset(num_graphs, /*seed=*/21);
  ShardWriterOptions opt;
  opt.graphs_per_shard = graphs_per_shard;
  auto writer = ShardedGraphStoreWriter::Create(dir, opt);
  EXPECT_TRUE(writer.ok());
  for (int64_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE((*writer)->Append(ds.graph(i)).ok());
  }
  EXPECT_TRUE((*writer)->Finalize().ok());
  return dir;
}

std::vector<std::vector<int64_t>> MakeBatches(int64_t total,
                                              int64_t batch_size) {
  std::vector<std::vector<int64_t>> batches;
  for (int64_t start = 0; start < total; start += batch_size) {
    std::vector<int64_t> b;
    for (int64_t i = start; i < std::min(total, start + batch_size); ++i) {
      b.push_back(i);
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

// The async pipeline must hand out exactly what synchronous fetching
// would, batch for batch and graph for graph.
TEST(PrefetcherTest, AsyncMatchesSynchronous) {
  const std::string dir = MakeStore("prefetch_match", 20, 4);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());

  PrefetcherOptions sync_opt;
  sync_opt.depth = 0;
  PrefetcherOptions async_opt;
  async_opt.depth = 3;
  BatchPrefetcher sync_pf(store->get(), sync_opt);
  BatchPrefetcher async_pf(store->get(), async_opt);
  sync_pf.BeginEpoch(MakeBatches(20, 6));
  async_pf.BeginEpoch(MakeBatches(20, 6));

  while (sync_pf.remaining() > 0) {
    ASSERT_GT(async_pf.remaining(), 0);
    const FetchedGraphs a = sync_pf.Next().value();
    const FetchedGraphs b = async_pf.Next().value();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.graph(i).num_nodes(), b.graph(i).num_nodes());
      EXPECT_EQ(a.graph(i).features(), b.graph(i).features());
      EXPECT_EQ(a.graph(i).edge_src(), b.graph(i).edge_src());
    }
  }
  EXPECT_EQ(async_pf.remaining(), 0);
  fs::remove_all(dir);
}

TEST(PrefetcherTest, PropagatesFetchErrors) {
  const std::string dir = MakeStore("prefetch_err", 8, 4);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  BatchPrefetcher pf(store->get(), {});
  pf.BeginEpoch({{0, 1}, {5, 99}, {2, 3}});
  EXPECT_TRUE(pf.Next().ok());
  EXPECT_EQ(pf.Next().status().code(), StatusCode::kOutOfRange);
  // The pipeline survives a failed batch: later batches still arrive.
  EXPECT_TRUE(pf.Next().ok());
  EXPECT_EQ(pf.remaining(), 0);
  fs::remove_all(dir);
}

TEST(PrefetcherTest, ReusableAcrossEpochs) {
  const std::string dir = MakeStore("prefetch_epochs", 10, 5);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  BatchPrefetcher pf(store->get(), {});
  for (int epoch = 0; epoch < 3; ++epoch) {
    pf.BeginEpoch(MakeBatches(10, 4));
    int64_t graphs = 0;
    while (pf.remaining() > 0) {
      graphs += static_cast<int64_t>(pf.Next().value().size());
    }
    EXPECT_EQ(graphs, 10);
  }
  fs::remove_all(dir);
}

// Delegating source whose Fetch sleeps first: makes consumer stalls
// deterministic (the consumer always outruns a 5 ms fetch).
class SlowSource : public GraphSource {
 public:
  SlowSource(const GraphSource* inner, int sleep_ms)
      : inner_(inner), sleep_ms_(sleep_ms) {}
  const std::string& name() const override { return inner_->name(); }
  int num_classes() const override { return inner_->num_classes(); }
  int num_tasks() const override { return inner_->num_tasks(); }
  int64_t size() const override { return inner_->size(); }
  Result<int64_t> FeatDim() const override { return inner_->FeatDim(); }
  uint64_t ContentFingerprint() const override {
    return inner_->ContentFingerprint();
  }
  Status Fetch(std::span<const int64_t> indices,
               FetchedGraphs* out) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    return inner_->Fetch(indices, out);
  }

 private:
  const GraphSource* inner_;
  int sleep_ms_;
};

TEST(PrefetcherTest, StallAndQueueDepthMetricsSurface) {
  const std::string dir = MakeStore("prefetch_metrics", 8, 4);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  SlowSource slow(store->get(), /*sleep_ms=*/5);

  // Process-wide metrics: measure deltas.
  Counter* stalls =
      MetricsRegistry::Global().GetCounter("prefetch/consumer_stalls");
  const int64_t stalls0 = stalls->value();
  const int64_t hist0 = [] {
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    const auto it = snap.histograms.find("prefetch/stall_us");
    return it == snap.histograms.end() ? int64_t{0} : it->second.count;
  }();

  PrefetcherOptions opt;
  opt.depth = 1;
  BatchPrefetcher pf(&slow, opt);
  pf.BeginEpoch(MakeBatches(8, 4));
  // Next() immediately after BeginEpoch must wait out the 5 ms fetch —
  // that wait is the stall the metrics attribute.
  while (pf.remaining() > 0) ASSERT_TRUE(pf.Next().ok());

  EXPECT_GE(stalls->value() - stalls0, 1);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto hist = snap.histograms.find("prefetch/stall_us");
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_GE(hist->second.count - hist0, 1);
  // The pipeline is drained, so the depth gauge must read zero again.
  const auto gauge = snap.gauges.find("prefetch/queue_depth");
  ASSERT_NE(gauge, snap.gauges.end());
  EXPECT_EQ(gauge->second, 0.0);
  fs::remove_all(dir);
}

TEST(PrefetcherTest, FetchSpansJoinTheSchedulersTrace) {
  const std::string dir = MakeStore("prefetch_trace", 8, 4);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  SlowSource slow(store->get(), /*sleep_ms=*/2);

  TraceCollector::Global().SetSampleRate(1.0);
  TraceCollector::Global().SetTraceCapacity(8);
  TraceCollector::Global().Clear();
  const TraceContext ctx = TraceCollector::Global().MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  {
    ScopedTraceContext install(ctx);
    TraceSpan root("test/epoch");
    PrefetcherOptions opt;
    opt.depth = 1;
    BatchPrefetcher pf(&slow, opt);
    pf.BeginEpoch(MakeBatches(8, 4));
    while (pf.remaining() > 0) ASSERT_TRUE(pf.Next().ok());
  }  // root closes -> trace commits

  // The pool-thread fetches crossed the thread boundary into the
  // scheduler's trace, and the consumer's wait shows up as a stall span.
  const std::string tree = TraceCollector::Global().TreeJson(ctx.trace_id);
  ASSERT_FALSE(tree.empty());
  EXPECT_NE(tree.find("stream/prefetch_fetch"), std::string::npos) << tree;
  EXPECT_NE(tree.find("stream/consumer_stall"), std::string::npos) << tree;

  TraceCollector::Global().SetSampleRate(0.0);
  TraceCollector::Global().Clear();
  fs::remove_all(dir);
}

TEST(PrefetcherTest, BeginEpochWithNoBatchesIsEmpty) {
  const std::string dir = MakeStore("prefetch_empty", 4, 4);
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok());
  BatchPrefetcher pf(store->get(), {});
  pf.BeginEpoch({});
  EXPECT_EQ(pf.remaining(), 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sgcl
