// stream_bench: throughput and memory comparison between in-memory and
// sharded-streaming pretraining (ISSUE acceptance: streaming reaches
// >= 80% of in-memory graphs/sec with bounded peak RSS).
//
//   stream_bench [--graphs=512] [--epochs=2] [--batch=32] [--hidden=16]
//                [--shard-graphs=64] [--prefetch-depth=2] [--seed=0]
//                [--store-dir=<tmp>] [--out-json=BENCH_stream.json]
//                [--compare=BENCH_stream.json] [--threshold-pct=25]
//
// Three phases, one process:
//   1. stream-write: shard_writer path (sampler -> store on disk);
//   2. in-memory pretrain over the equivalent GraphDataset;
//   3. streaming pretrain over the ShardedGraphStore via the prefetcher.
// Emits google-benchmark JSON (bench_diff-compatible): per-phase wall
// micros only, because bench_diff reads every row as a time. Graphs/sec,
// the streaming/in-memory ratio and the decode/stall counters that
// explain any gap go to stdout. RSS is sampled after each phase
// (ru_maxrss is monotone, so phase order puts the streaming claim on
// the conservative side: its reported peak includes everything before
// it).
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_compare.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/sgcl_trainer.h"
#include "data/prefetcher.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"

namespace sgcl {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int64_t PeakRssKb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss);  // KiB on Linux
}

int64_t CounterValue(const char* name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

Status WriteBenchJson(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& entries_us,
    const std::string& context_fields) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot write " + path);
  out << "{\"context\":{\"library\":\"stream_bench\"," << context_fields
      << "},\"benchmarks\":[";
  for (size_t i = 0; i < entries_us.size(); ++i) {
    if (i > 0) out << ',';
    const std::string& name = entries_us[i].first;
    out << "{\"name\":\"" << JsonEscape(name) << "\",\"run_name\":\""
        << JsonEscape(name) << "\",\"run_type\":\"iteration\","
        << "\"iterations\":1,\"real_time\":" << JsonDouble(entries_us[i].second)
        << ",\"cpu_time\":" << JsonDouble(entries_us[i].second)
        << ",\"time_unit\":\"us\"}";
  }
  out << "]}\n";
  out.flush();
  if (!out) return Status::Internal("write failed for " + path);
  return Status::OK();
}

int Run(int argc, char** argv) {
  int64_t graphs = 512;
  int epochs = 2;
  int64_t batch = 32;
  int64_t hidden = 16;
  int64_t shard_graphs = 64;
  int prefetch_depth = 2;
  uint64_t seed = 0;
  std::string store_dir;
  std::string out_json;
  std::string compare;
  double threshold_pct = 25.0;
  FlagSet flags("stream_bench");
  flags.Int64("graphs", &graphs, "molecules in the benchmark corpus");
  flags.Int("epochs", &epochs, "pretraining epochs per variant");
  flags.Int64("batch", &batch, "minibatch size");
  flags.Int64("hidden", &hidden, "encoder hidden width");
  flags.Int64("shard-graphs", &shard_graphs, "graphs per shard file");
  flags.Int("prefetch-depth", &prefetch_depth,
            "batches in flight for the streaming variant");
  flags.Uint64("seed", &seed, "corpus + trainer seed");
  flags.String("store-dir", &store_dir,
               "shard store directory (default: temp, removed on exit)");
  flags.String("out-json", &out_json,
               "write results as google-benchmark JSON");
  flags.String("compare", &compare,
               "baseline google-benchmark JSON to diff against "
               "(report-only; use bench_diff for gating)");
  flags.Double("threshold-pct", &threshold_pct,
               "report --compare slowdowns past this percentage");
  const Status st = flags.Parse(argc, argv, 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (graphs < 4 || epochs < 1 || batch < 2 || shard_graphs < 1) {
    std::fprintf(stderr, "error: implausible bench configuration\n");
    return 2;
  }

  const bool temp_store = store_dir.empty();
  if (temp_store) {
    store_dir = (std::filesystem::temp_directory_path() /
                 ("sgcl_stream_bench_" + std::to_string(::getpid())))
                    .string();
  }

  SgclConfig cfg = MakeUnsupervisedConfig(kMoleculeFeatDim);
  cfg.encoder.hidden_dim = static_cast<int>(hidden);
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = static_cast<int>(hidden);
  cfg.batch_size = batch;
  cfg.epochs = epochs;

  std::vector<std::pair<std::string, double>> entries;

  // Phase 1: stream-write the store (the shard_writer path).
  Stopwatch write_watch;
  {
    ShardWriterOptions options;
    options.graphs_per_shard = shard_graphs;
    auto writer = ShardedGraphStoreWriter::Create(store_dir, options);
    if (!writer.ok()) return Fail(writer.status());
    Rng rng(seed ^ 0x5a5a5a5aULL);
    MoleculeSampler sampler;
    for (int64_t i = 0; i < graphs; ++i) {
      const Status append = (*writer)->Append(sampler.Sample(&rng).graph);
      if (!append.ok()) return Fail(append);
    }
    const Status fin = (*writer)->Finalize();
    if (!fin.ok()) return Fail(fin);
  }
  const double write_s = write_watch.ElapsedSeconds();
  entries.emplace_back("stream/shard_write", write_s * 1e6);

  // Phase 2: in-memory baseline (identical corpus by construction).
  const int64_t rss_before_mem_kb = PeakRssKb();
  GraphDataset dataset =
      MakeZincLikeDataset(static_cast<int>(graphs), seed);
  double mem_s = 0.0;
  std::vector<float> mem_losses;
  {
    SgclTrainer trainer(cfg, seed);
    Stopwatch watch;
    auto stats = trainer.Pretrain(dataset);
    if (!stats.ok()) return Fail(stats.status());
    mem_s = watch.ElapsedSeconds();
    mem_losses = stats->epoch_losses;
  }
  const double mem_gps =
      static_cast<double>(graphs) * epochs / mem_s;
  entries.emplace_back("stream/pretrain_mem", mem_s * 1e6);
  const int64_t rss_after_mem_kb = PeakRssKb();

  // Phase 3: streaming over the sharded store through the prefetcher.
  const int64_t stalls_before = CounterValue("prefetch/consumer_stalls");
  double disk_s = 0.0;
  std::vector<float> disk_losses;
  int64_t num_shards = 0;
  int64_t shard_decodes = 0;
  {
    auto store = ShardedGraphStore::Open(store_dir);
    if (!store.ok()) return Fail(store.status());
    num_shards = (*store)->num_shards();
    SgclTrainer trainer(cfg, seed);
    PretrainOptions options;
    options.prefetch_depth = prefetch_depth;
    Stopwatch watch;
    auto stats = trainer.Pretrain(**store, {}, options);
    if (!stats.ok()) return Fail(stats.status());
    disk_s = watch.ElapsedSeconds();
    disk_losses = stats->epoch_losses;
    shard_decodes = (*store)->shard_decodes();
  }
  const double disk_gps =
      static_cast<double>(graphs) * epochs / disk_s;
  entries.emplace_back("stream/pretrain_sharded", disk_s * 1e6);
  const int64_t rss_after_disk_kb = PeakRssKb();

  // Single-shard stores train bitwise-identically to in-memory; with
  // multiple shards the block-aware shuffle changes batch composition,
  // so only report parity when it is expected to hold.
  if (num_shards == 1 && mem_losses != disk_losses) {
    std::fprintf(stderr,
                 "error: single-shard streaming losses diverged from "
                 "in-memory losses\n");
    return 1;
  }

  const double ratio = disk_gps / mem_gps;
  std::printf("corpus: %lld graphs, %lld shards (%lld graphs/shard)\n",
              static_cast<long long>(graphs),
              static_cast<long long>(num_shards),
              static_cast<long long>(shard_graphs));
  std::printf("shard write:        %7.2fs (%.0f graphs/s)\n", write_s,
              static_cast<double>(graphs) / write_s);
  std::printf("pretrain in-memory: %7.2fs (%.0f graphs/s)\n", mem_s,
              mem_gps);
  std::printf("pretrain sharded:   %7.2fs (%.0f graphs/s, %.1f%% of "
              "in-memory)\n",
              disk_s, disk_gps, 100.0 * ratio);
  std::printf("shard decodes: %lld, consumer stalls: %lld\n",
              static_cast<long long>(shard_decodes),
              static_cast<long long>(
                  CounterValue("prefetch/consumer_stalls") - stalls_before));
  std::printf("peak RSS: %lld KiB before, %lld KiB after in-memory, "
              "%lld KiB after streaming\n",
              static_cast<long long>(rss_before_mem_kb),
              static_cast<long long>(rss_after_mem_kb),
              static_cast<long long>(rss_after_disk_kb));

  if (temp_store) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }

  if (!out_json.empty()) {
    std::string context = "\"graphs\":" + std::to_string(graphs) +
                          ",\"epochs\":" + std::to_string(epochs) +
                          ",\"shard_graphs\":" +
                          std::to_string(shard_graphs) +
                          ",\"prefetch_depth\":" +
                          std::to_string(prefetch_depth);
    const Status written = WriteBenchJson(out_json, entries, context);
    if (!written.ok()) return Fail(written);
    std::printf("wrote %s\n", out_json.c_str());
  }
  if (!compare.empty()) {
    auto baseline = LoadBenchmarkJson(compare);
    if (!baseline.ok()) return Fail(baseline.status());
    std::vector<BenchEntry> current;
    for (const auto& [name, value_us] : entries) {
      BenchEntry e;
      e.name = name;
      e.run_name = name;
      e.real_ns = value_us * 1e3;
      e.cpu_ns = e.real_ns;
      current.push_back(std::move(e));
    }
    const BenchComparison cmp = CompareBenchmarks(*baseline, current);
    std::printf("\ncomparison vs %s:\n%s", compare.c_str(),
                FormatComparison(cmp, threshold_pct).c_str());
    const int regressions = CountRegressions(cmp, threshold_pct);
    if (regressions > 0) {
      std::printf("%d metric(s) regressed past %.1f%% (report-only)\n",
                  regressions, threshold_pct);
    }
  }
  return 0;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
