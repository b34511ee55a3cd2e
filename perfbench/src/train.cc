// Training workloads: train_mol (in-memory, one worker) and
// train_stream_w2 (sharded store, two data-parallel ranks over loopback).
//
// A run repeats "set up, warm up, train" at least kMinReps times and
// until the timed epochs add up to the requested seconds:
//   set-up  = corpus generation (+ shard write) + model init + the
//             warm-up epoch (epoch 0), reported as setup_s (median);
//   timed   = epochs 1..kTimedEpochs, reported as graphs_per_s and step
//             latency (epoch time / optimizer steps), medians over epochs.
// The traced run halves the untraced part and adds one traced
// repetition, whose per-layer figures come from the probes (probe.h)
// and the counters the library already exports.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.h"
#include "comms/allreduce.h"
#include "common/io.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "graph/graph_source.h"
#include "probe.h"

namespace perfbench {
namespace {

using sgcl::GraphSource;
using sgcl::SgclConfig;
using sgcl::Status;

constexpr int kCorpusGraphs = 512;  // 16 batches per epoch
constexpr int kBatch = 32;
constexpr int64_t kBatchesPerEpoch = kCorpusGraphs / kBatch;
constexpr int kHidden = 64;
constexpr int kLayers = 3;
constexpr int kTimedEpochs = 3;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 24;
constexpr int kWorld = 2;
constexpr int kGradAccum = 2;             // one batch per rank per round
constexpr int64_t kGraphsPerShard = 64;   // 8 shards; the LRU holds 2
// The fixed reference problem (independent of --seed).
constexpr int kRefGraphs = 64;
constexpr uint64_t kRefSeed = 20240101;
constexpr int kRefEpochs = 2;
// Relative loss drift accepted when the arithmetic changed on purpose.
constexpr double kRefTolerance = 1e-3;

SgclConfig TrainConfig(int epochs) {
  SgclConfig cfg = sgcl::MakeUnsupervisedConfig(sgcl::kMoleculeFeatDim);
  cfg.encoder.hidden_dim = kHidden;
  cfg.encoder.num_layers = kLayers;
  cfg.proj_dim = kHidden;
  cfg.batch_size = kBatch;
  cfg.epochs = epochs;
  return cfg;
}

// GraphSource decorator that times every Fetch (traced runs only).
class TimedSource : public GraphSource {
 public:
  explicit TimedSource(const GraphSource* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  int num_classes() const override { return inner_->num_classes(); }
  int num_tasks() const override { return inner_->num_tasks(); }
  int64_t size() const override { return inner_->size(); }
  [[nodiscard]] sgcl::Result<int64_t> FeatDim() const override {
    return inner_->FeatDim();
  }
  [[nodiscard]] Status Fetch(std::span<const int64_t> indices,
                             sgcl::FetchedGraphs* out) const override {
    Span span(ProbeSpanName(kFetch));
    const int64_t t0 = NowNs();
    Status st = inner_->Fetch(indices, out);
    const int64_t ns = NowNs() - t0;
    if (Tracing()) {
      AddToTotals(kFetch, ns);
      std::lock_guard<std::mutex> lock(mu_);
      fetch_us_.push_back(static_cast<double>(ns) / 1e3);
    }
    return st;
  }
  uint64_t ContentFingerprint() const override {
    return inner_->ContentFingerprint();
  }
  std::vector<sgcl::IndexRange> FetchBlocks() const override {
    return inner_->FetchBlocks();
  }

  std::vector<double> fetch_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fetch_us_;
  }

 private:
  const GraphSource* inner_;
  mutable std::mutex mu_;
  mutable std::vector<double> fetch_us_ SGCL_GUARDED_BY(mu_);
};

struct RepResult {
  double setup_s = 0.0;
  std::vector<double> timed_epoch_s;
  int64_t timed_batches = 0;  // global batches in the timed epochs
  bool full_epochs = true;    // every timed epoch ran the whole schedule
  std::vector<float> losses;  // rank 0, every epoch
  std::vector<double> step_ms;  // per timed epoch
  double timed_wall_s = 0.0;
  std::vector<double> fetch_us;
};

// Per-rank epoch hook: marks the end of the warm-up epoch. On rank 0 it
// also starts the traced window and records per-epoch times.
struct EpochHook {
  bool traced = false;
  int batches_per_step = 1;  // global batches per optimizer step
  int64_t rep_start_ns = 0;
  int64_t warm_end_ns = 0;
  RepResult* rep = nullptr;

  sgcl::PretrainOptions Options(int rank) {
    sgcl::PretrainOptions options;
    options.on_epoch_end = [this, rank](const sgcl::EpochReport& report) {
      if (report.epoch == 0) {
        if (rank != 0) return;
        warm_end_ns = NowNs();
        rep->setup_s = static_cast<double>(warm_end_ns - rep_start_ns) / 1e9;
        if (traced) {
          sgcl::MetricsRegistry::Global().Reset();
          ResetTotals();
          SetTracing(true);
        }
        return;
      }
      if (rank != 0) return;
      rep->timed_epoch_s.push_back(report.seconds);
      rep->timed_batches += report.batches;
      const int64_t steps = report.batches / batches_per_step;
      rep->full_epochs = rep->full_epochs && report.batches == kBatchesPerEpoch;
      rep->step_ms.push_back(steps > 0 ? report.seconds * 1e3 / steps : 0.0);
    };
    return options;
  }
};

sgcl::Result<RepResult> RunMolRep(uint64_t seed, int timed_epochs,
                                  bool traced) {
  RepResult rep;
  EpochHook hook;
  hook.traced = traced;
  hook.rep = &rep;
  hook.rep_start_ns = NowNs();
  const sgcl::GraphDataset dataset =
      sgcl::MakeZincLikeDataset(kCorpusGraphs, seed);
  const sgcl::InMemorySource memory(&dataset);
  TimedSource timed(&memory);
  const GraphSource& source =
      traced ? static_cast<const GraphSource&>(timed) : memory;
  sgcl::SgclTrainer trainer(TrainConfig(1 + timed_epochs), seed);
  auto stats = trainer.Pretrain(source, {}, hook.Options(0));
  SetTracing(false);
  if (!stats.ok()) return stats.status();
  rep.timed_wall_s = static_cast<double>(NowNs() - hook.warm_end_ns) / 1e9;
  rep.losses = stats->epoch_losses;
  if (traced) rep.fetch_us = timed.fetch_us();
  return rep;
}

Status WriteShards(const sgcl::GraphDataset& dataset, const std::string& dir) {
  sgcl::ShardWriterOptions options;
  options.graphs_per_shard = kGraphsPerShard;
  SGCL_ASSIGN_OR_RETURN(auto writer,
                        sgcl::ShardedGraphStoreWriter::Create(dir, options));
  for (int64_t i = 0; i < dataset.size(); ++i) {
    SGCL_RETURN_NOT_OK(writer->Append(dataset.graph(i)));
  }
  return writer->Finalize();
}

struct ClusterResult {
  std::vector<float> losses;
};

// One data-parallel cluster in this process: the coordinator plus one
// thread per rank, each running PretrainDistributed over loopback TCP.
sgcl::Result<ClusterResult> RunCluster(const SgclConfig& cfg, uint64_t seed,
                                       int world, const GraphSource& source,
                                       EpochHook* hook) {
  sgcl::SgclTrainer probe(cfg, seed);
  sgcl::AllReduceCoordinatorOptions copt;
  copt.schedule.world_size = static_cast<uint32_t>(world);
  copt.schedule.accum = static_cast<uint32_t>(kGradAccum);
  copt.schedule.epochs = static_cast<uint32_t>(cfg.epochs);
  copt.schedule.grad_dim =
      static_cast<uint64_t>(probe.model().NumParameters());
  copt.schedule.batches_per_epoch = static_cast<uint64_t>(
      sgcl::PretrainBatchesPerEpoch(source.size(), cfg.batch_size));
  copt.schedule.config_fingerprint = sgcl::ConfigFingerprint(cfg);
  copt.schedule.source_fingerprint = source.ContentFingerprint();
  copt.schedule.run_seed = seed;
  copt.cache_rounds = static_cast<int>(copt.schedule.total_rounds()) + 1;
  sgcl::AllReduceCoordinator coordinator(copt);
  SGCL_RETURN_NOT_OK(coordinator.Start(0));

  std::vector<Status> statuses(world, Status::OK());
  ClusterResult result;
  std::vector<std::vector<float>> losses(world);
  {
    std::vector<std::thread> ranks;
    for (int rank = 0; rank < world; ++rank) {
      ranks.emplace_back([&, rank] {
        sgcl::SgclTrainer trainer(cfg, seed);
        sgcl::DistributedPretrainOptions dist;
        dist.rank = rank;
        dist.world_size = world;
        dist.grad_accum = kGradAccum;
        dist.coordinator_port = coordinator.port();
        const sgcl::PretrainOptions options =
            hook != nullptr ? hook->Options(rank) : sgcl::PretrainOptions();
        auto stats = trainer.PretrainDistributed(source, {}, options, dist);
        if (!stats.ok()) {
          statuses[rank] = stats.status();
          return;
        }
        losses[rank] = stats->epoch_losses;
      });
    }
    for (std::thread& t : ranks) t.join();
  }
  const bool goodbyes = coordinator.WaitForGoodbyes(world, 10000);
  coordinator.Stop();
  for (int rank = 0; rank < world; ++rank) {
    SGCL_RETURN_NOT_OK(statuses[rank]);
    if (losses[rank] != losses[0]) {
      return Status::Internal("rank " + std::to_string(rank) +
                              " losses differ from rank 0");
    }
  }
  if (!goodbyes) return Status::Unavailable("ranks never said goodbye");
  result.losses = losses[0];
  return result;
}

struct StreamRep {
  RepResult rep;
  std::unique_ptr<sgcl::ShardedGraphStore> store;
};

sgcl::Result<StreamRep> RunStreamRep(uint64_t seed, int timed_epochs,
                                     bool traced, const std::string& dir) {
  StreamRep out;
  RepResult& rep = out.rep;
  EpochHook hook;
  hook.traced = traced;
  hook.batches_per_step = kGradAccum;
  hook.rep = &rep;
  hook.rep_start_ns = NowNs();
  {
    const sgcl::GraphDataset dataset =
        sgcl::MakeZincLikeDataset(kCorpusGraphs, seed);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    SGCL_RETURN_NOT_OK(WriteShards(dataset, dir));
  }
  SGCL_ASSIGN_OR_RETURN(out.store, sgcl::ShardedGraphStore::Open(dir));
  TimedSource timed(out.store.get());
  const GraphSource& source =
      traced ? static_cast<const GraphSource&>(timed) : *out.store;
  SGCL_ASSIGN_OR_RETURN(
      ClusterResult cluster,
      RunCluster(TrainConfig(1 + timed_epochs), seed, kWorld, source, &hook));
  SetTracing(false);
  rep.timed_wall_s = static_cast<double>(NowNs() - hook.warm_end_ns) / 1e9;
  rep.losses = cluster.losses;
  if (traced) rep.fetch_us = timed.fetch_us();
  return out;
}

std::string LossesText(const std::vector<float>& losses) {
  std::string out;
  for (float v : losses) {
    if (!out.empty()) out += ' ';
    out += Fmt("%.9g", v);
  }
  return out;
}

bool AllFinite(const std::vector<float>& losses) {
  for (float v : losses) {
    if (!std::isfinite(v)) return false;
  }
  return !losses.empty();
}

std::vector<float> ReferenceLosses() {
  const sgcl::GraphDataset dataset =
      sgcl::MakeZincLikeDataset(kRefGraphs, kRefSeed);
  sgcl::SgclTrainer trainer(TrainConfig(kRefEpochs), kRefSeed);
  auto stats = trainer.Pretrain(sgcl::InMemorySource(&dataset));
  if (!stats.ok()) return {};
  return stats->epoch_losses;
}

// Compares the fixed reference problem's losses with the stored ones:
// bitwise while the arithmetic is unchanged, within kRefTolerance
// (relative) otherwise.
void CheckReference(const std::string& path, RunResult* result) {
  const std::vector<float> got = ReferenceLosses();
  auto doc = sgcl::ParseJsonFile(path);
  if (!doc.ok()) {
    result->AddCheck("train_reference", false,
                     "cannot read " + path + ": " + doc.status().ToString());
    return;
  }
  std::vector<float> want;
  if (const sgcl::JsonValue* arr = doc->Find("losses");
      arr != nullptr && arr->is_array()) {
    for (const sgcl::JsonValue& v : arr->AsArray()) {
      want.push_back(std::strtof(v.AsString().c_str(), nullptr));
    }
  }
  if (got.size() != want.size() || !AllFinite(got)) {
    result->AddCheck("train_reference", false,
                     "losses [" + LossesText(got) + "] vs reference [" +
                         LossesText(want) + "]");
    return;
  }
  bool bitwise = true;
  double worst = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) bitwise = false;
    worst = std::max(worst, std::fabs(static_cast<double>(got[i]) - want[i]) /
                                std::max(1e-12, std::fabs(double{want[i]})));
  }
  if (bitwise) {
    result->AddCheck("train_reference", true, "bitwise equal");
  } else {
    result->AddCheck("train_reference", worst <= kRefTolerance,
                     "not bitwise; worst relative drift " +
                         Fmt("%.3g", worst) + " (tolerance " +
                         Fmt("%.0e", kRefTolerance) + ")");
  }
}

// Shared bookkeeping over all repetitions of a training workload.
struct TrainTally {
  std::vector<double> setup_s;
  std::vector<double> epoch_gps;
  std::vector<double> step_ms;
  int64_t batches = 0;
  int64_t failed = 0;
  double timed_s = 0.0;
  std::vector<float> first_losses;
  bool repeatable = true;
  bool full_epochs = true;
  double first_rep_rss_mib = 0.0;
  std::vector<double> rss_mib;

  void Add(const RepResult& rep) {
    // Peak RSS of one job: later repetitions only add allocator
    // retention that depends on thread interleaving.
    if (setup_s.empty()) first_rep_rss_mib = PeakRssMib();
    rss_mib.push_back(PeakRssMib());
    setup_s.push_back(rep.setup_s);
    for (double s : rep.timed_epoch_s) {
      epoch_gps.push_back(kCorpusGraphs / s);
      timed_s += s;
    }
    step_ms.insert(step_ms.end(), rep.step_ms.begin(), rep.step_ms.end());
    batches += rep.timed_batches;
    full_epochs = full_epochs && rep.full_epochs;
    if (!AllFinite(rep.losses)) failed += rep.timed_batches;
    if (first_losses.empty()) {
      first_losses = rep.losses;
    } else if (rep.losses != first_losses) {
      repeatable = false;
    }
  }
  double gps() const { return Median(epoch_gps); }
};

// Fills the end-to-end metrics and the checks every training run shares.
void FinishEndToEnd(const TrainTally& tally, RunResult* result) {
  result->attempted = tally.batches;
  result->failed = tally.failed;
  result->metrics.Add("setup_s", Median(tally.setup_s), "s");
  result->metrics.Add("graphs_per_s", tally.gps(), "graphs/s");
  result->metrics.Add("latency_ms_p50", Median(tally.step_ms), "ms");
  result->metrics.Add("peak_rss_mib", tally.first_rep_rss_mib, "MiB");
  result->AddCheck("losses_finite", tally.failed == 0,
                   "epoch losses [" + LossesText(tally.first_losses) + "]");
  result->AddCheck("losses_repeatable", tally.repeatable,
                   "every repetition gives the same epoch losses");
  result->AddCheck("full_epochs", tally.full_epochs && tally.batches > 0,
                   "every timed epoch trained all " +
                       std::to_string(kBatchesPerEpoch) + " batches");
  result->notes.push_back(
      Fmt("%.0f", static_cast<double>(tally.setup_s.size())) +
      " repetitions, " + Fmt("%.0f", static_cast<double>(tally.epoch_gps.size())) +
      " timed epochs; peak RSS after each repetition [" +
      [&] {
        std::string text;
        for (double v : tally.rss_mib) text += Fmt(" %.1f", v);
        return text;
      }() + " ] MiB");
}

// Per-layer metrics of one traced repetition; `untraced_gps` comes from
// the untraced repetitions of the same run.
MetricSet TrainLayerMetrics(const RepResult& rep, int world,
                            double untraced_gps) {
  const ProbeTotals t = ReadTotals();
  const sgcl::MetricsSnapshot snap = sgcl::MetricsRegistry::Global().Snapshot();
  const double batches = std::max<double>(1.0, rep.timed_batches);
  auto per_batch_ms = [&](int64_t ns) { return ns / 1e6 / batches; };
  double traced_s = 0.0;
  for (double s : rep.timed_epoch_s) traced_s += s;
  const double traced_gps =
      kCorpusGraphs * static_cast<double>(rep.timed_epoch_s.size()) /
      std::max(1e-9, traced_s);
  const double optimizer_ms = CounterOr0(snap, "time/optimizer_us") / 1e3;
  const auto stall = snap.histograms.find("prefetch/stall_us");
  const double stall_ms =
      stall == snap.histograms.end() ? 0.0 : stall->second.sum / 1e3;
  const int64_t hits = CounterOr0(snap, "stream/shard_cache_hits");
  const int64_t misses = CounterOr0(snap, "stream/shard_cache_misses");
  const double rounds = static_cast<double>(CounterOr0(snap, "comms/rounds"));
  const double allreduce_ms = CounterOr0(snap, "comms/allreduce_us") / 1e3;
  const double comms_bytes = static_cast<double>(
      CounterOr0(snap, "comms/bytes_sent") +
      CounterOr0(snap, "comms/bytes_recv"));
  // Busy time summed over ranks: forward, backward and optimizer.
  const double busy_s =
      (t.ns[kForward] + t.ns[kBackward]) / 1e9 + optimizer_ms / 1e3;

  std::map<std::string, double> v;
  v["graph.batch_build_us"] = t.ns[kBatchBuild] / 1e3 / batches;
  v["core.generator_ms"] = per_batch_ms(t.ns[kGenerator]);
  v["core.generator_nodes_per_s"] =
      t.ns[kGenerator] > 0 ? t.generator_nodes / (t.ns[kGenerator] / 1e9)
                           : 0.0;
  v["core.forward_ms"] = per_batch_ms(t.ns[kForward]);
  v["core.forward_self_ms"] = per_batch_ms(t.ns[kForward] - t.ns[kGenerator]);
  v["core.loss_ms"] = CounterOr0(snap, "time/loss_us") / 1e3 / batches;
  v["nn.encode_nodes_ms"] = per_batch_ms(t.ns[kEncodeNodes]);
  v["nn.encode_calls_per_batch"] = t.calls[kEncodeNodes] / batches;
  v["tensor.backward_ms"] = per_batch_ms(t.ns[kBackward]);
  v["tensor.optimizer_ms"] = optimizer_ms / batches;
  v["tensor.matmul_gflop_per_batch"] =
      CounterOr0(snap, "tensor/matmul_flops") / 1e9 / batches;
  v["data.fetch_us_p50"] = Quantile(rep.fetch_us, 0.5);
  v["data.fetch_us_p99"] = Quantile(rep.fetch_us, 0.99);
  v["data.shard_decodes"] = static_cast<double>(misses);
  v["data.shard_cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
  v["data.shard_cache_lookups"] = static_cast<double>(hits + misses);
  v["data.prefetch_stall_ms"] = stall_ms / batches;
  v["comms.allreduce_wait_ms"] = rounds > 0 ? allreduce_ms / rounds : 0.0;
  v["comms.bytes_per_round"] = rounds > 0 ? comms_bytes / rounds : 0.0;
  v["comms.rounds"] = rounds;
  v["comms.rank_compute_share"] =
      busy_s / world / std::max(1e-9, rep.timed_wall_s);
  v["common.pool_queue_wait_us_p50"] =
      HistQuantile(snap, "parallel/queue_wait_us", 0.5);
  v["common.pool_queue_wait_us_p99"] =
      HistQuantile(snap, "parallel/queue_wait_us", 0.99);
  v["trace.overhead_pct"] = 100.0 * (untraced_gps / traced_gps - 1.0);
  // Blocking path, summed over ranks: forward + backward + optimizer +
  // prefetch stall + all-reduce wait, against `world` ranks' worth of
  // the traced epochs' wall time (the overhead of tracing is
  // trace.overhead_pct).
  const double blocking_ms = (t.ns[kForward] + t.ns[kBackward]) / 1e6 +
                             optimizer_ms + stall_ms + allreduce_ms;
  v["trace.blocking_coverage_pct"] =
      100.0 * blocking_ms / (world * traced_s * 1e3);
  return LayerMetricSet(v);
}

// Untraced repetitions until `budget_s` of timed epochs (>= kMinReps).
template <typename RepFn>
Status RunReps(double budget_s, TrainTally* tally, RepFn rep_fn) {
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && tally->timed_s >= budget_s) break;
    SGCL_ASSIGN_OR_RETURN(RepResult result, rep_fn());
    tally->Add(result);
  }
  return Status::OK();
}

int TracedEpochs(const TrainTally& tally, double budget_s) {
  const double epoch_s = tally.timed_s / std::max<size_t>(1, tally.epoch_gps.size());
  return std::max(kTimedEpochs,
                  static_cast<int>(std::ceil(budget_s / std::max(1e-3, epoch_s))));
}

void CheckTracedPrefix(const TrainTally& tally, const RepResult& traced,
                       RunResult* result) {
  const bool same =
      traced.losses.size() >= tally.first_losses.size() &&
      std::equal(tally.first_losses.begin(), tally.first_losses.end(),
                 traced.losses.begin());
  result->AddCheck("tracing_bitwise_neutral", same,
                   "traced epoch losses start with the untraced ones");
}

// Probes every traced training run must hit (the Fetch decorator wraps
// both sources).
constexpr std::initializer_list<Probe> kTrainProbes = {
    kBatchBuild, kGenerator, kForward, kEncodeNodes, kBackward, kFetch};

RunResult Failed(const Status& status) {
  RunResult result;
  result.AddCheck("run", false, status.ToString());
  return result;
}

}  // namespace

RunResult RunTrainMol(const RunOptions& options) {
  sgcl::SetParallelThreads(kPoolThreads);
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  TrainTally tally;
  Status st = RunReps(budget, &tally, [&] {
    return RunMolRep(options.seed, kTimedEpochs, /*traced=*/false);
  });
  if (!st.ok()) return Failed(st);
  RunResult result;
  FinishEndToEnd(tally, &result);
  if (options.trace) {
    auto traced = RunMolRep(options.seed, TracedEpochs(tally, budget),
                            /*traced=*/true);
    if (!traced.ok()) return Failed(traced.status());
    result.metrics = TrainLayerMetrics(*traced, 1, tally.gps());
    CheckLayerSources(kTrainProbes,
                      {"time/loss_us", "time/optimizer_us",
                       "tensor/matmul_flops", "parallel/queue_wait_us"},
                      sgcl::MetricsRegistry::Global().Snapshot(), &result);
    CheckTracedPrefix(tally, *traced, &result);
  }
  CheckReference(options.reference, &result);
  return result;
}

RunResult RunTrainStreamW2(const RunOptions& options) {
  sgcl::SetParallelThreads(kPoolThreads);
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::string dir = options.work_dir + "/shards";
  TrainTally tally;
  Status st = RunReps(budget, &tally, [&]() -> sgcl::Result<RepResult> {
    SGCL_ASSIGN_OR_RETURN(StreamRep rep, RunStreamRep(options.seed,
                                                      kTimedEpochs, false, dir));
    return std::move(rep.rep);
  });
  if (!st.ok()) return Failed(st);
  RunResult result;
  FinishEndToEnd(tally, &result);
  if (options.trace) {
    auto traced = RunStreamRep(options.seed, TracedEpochs(tally, budget),
                               /*traced=*/true, dir);
    if (!traced.ok()) return Failed(traced.status());
    result.metrics = TrainLayerMetrics(traced->rep, kWorld, tally.gps());
    CheckLayerSources(kTrainProbes,
                      {"time/loss_us", "time/optimizer_us",
                       "tensor/matmul_flops", "parallel/queue_wait_us",
                       "stream/shard_cache_misses", "comms/rounds",
                       "comms/allreduce_us", "comms/bytes_sent"},
                      sgcl::MetricsRegistry::Global().Snapshot(), &result);
    CheckTracedPrefix(tally, traced->rep, &result);
  }
  // Parity: one rank on the same schedule and store gives the same
  // losses bit for bit.
  {
    auto store = sgcl::ShardedGraphStore::Open(dir);
    if (!store.ok()) return Failed(store.status());
    auto single = RunCluster(TrainConfig(1 + kTimedEpochs), options.seed, 1,
                             **store, nullptr);
    if (!single.ok()) return Failed(single.status());
    result.AddCheck("w2_equals_w1", single->losses == tally.first_losses,
                    "W=1 losses [" + LossesText(single->losses) + "]");
  }
  CheckReference(options.reference, &result);
  return result;
}

int WriteTrainReference(const std::string& path) {
  const std::vector<float> losses = ReferenceLosses();
  std::string out = "{\"graphs\":" + std::to_string(kRefGraphs) +
                    ",\"seed\":" + std::to_string(kRefSeed) +
                    ",\"epochs\":" + std::to_string(kRefEpochs) +
                    ",\"losses\":[";
  for (size_t i = 0; i < losses.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += Fmt("%.9g", losses[i]);
    out += '"';
  }
  out += "]}\n";
  const Status st = sgcl::AtomicWriteFile(path, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return AllFinite(losses) ? 0 : 1;
}

}  // namespace perfbench
