#include "core/sgcl_trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "comms/allreduce.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/train_state.h"
#include "data/prefetcher.h"
#include "data/rank_assign.h"
#include "nn/checkpoint.h"

namespace sgcl {
namespace {

// Stage-duration counters follow the "time/<stage>_us" convention
// (see metrics.h); this extracts them as {stage: seconds}.
std::map<std::string, double> StageSeconds(const MetricsSnapshot& snap) {
  std::map<std::string, double> stages;
  const std::string prefix = "time/";
  const std::string suffix = "_us";
  for (const auto& [name, us] : snap.counters) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string stage = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    stages[stage] = static_cast<double>(us) * 1e-6;
  }
  return stages;
}

std::map<std::string, double> StageDelta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> delta;
  for (const auto& [stage, seconds] : after) {
    const auto it = before.find(stage);
    const double prev = it == before.end() ? 0.0 : it->second;
    if (seconds > prev) delta[stage] = seconds - prev;
  }
  return delta;
}

// The epoch's batch index lists: PretrainBatchesPerEpoch batches of
// consecutive `order` entries, the count the all-reduce schedule is built
// from. A trailing batch of one graph is skipped (contrastive losses need
// a negative) — every epoch, since the shuffle only reorders.
std::vector<std::vector<int64_t>> BuildEpochBatches(
    const std::vector<int64_t>& order, int batch_size,
    bool* logged_dropped_tail) {
  const size_t n = order.size();
  const size_t step = static_cast<size_t>(batch_size);
  std::vector<std::vector<int64_t>> batches(static_cast<size_t>(
      PretrainBatchesPerEpoch(static_cast<int64_t>(n), batch_size)));
  for (size_t b = 0; b < batches.size(); ++b) {
    batches[b].assign(order.begin() + b * step,
                      order.begin() + std::min(n, (b + 1) * step));
  }
  if (batches.size() * step < n && !*logged_dropped_tail) {
    SGCL_LOG(DEBUG) << "Pretrain: dropping trailing batch of size "
                    << (n - batches.size() * step) << " (dataset size " << n
                    << ", batch_size " << batch_size
                    << "); these graphs are skipped each epoch";
    *logged_dropped_tail = true;
  }
  return batches;
}

// splitmix64 finalizer (same constants as common/rng's seeding).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Concatenates every parameter's gradient in Parameters() order — the
// leaf layout the all-reduce sums and ApplyMeanGradients unpacks.
void FlattenGradients(const std::vector<Tensor>& params,
                      std::vector<float>* out) {
  out->clear();
  for (const Tensor& param : params) {
    const FloatBuffer& grad = param.grad_values();
    out->insert(out->end(), grad.begin(), grad.end());
  }
}

// Writes grad_sum / leaf_count into every parameter's gradient buffer.
// Every rank divides the same sums by the same count, so the update
// tape stays bitwise-identical across the cluster.
void ApplyMeanGradients(std::vector<Tensor>* params,
                        const std::vector<float>& grad_sum,
                        uint32_t leaf_count) {
  const float count = static_cast<float>(leaf_count);
  size_t offset = 0;
  for (Tensor& param : *params) {
    float* grad = param.grad();
    const size_t n = static_cast<size_t>(param.numel());
    for (size_t i = 0; i < n; ++i) grad[i] = grad_sum[offset + i] / count;
    offset += n;
  }
}

// The trainable parameters as a Module: the checkpoint's model section is
// SerializeModuleParams over them, in TrainableParameters() order.
class ParameterList : public Module {
 public:
  explicit ParameterList(std::vector<Tensor> params)
      : params_(std::move(params)) {}
  std::vector<Tensor> Parameters() const override { return params_; }

 private:
  std::vector<Tensor> params_;
};

}  // namespace

uint64_t DeriveBatchSeed(uint64_t run_seed, int epoch, int64_t global_batch) {
  uint64_t x = Mix64(run_seed);
  x = Mix64(x ^ static_cast<uint64_t>(epoch));
  x = Mix64(x ^ static_cast<uint64_t>(global_batch));
  return x;
}

int64_t PretrainBatchesPerEpoch(int64_t selected, int batch_size) {
  int64_t count = 0;
  for (int64_t start = 0; start + 1 < selected; start += batch_size) {
    if (std::min(selected, start + batch_size) - start < 2) break;
    ++count;
  }
  return count;
}

void RecordEpochLossMetrics(float mean_loss) {
  static Gauge* const loss_gauge =
      MetricsRegistry::Global().GetGauge("train/last_epoch_loss");
  static Counter* const nonfinite_counter =
      MetricsRegistry::Global().GetCounter("train/nonfinite_loss");
  loss_gauge->Set(mean_loss);
  if (!std::isfinite(mean_loss)) nonfinite_counter->Increment();
}

Pretrainer::Pretrainer(uint64_t seed, const LoopConfig& loop)
    : rng_(seed), seed_(seed), loop_(loop) {}

Result<PretrainStats> Pretrainer::Pretrain(const GraphSource& source,
                                           const std::vector<int64_t>& indices,
                                           const PretrainOptions& options) {
  return RunRounds(source, indices, options, /*dist=*/nullptr);
}

Result<PretrainStats> Pretrainer::Pretrain(const GraphDataset& dataset,
                                           const std::vector<int64_t>& indices,
                                           const PretrainOptions& options) {
  const InMemorySource source(&dataset);
  return Pretrain(source, indices, options);
}

void Pretrainer::ShuffleOrder(std::vector<int64_t>* order,
                              const std::vector<IndexRange>& blocks) {
  if (blocks.size() <= 1) {
    // Single-block source: the historical global shuffle, bit-identical
    // to the pre-GraphSource loop.
    rng_.Shuffle(order);
    return;
  }
  // Block-aware shuffle: shuffle which blocks (shards) come in what
  // order, and independently shuffle indices inside each block. Batches
  // then touch shards in runs instead of uniformly at random, so the
  // reader's decoded-shard cache keeps its bounded size effective. The
  // trade (standard for out-of-core loaders) is that two graphs from
  // different shards can never share a batch unless adjacent in the
  // shard sequence.
  std::vector<std::vector<int64_t>> groups(blocks.size());
  for (int64_t idx : *order) {
    // Blocks are sorted, disjoint, and cover the source: find the one
    // holding idx.
    size_t lo = 0, hi = blocks.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi + 1) / 2;
      if (blocks[mid].begin <= idx) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    groups[lo].push_back(idx);
  }
  std::vector<size_t> sequence;
  sequence.reserve(groups.size());
  for (size_t b = 0; b < groups.size(); ++b) {
    if (!groups[b].empty()) sequence.push_back(b);
  }
  rng_.Shuffle(&sequence);
  order->clear();
  for (size_t b : sequence) {
    rng_.Shuffle(&groups[b]);
    order->insert(order->end(), groups[b].begin(), groups[b].end());
  }
}

AllReduceSchedule Pretrainer::RoundSchedule(const GraphSource& source,
                                            int64_t selected, int world_size,
                                            int grad_accum,
                                            uint64_t run_seed) const {
  AllReduceSchedule schedule;
  schedule.world_size = static_cast<uint32_t>(world_size);
  schedule.accum = static_cast<uint32_t>(grad_accum);
  schedule.epochs = static_cast<uint32_t>(loop_.epochs);
  schedule.grad_dim = static_cast<uint64_t>(
      ParameterList(TrainableParameters()).NumParameters());
  schedule.batches_per_epoch = static_cast<uint64_t>(
      PretrainBatchesPerEpoch(selected, loop_.batch_size));
  schedule.config_fingerprint = Fingerprint();
  schedule.source_fingerprint = source.ContentFingerprint();
  schedule.run_seed = run_seed;
  return schedule;
}

Result<PretrainStats> Pretrainer::RunRounds(
    const GraphSource& source, const std::vector<int64_t>& indices,
    const PretrainOptions& options, const DistributedPretrainOptions* dist) {
  const int world = dist != nullptr ? dist->world_size : 1;
  const int rank = dist != nullptr ? dist->rank : 0;
  const int grad_accum = dist != nullptr ? dist->grad_accum : 1;
  const std::string rank_note =
      dist != nullptr ? StrFormat(" (rank %d/%d)", rank, world) : "";
  std::vector<int64_t> order = indices;
  if (order.empty()) {
    order.resize(source.size());
    for (int64_t i = 0; i < source.size(); ++i) order[i] = i;
  }
  if (order.size() < 2) {
    return Status::InvalidArgument(
        "Pretrain needs at least 2 graphs (a batch needs a negative)");
  }
  for (int64_t index : order) {
    if (index < 0 || index >= source.size()) {
      return Status::OutOfRange("Pretrain index outside source");
    }
  }
  if (!options.checkpoint_dir.empty() || !options.resume_from.empty()) {
    SGCL_RETURN_NOT_OK(CheckpointSupport());
  }
  if (options.checkpoint_every_batches < 0) {
    return Status::InvalidArgument(
        "PretrainOptions::checkpoint_every_batches must be >= 0");
  }
  if (options.checkpoint_every_batches > 0 &&
      options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every_batches requires checkpoint_dir");
  }
  if (!options.checkpoint_dir.empty()) {
    if (options.checkpoint_every <= 0) {
      return Status::InvalidArgument(
          "PretrainOptions::checkpoint_every must be >= 1");
    }
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    if (ec) {
      return Status::Internal(
          StrFormat("cannot create checkpoint directory %s: %s",
                    options.checkpoint_dir.c_str(), ec.message().c_str()));
    }
  }

  PretrainStats stats;
  std::vector<Tensor> params = TrainableParameters();
  if (optimizer_ == nullptr) {
    optimizer_ = std::make_unique<Adam>(params, loop_.learning_rate);
  }
  stats.epoch_losses.reserve(loop_.epochs);
  stats.epoch_seconds.reserve(loop_.epochs);
  const uint64_t fingerprint = Fingerprint();
  const uint64_t source_fingerprint = source.ContentFingerprint();
  // Recorded in checkpoints for distributed batch-seed replay; a
  // resumed run carries the original forward even when this process was
  // constructed with a different seed.
  uint64_t train_seed = seed_;
  int start_epoch = 0;
  int64_t resume_batch_cursor = 0;
  double resume_partial_loss = 0.0;
  double restored_seconds = 0.0;
  if (!options.resume_from.empty()) {
    Stopwatch load_watch;
    SGCL_ASSIGN_OR_RETURN(const TrainState state,
                          LoadTrainCheckpoint(options.resume_from));
    if (state.config_fingerprint != fingerprint) {
      return Status::InvalidArgument(StrFormat(
          "%s was written by a run with config fingerprint %016llx, this "
          "trainer has %016llx",
          options.resume_from.c_str(),
          static_cast<unsigned long long>(state.config_fingerprint),
          static_cast<unsigned long long>(fingerprint)));
    }
    // A checkpoint is bound to its training data: refuse resume against
    // a source with different content (legacy checkpoints carry 0 and
    // skip the check).
    if (state.source_fingerprint != 0 &&
        state.source_fingerprint != source_fingerprint) {
      return Status::InvalidArgument(StrFormat(
          "%s was written against a source with fingerprint %016llx, this "
          "call trains on %016llx",
          options.resume_from.c_str(),
          static_cast<unsigned long long>(state.source_fingerprint),
          static_cast<unsigned long long>(source_fingerprint)));
    }
    // The checkpointed permutation must cover exactly the graphs this
    // call selected; a different index set is a different run.
    std::vector<int64_t> want = order;
    std::vector<int64_t> got = state.order;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (want != got) {
      return Status::InvalidArgument(StrFormat(
          "%s covers a different graph index set than this Pretrain call",
          options.resume_from.c_str()));
    }
    if (state.batch_cursor % grad_accum != 0) {
      // Checkpoints are only ever written at round boundaries; a
      // mid-round cursor means this checkpoint came from a run with a
      // different grad_accum (or the single-process loop).
      return Status::InvalidArgument(StrFormat(
          "%s has batch cursor %lld, not a multiple of grad_accum %d — it "
          "was not written by a distributed run with this round size",
          options.resume_from.c_str(),
          static_cast<long long>(state.batch_cursor), grad_accum));
    }
    ParameterList model(params);
    SGCL_RETURN_NOT_OK(
        ApplyModuleParams(state.model_params, &model, options.resume_from));
    SGCL_RETURN_NOT_OK(optimizer_->ImportState(state.optimizer));
    rng_.SetState(state.rng);
    if (state.train_seed != 0) train_seed = state.train_seed;
    order = state.order;
    start_epoch = state.next_epoch;
    resume_batch_cursor = state.batch_cursor;
    resume_partial_loss = state.partial_loss_sum;
    stats.epoch_losses = state.epoch_losses;
    stats.epoch_seconds = state.epoch_seconds;
    stats.total_batches = state.total_batches;
    for (double s : state.epoch_seconds) restored_seconds += s;
    const double load_seconds = load_watch.ElapsedSeconds();
    MetricsRegistry::Global().GetCounter("checkpoint/loads")->Increment();
    MetricsRegistry::Global()
        .GetCounter("time/checkpoint_us")
        ->Increment(static_cast<int64_t>(load_seconds * 1e6));
    SGCL_LOG(INFO) << "resumed from " << options.resume_from << " at epoch "
                   << start_epoch << " batch " << resume_batch_cursor << " ("
                   << load_seconds << "s load)" << rank_note;
  }

  const AllReduceSchedule schedule =
      RoundSchedule(source, static_cast<int64_t>(order.size()), world,
                    grad_accum, train_seed);
  const uint64_t rounds_per_epoch = schedule.rounds_per_epoch();
  const uint64_t accum = schedule.accum;
  // Rounds below this are already reduced cluster-wide: replay them from
  // the coordinator's cache (no compute) to catch back up to lockstep.
  // Always 0 in a single process.
  uint64_t cached_through = 0;
  AllReduceClient client;
  if (dist != nullptr) {
    WorkerHello hello;
    hello.rank = static_cast<uint32_t>(rank);
    hello.schedule = schedule;
    hello.next_round = static_cast<uint64_t>(start_epoch) * rounds_per_epoch +
                       static_cast<uint64_t>(resume_batch_cursor) / accum;
    SGCL_ASSIGN_OR_RETURN(
        const JoinReply reply,
        client.Join(dist->coordinator_port, hello, dist->connect_deadline_ms,
                    dist->allreduce_timeout_ms));
    cached_through = reply.completed_rounds;
    if (cached_through > hello.next_round) {
      SGCL_LOG(INFO) << "rank " << rank << " catching up: rounds ["
                     << hello.next_round << ", " << cached_through
                     << ") replay from the coordinator cache";
    }
  }

  Stopwatch run_watch;
  const std::map<std::string, double> run_stage_before =
      StageSeconds(MetricsRegistry::Global().Snapshot());
  std::map<std::string, double> stage_before = run_stage_before;
  static Counter* const epochs_counter =
      MetricsRegistry::Global().GetCounter("train/epochs");
  static Counter* const batches_counter =
      MetricsRegistry::Global().GetCounter("train/batches");
  static Counter* const allreduce_us_counter =
      MetricsRegistry::Global().GetCounter("comms/allreduce_us");

  const std::vector<IndexRange> blocks = source.FetchBlocks();
  PrefetcherOptions prefetch_options;
  prefetch_options.depth = options.prefetch_depth;
  BatchPrefetcher prefetcher(&source, prefetch_options);

  // Serializes the complete resumable run state and publishes it
  // atomically to `path`.
  const auto save_checkpoint =
      [&](int next_epoch, int64_t batch_cursor, double partial_loss_sum,
          const std::string& path) -> Status {
    Stopwatch save_watch;
    TrainState state;
    state.config_fingerprint = fingerprint;
    state.model_params = SerializeModuleParams(ParameterList(params));
    state.optimizer = optimizer_->ExportState();
    state.rng = rng_.GetState();
    state.next_epoch = next_epoch;
    state.total_epochs = loop_.epochs;
    state.total_batches = stats.total_batches;
    state.order = order;
    state.epoch_losses = stats.epoch_losses;
    state.epoch_seconds = stats.epoch_seconds;
    state.batch_cursor = batch_cursor;
    state.partial_loss_sum = partial_loss_sum;
    state.source_fingerprint = source_fingerprint;
    state.train_seed = train_seed;
    SGCL_RETURN_NOT_OK(SaveTrainCheckpoint(state, path));
    SGCL_RETURN_NOT_OK(PruneCheckpoints(options.checkpoint_dir,
                                        options.checkpoint_keep_last));
    const double save_seconds = save_watch.ElapsedSeconds();
    MetricsRegistry::Global().GetCounter("checkpoint/saves")->Increment();
    MetricsRegistry::Global()
        .GetCounter("time/checkpoint_us")
        ->Increment(static_cast<int64_t>(save_seconds * 1e6));
    SGCL_LOG(DEBUG) << "checkpoint " << path << " saved in " << save_seconds
                    << "s";
    if (options.on_checkpoint) {
      CheckpointReport report;
      report.path = path;
      report.epoch = next_epoch - (batch_cursor > 0 ? 0 : 1);
      report.seconds = save_seconds;
      options.on_checkpoint(report);
    }
    return Status::OK();
  };

  std::vector<float> leaf_grad;
  for (int epoch = start_epoch; epoch < loop_.epochs; ++epoch) {
    SGCL_TRACE_SPAN("train/epoch");
    Stopwatch epoch_watch;
    // A mid-epoch resume re-enters an epoch whose shuffle already
    // happened (the restored `order` is post-shuffle and the restored
    // RNG already consumed it), so only fresh epochs reshuffle. The
    // shuffle consumes this trainer's own rng_ — identically on every
    // rank, since all start from the same seed (or the same restored
    // RNG state). Catch-up epochs replayed from cache still shuffle,
    // keeping the stream in sync.
    const bool mid_epoch_resume =
        epoch == start_epoch && resume_batch_cursor > 0;
    if (!mid_epoch_resume) ShuffleOrder(&order, blocks);
    std::vector<std::vector<int64_t>> all_batches =
        BuildEpochBatches(order, loop_.batch_size, &logged_dropped_tail_);
    const int64_t epoch_batch_total =
        static_cast<int64_t>(all_batches.size());
    double epoch_loss = 0.0;
    int64_t batches = 0;
    if (mid_epoch_resume) {
      // Fast-forward: the first batch_cursor batches already ran before
      // the checkpoint; skip them and seed the running loss sum.
      batches = std::min(resume_batch_cursor, epoch_batch_total);
      epoch_loss = resume_partial_loss;
    }
    const uint64_t first_round = static_cast<uint64_t>(batches) / accum;
    // Feed the prefetcher exactly the batches this rank will compute
    // this epoch, in (round, slot) order, up front so the pipeline can
    // run ahead of compute. Rounds replayed from the coordinator's
    // cache are not recomputed, so their batches never decode.
    std::vector<std::vector<int64_t>> my_batches;
    for (uint64_t r = first_round; r < rounds_per_epoch; ++r) {
      const uint64_t global_round =
          static_cast<uint64_t>(epoch) * rounds_per_epoch + r;
      if (global_round < cached_through) continue;
      const uint32_t leaves = schedule.leaves_in_round(global_round);
      for (uint32_t slot = 0; slot < leaves; ++slot) {
        if (RankOwningSlot(slot, world) != rank) continue;
        my_batches.push_back(std::move(all_batches[r * accum + slot]));
      }
    }
    prefetcher.BeginEpoch(std::move(my_batches));
    int64_t last_ckpt_marker =
        options.checkpoint_every_batches > 0
            ? batches / options.checkpoint_every_batches
            : 0;
    for (uint64_t r = first_round; r < rounds_per_epoch; ++r) {
      if (options.should_cancel && options.should_cancel()) {
        stats.cancelled = true;
        stats.total_seconds = restored_seconds + run_watch.ElapsedSeconds();
        stats.stage_seconds =
            StageDelta(run_stage_before,
                       StageSeconds(MetricsRegistry::Global().Snapshot()));
        return stats;
      }
      const uint64_t global_round =
          static_cast<uint64_t>(epoch) * rounds_per_epoch + r;
      uint32_t leaf_count = schedule.leaves_in_round(global_round);
      double loss_sum = 0.0;
      // Maybe open a sampled trace rooted at this optimizer step:
      // train/batch becomes the root span and the stage spans below
      // (plus any prefetch/decode work the step schedules, and on the
      // distributed path the all-reduce wait) nest under it. Sampling
      // never touches rng_ (deterministic atomic counter), so losses
      // are bitwise-independent of the rate.
      const TraceContext batch_trace = TraceCollector::Global().MaybeStartTrace();
      ScopedTraceContext batch_trace_install(batch_trace);
      SGCL_TRACE_SPAN("train/batch");
      if (global_round >= cached_through) {
        for (uint32_t slot = 0; slot < leaf_count; ++slot) {
          if (RankOwningSlot(slot, world) != rank) continue;
          SGCL_ASSIGN_OR_RETURN(const FetchedGraphs fetched,
                                prefetcher.Next());
          optimizer_->ZeroGrad();
          // Distributed draws are keyed on the batch's position, so any
          // worker recomputing this (epoch, batch) cell — original owner
          // or elastic rejoiner — draws the identical stream. A single
          // process draws from its own rng_.
          std::optional<Rng> batch_rng;
          if (dist != nullptr) {
            batch_rng.emplace(DeriveBatchSeed(
                train_seed, epoch, static_cast<int64_t>(r * accum + slot)));
          }
          Tensor loss =
              BatchLoss(fetched.graphs(), batch_rng ? &*batch_rng : &rng_);
          {
            SGCL_TRACE_SPAN_TIMED("backward");
            loss.Backward();
          }
          if (dist != nullptr) {
            FlattenGradients(params, &leaf_grad);
            SGCL_RETURN_NOT_OK(client.SubmitLeaf(
                global_round, slot, static_cast<double>(loss.item()),
                leaf_grad));
          } else {
            loss_sum += loss.item();
          }
        }
      }
      // A single process's one-batch round leaves its gradients where
      // Backward put them; the distributed path replaces them with the
      // round's mean.
      ReducedRound round;
      if (dist != nullptr) {
        Stopwatch allreduce_watch;
        SGCL_ASSIGN_OR_RETURN(round, client.GetRound(global_round));
        allreduce_us_counter->Increment(
            static_cast<int64_t>(allreduce_watch.ElapsedSeconds() * 1e6));
        loss_sum = round.loss_sum;
        leaf_count = round.leaf_count;
      }
      {
        SGCL_TRACE_SPAN_TIMED("optimizer");
        if (dist != nullptr) {
          ApplyMeanGradients(&params, round.grad_sum, round.leaf_count);
        }
        optimizer_->ClipGradNorm(loop_.grad_clip);
        optimizer_->Step();
      }
      epoch_loss += loss_sum;
      batches += leaf_count;
      batches_counter->Increment(leaf_count);
      if (options.checkpoint_every_batches > 0 &&
          batches < epoch_batch_total) {
        // Round granularity: fire when the completed-batch count crossed
        // a cadence multiple since the previous round (at one batch per
        // round, exactly when batches % N == 0).
        const int64_t marker = batches / options.checkpoint_every_batches;
        if (marker > last_ckpt_marker) {
          last_ckpt_marker = marker;
          SGCL_RETURN_NOT_OK(save_checkpoint(
              epoch, batches, epoch_loss,
              MidEpochCheckpointFileName(options.checkpoint_dir, epoch,
                                         batches)));
        }
      }
    }
    const float mean_loss =
        batches > 0 ? static_cast<float>(epoch_loss / batches) : 0.0f;
    stats.epoch_losses.push_back(mean_loss);
    const double epoch_seconds = epoch_watch.ElapsedSeconds();
    stats.epoch_seconds.push_back(epoch_seconds);
    stats.total_batches += batches;
    epochs_counter->Increment();
    RecordEpochLossMetrics(mean_loss);
    SGCL_LOG(DEBUG) << name() << " epoch " << epoch << " loss " << mean_loss
                    << rank_note;
    OnEpochEnd(epoch);
    if (!options.checkpoint_dir.empty() &&
        ((epoch + 1) % options.checkpoint_every == 0 ||
         epoch + 1 == loop_.epochs)) {
      SGCL_RETURN_NOT_OK(save_checkpoint(
          epoch + 1, 0, 0.0,
          CheckpointFileName(options.checkpoint_dir, epoch + 1)));
    }
    if (options.on_epoch_end) {
      const std::map<std::string, double> stage_after =
          StageSeconds(MetricsRegistry::Global().Snapshot());
      EpochReport report;
      report.epoch = epoch;
      report.total_epochs = loop_.epochs;
      report.mean_loss = mean_loss;
      report.batches = batches;
      report.seconds = epoch_seconds;
      report.stage_seconds = StageDelta(stage_before, stage_after);
      stage_before = std::move(stage_after);
      options.on_epoch_end(report);
    }
  }
  stats.total_seconds = restored_seconds + run_watch.ElapsedSeconds();
  stats.stage_seconds = StageDelta(
      run_stage_before, StageSeconds(MetricsRegistry::Global().Snapshot()));
  if (dist != nullptr) {
    SGCL_RETURN_NOT_OK(client.Goodbye(static_cast<uint32_t>(rank)));
    client.Disconnect();
  }
  return stats;
}

SgclTrainer::SgclTrainer(const SgclConfig& config, uint64_t seed)
    : Pretrainer(seed, {config.epochs, config.batch_size,
                        config.learning_rate, config.grad_clip}),
      config_(config) {
  const Status valid = config.Validate();
  if (!valid.ok()) {
    SGCL_LOG(ERROR) << "invalid SgclConfig: " << valid.ToString();
  }
  SGCL_CHECK(valid.ok());
  model_ = std::make_unique<SgclModel>(config_, &rng_);
}

// Defined here, not in sgcl_model.cc: the call must cross object files so
// a link-time wrapper of ComputeLoss sees every training step.
Tensor SgclTrainer::BatchLoss(const std::vector<const Graph*>& graphs,
                              Rng* rng) {
  return model_->ComputeLoss(graphs, rng);
}

AllReduceSchedule SgclTrainer::DistributedSchedule(const GraphSource& source,
                                                   int64_t selected,
                                                   int world_size,
                                                   int grad_accum,
                                                   uint64_t run_seed) const {
  return RoundSchedule(source, selected, world_size, grad_accum, run_seed);
}

Result<PretrainStats> SgclTrainer::PretrainDistributed(
    const GraphSource& source, const std::vector<int64_t>& indices,
    const PretrainOptions& options, const DistributedPretrainOptions& dist) {
  if (dist.world_size < 1) {
    return Status::InvalidArgument(
        "DistributedPretrainOptions::world_size must be >= 1");
  }
  if (dist.rank < 0 || dist.rank >= dist.world_size) {
    return Status::InvalidArgument(StrFormat(
        "DistributedPretrainOptions::rank %d outside [0, %d)", dist.rank,
        dist.world_size));
  }
  if (dist.grad_accum < 1) {
    return Status::InvalidArgument(
        "DistributedPretrainOptions::grad_accum must be >= 1");
  }
  if (dist.world_size > dist.grad_accum) {
    // A full round has grad_accum leaf slots; more workers than slots
    // would leave some ranks with no work and an undefined schedule.
    return Status::InvalidArgument(StrFormat(
        "world_size %d exceeds grad_accum %d: every worker must own at "
        "least one leaf slot per full round",
        dist.world_size, dist.grad_accum));
  }
  if (dist.coordinator_port <= 0) {
    return Status::InvalidArgument(
        "DistributedPretrainOptions::coordinator_port must be set");
  }
  // One worker cancelling unilaterally would stall the cluster.
  PretrainOptions uncancellable = options;
  uncancellable.should_cancel = nullptr;
  return RunRounds(source, indices, uncancellable, &dist);
}

}  // namespace sgcl
