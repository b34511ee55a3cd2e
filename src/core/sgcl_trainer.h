// The self-supervised pretraining loop of SGCL and every baseline
// (Pretrainer), with an observer-based progress/observability API, and
// SGCL's subclass of it (SgclTrainer).
//
// There is one epoch loop, Pretrainer::RunRounds. Each optimizer step is
// a "round" of up to `accum` global batches (DESIGN.md §12.3). Pretrain
// runs it in one process at world 1 and accum 1, for every method;
// SgclTrainer::PretrainDistributed runs it as one rank of an all-reduce
// cluster. The two differ in exactly three ways:
//   1. round size: 1 batch vs DistributedPretrainOptions::grad_accum;
//   2. gradients: left where Backward put them vs replaced by the
//      round's mean from the AllReduceClient;
//   3. stochastic draws: the pretrainer's own RNG stream vs a
//      DeriveBatchSeed stream per batch.
// (PretrainDistributed also ignores should_cancel.) Validation, resume,
// checkpoint cadence, epoch accounting and reporting are shared.
#ifndef SGCL_CORE_SGCL_TRAINER_H_
#define SGCL_CORE_SGCL_TRAINER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/sgcl_model.h"
#include "core/train_state.h"
#include "graph/dataset.h"
#include "graph/graph_source.h"
#include "nn/encoder.h"
#include "tensor/optimizer.h"

namespace sgcl {

struct AllReduceSchedule;  // comms/allreduce.h

// Per-epoch progress record handed to PretrainOptions::on_epoch_end.
struct EpochReport {
  int epoch = 0;        // 0-based
  int total_epochs = 0;
  float mean_loss = 0.0f;  // mean minibatch loss of this epoch
  int64_t batches = 0;
  double seconds = 0.0;  // wall time of this epoch
  // Wall seconds spent per instrumented stage during this epoch, keyed by
  // stage name ("generator", "augmentation", "encode", "loss",
  // "backward", "optimizer", ...). Derived from the global metrics
  // registry's "time/<stage>_us" counters, so stages nested in parallel
  // workers aggregate across threads and a stage's total can exceed the
  // epoch's wall time.
  std::map<std::string, double> stage_seconds;
};

struct PretrainStats {
  std::vector<float> epoch_losses;   // mean minibatch loss per epoch
  std::vector<double> epoch_seconds; // wall time per epoch
  double total_seconds = 0.0;
  int64_t total_batches = 0;
  // Sum of per-epoch stage_seconds over the whole run.
  std::map<std::string, double> stage_seconds;
  // True when PretrainOptions::should_cancel stopped the run early;
  // epoch_losses then holds only the completed epochs.
  bool cancelled = false;
};

// Record of one checkpoint save handed to PretrainOptions::on_checkpoint.
struct CheckpointReport {
  std::string path;
  int epoch = 0;         // 0-based epoch the checkpoint was taken after
  double seconds = 0.0;  // serialize + atomic-publish wall time
};

// Observability and control hooks for Pretrain. Default-constructed
// options reproduce the plain training loop exactly: the observer only
// reads timings, so attaching one never changes epoch_losses (the loop's
// RNG stream and arithmetic are untouched). Checkpointing is likewise
// off the training tape — it snapshots state between epochs, so enabling
// it never perturbs losses either.
struct PretrainOptions {
  // Called after each completed epoch.
  std::function<void(const EpochReport&)> on_epoch_end;
  // Polled before each optimizer step; returning true stops training
  // after the current step (the partial epoch is discarded from
  // epoch_losses and stats.cancelled is set). PretrainDistributed
  // ignores it.
  std::function<bool()> should_cancel;

  // Crash-safe checkpointing (core/train_state.h). When checkpoint_dir
  // is non-empty, a checkpoint is written atomically after every
  // checkpoint_every-th completed epoch and after the final epoch,
  // retaining the checkpoint_keep_last newest files.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_keep_last = 3;
  // Path of a checkpoint to resume from (typically
  // FindLatestCheckpoint(checkpoint_dir)). The pretrainer must be the
  // same method, constructed with a config whose fingerprint matches the
  // checkpoint's, and the call's `indices` must select the same graph
  // set the checkpointed run used. The resumed run replays the exact
  // remaining epochs: its PretrainStats (including the restored-epoch
  // prefix) is bitwise identical to an uninterrupted run's.
  std::string resume_from;
  // Called after each successful checkpoint save.
  std::function<void(const CheckpointReport&)> on_checkpoint;

  // Streaming pipeline (data/prefetcher.h): batches kept in flight ahead
  // of the training step. <= 0 fetches synchronously. Prefetching only
  // moves *when* decode happens, never what is computed, so changing the
  // depth cannot change losses.
  int prefetch_depth = 2;
  // When > 0 (and checkpoint_dir is set), additionally checkpoint inside
  // each epoch at the end of every round whose completed-batch count
  // crossed a multiple of N (for Pretrain, one batch per round: exactly
  // every N batches). These mid-epoch checkpoints carry a batch-level
  // cursor, so a kill at any shard boundary resumes bitwise-exactly
  // (see core/train_state.h).
  int64_t checkpoint_every_batches = 0;
};

// The seed of the derived RNG stream that batch `global_batch` of epoch
// `epoch` consumes in distributed pretraining (splitmix64-style
// finalizer chain). Keyed on the run's ORIGINAL trainer seed
// (TrainState::train_seed), not the current process's, so an elastically
// restarted worker — even one handed a fresh ctor seed — replays
// bit-identical stochastic draws for every batch it recomputes.
uint64_t DeriveBatchSeed(uint64_t run_seed, int epoch, int64_t global_batch);

// Batches one Pretrain epoch runs over `selected` graphs at
// `batch_size` (trailing batches with fewer than 2 graphs are dropped —
// contrastive losses need a negative). The distributed schedule quantity
// K: every worker and the coordinator must compute the same value.
int64_t PretrainBatchesPerEpoch(int64_t selected, int batch_size);

// Data-parallel settings for PretrainDistributed. The schedule is
// defined by (grad_accum, the global batch schedule); world_size only
// says how many processes execute it, which is why losses are bitwise
// worker-count-independent.
struct DistributedPretrainOptions {
  int rank = 0;
  int world_size = 1;
  // W: global batches reduced into one optimizer step (a "round").
  // Must be >= world_size so every worker owns work in full rounds.
  int grad_accum = 8;
  // The all-reduce coordinator's port (comms/allreduce.h), already
  // started by rank 0's process.
  int coordinator_port = 0;
  // Per-operation comms deadline. GetRound blocks this long for
  // stragglers, so it must cover a killed worker's restart-and-rejoin
  // time, not just network latency.
  int allreduce_timeout_ms = 60000;
  // How long Join retries connecting before giving up (the coordinator
  // may still be binding when workers launch).
  int connect_deadline_ms = 15000;
};

// Publishes one epoch's loss to the global metrics registry: sets gauge
// "train/last_epoch_loss" and increments counter "train/nonfinite_loss"
// when the loss is NaN/Inf — divergence must show up in exports (where
// JSON serializes the loss itself as null), not be masked. Called by
// Pretrain after every epoch; exposed for direct unit testing.
void RecordEpochLossMetrics(float mean_loss);

// A self-supervised pretraining method (SGCL or a baseline) and the loop
// that trains it, so evaluation harnesses and benches can iterate methods
// generically. The base owns the RNG stream, the Adam optimizer (built
// once per object, on the first Pretrain) and the loop.
class Pretrainer {
 public:
  virtual ~Pretrainer() = default;

  // Runs `epochs` of Adam over shuffled minibatches of `source` (indices
  // into it; empty = all graphs), one optimizer step per minibatch: the
  // round loop at world 1 and accum 1. Minibatches with fewer than 2
  // graphs are skipped. Returns InvalidArgument when fewer than 2 graphs
  // are selected and OutOfRange when an index is outside the source.
  // Batches stream through the prefetch pipeline; for multi-block
  // sources (sharded stores) the per-epoch shuffle is block-aware —
  // shard order and within-shard order are both shuffled, but a batch
  // never straddles more shards than it must — bounding the decoded-shard
  // working set. Single-block sources (in-memory) shuffle globally.
  Result<PretrainStats> Pretrain(const GraphSource& source,
                                 const std::vector<int64_t>& indices = {},
                                 const PretrainOptions& options = {});

  // Convenience adapter: trains from an in-memory dataset through the
  // same streaming path (InMemorySource borrows `dataset` for the call).
  Result<PretrainStats> Pretrain(const GraphDataset& dataset,
                                 const std::vector<int64_t>& indices = {},
                                 const PretrainOptions& options = {});

  // Frozen graph embeddings for downstream evaluation.
  virtual Tensor EmbedGraphs(
      const std::vector<const Graph*>& graphs) const = 0;

  // The representation encoder, exposed for fine-tuning protocols.
  virtual GnnEncoder* mutable_encoder() = 0;

  virtual std::string name() const = 0;

  // The ctor seed (the distributed handshake's run_seed for fresh runs).
  uint64_t seed() const { return seed_; }

 protected:
  // The loop settings every method's config carries.
  struct LoopConfig {
    int epochs = 0;
    int batch_size = 0;
    float learning_rate = 0.0f;
    float grad_clip = 0.0f;
  };

  Pretrainer(uint64_t seed, const LoopConfig& loop);

  // The minibatch objective; must be differentiable w.r.t. the tensors
  // returned by TrainableParameters(). `rng` drives its stochastic draws.
  virtual Tensor BatchLoss(const std::vector<const Graph*>& graphs,
                           Rng* rng) = 0;
  // The tensors Adam optimizes, in a fixed order: the gradient layout of
  // the all-reduce and the model section of a checkpoint.
  virtual std::vector<Tensor> TrainableParameters() const = 0;
  // Called once per completed epoch, before the checkpoint and the next
  // shuffle (e.g., JOAO's augmentation re-weighting).
  virtual void OnEpochEnd(int epoch) { (void)epoch; }
  // Hash of every setting that shapes training. A checkpoint resumes
  // only into a pretrainer with the same fingerprint.
  virtual uint64_t Fingerprint() const = 0;
  // FailedPrecondition when the method keeps training state that a
  // checkpoint (trainable parameters, Adam and rng_) does not capture;
  // Pretrain then refuses checkpoint_dir and resume_from.
  virtual Status CheckpointSupport() const { return Status::OK(); }

  // The all-reduce schedule of a run over `selected` graphs of `source`
  // at `world_size` workers and `grad_accum` batches per round.
  // `run_seed` is the run's original seed (seed() for a fresh run,
  // TrainState::train_seed for a resumed one).
  AllReduceSchedule RoundSchedule(const GraphSource& source, int64_t selected,
                                  int world_size, int grad_accum,
                                  uint64_t run_seed) const;

  // The one epoch loop behind Pretrain (`dist` null: world 1, accum 1,
  // no all-reduce, draws from rng_) and SgclTrainer::PretrainDistributed.
  Result<PretrainStats> RunRounds(const GraphSource& source,
                                  const std::vector<int64_t>& indices,
                                  const PretrainOptions& options,
                                  const DistributedPretrainOptions* dist);

  Rng rng_;

 private:
  // Per-epoch permutation update; block-aware for multi-block sources.
  void ShuffleOrder(std::vector<int64_t>* order,
                    const std::vector<IndexRange>& blocks);

  uint64_t seed_;
  LoopConfig loop_;
  std::unique_ptr<Adam> optimizer_;
  bool logged_dropped_tail_ = false;  // log the skipped size-1 tail once
};

// SGCL as a Pretrainer: its batch loss is SgclModel::ComputeLoss, and it
// alone adds a data-parallel entry point, PretrainDistributed.
class SgclTrainer : public Pretrainer {
 public:
  // `config` must pass SgclConfig::Validate(); a failed validation is a
  // programming error here (fatal). Callers holding untrusted configs
  // (e.g. the CLI) validate first and surface the Status themselves.
  SgclTrainer(const SgclConfig& config, uint64_t seed);

  // Data-parallel pretraining: the round loop with rounds of
  // `dist.grad_accum` batches. This trainer acts as worker `dist.rank`
  // of `dist.world_size`, computing the micro-batches it owns
  // (data/rank_assign.h) and exchanging gradients with the coordinator
  // at `dist.coordinator_port` each round. Per-epoch losses are
  // bitwise-identical for every world_size (including 1) given the same
  // config, seed, data, and grad_accum — see comms/allreduce.h for the
  // argument. Checkpoints (same PretrainOptions knobs) are written at
  // round boundaries; resume_from rejoins a live cluster elastically,
  // replaying missed rounds from the coordinator's cache. The epoch
  // shuffle consumes this trainer's own RNG (identically on every
  // rank); per-batch stochastic draws come from DeriveBatchSeed streams
  // instead, so they are position- not history-dependent.
  // PretrainOptions::should_cancel is ignored — one worker cancelling
  // unilaterally would stall the cluster; stop distributed runs by
  // stopping the job. The "train/batch" trace span covers one round:
  // this rank's batches, the all-reduce wait and the update.
  Result<PretrainStats> PretrainDistributed(
      const GraphSource& source, const std::vector<int64_t>& indices,
      const PretrainOptions& options,
      const DistributedPretrainOptions& dist);

  // The all-reduce schedule of a run of this trainer over `selected`
  // graphs of `source` at `world_size` workers and `grad_accum` batches
  // per round. `run_seed` is the run's original trainer seed (seed() for
  // a fresh run, TrainState::train_seed for a resumed one). Every
  // worker's HELLO is built here, so the coordinator's schedule must be
  // too: the two then agree field by field.
  AllReduceSchedule DistributedSchedule(const GraphSource& source,
                                        int64_t selected, int world_size,
                                        int grad_accum,
                                        uint64_t run_seed) const;

  Tensor EmbedGraphs(const std::vector<const Graph*>& graphs) const override {
    return model_->EmbedGraphs(graphs);
  }
  GnnEncoder* mutable_encoder() override {
    return model_->mutable_encoder_k();
  }
  std::string name() const override { return "SGCL"; }

  SgclModel& model() { return *model_; }
  const SgclModel& model() const { return *model_; }

 protected:
  Tensor BatchLoss(const std::vector<const Graph*>& graphs,
                   Rng* rng) override;
  std::vector<Tensor> TrainableParameters() const override {
    return model_->Parameters();
  }
  uint64_t Fingerprint() const override { return ConfigFingerprint(config_); }

 private:
  SgclConfig config_;
  std::unique_ptr<SgclModel> model_;
};

}  // namespace sgcl

#endif  // SGCL_CORE_SGCL_TRAINER_H_
