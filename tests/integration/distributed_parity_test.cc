// The tentpole acceptance test: multi-process data-parallel
// pretraining is bitwise-identical to --workers=1 for every worker
// count, over in-memory and sharded sources, and stays so when a
// worker is killed mid-epoch and elastically rejoins from its
// checkpoint.
#include <filesystem>
#include <string>
#include <vector>

#include "comms/distributed_test_util.h"
#include "common/fault.h"
#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

using ::sgcl::testing::ClusterConfig;
using ::sgcl::testing::RunCluster;
using ::sgcl::testing::TestCoordinator;

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

GraphDataset ParityDataset() {
  return MakeZincLikeDataset(/*num_graphs=*/26, /*seed=*/33);
}

SgclConfig ParityConfig(int epochs = 3) {
  SgclConfig cfg = MakeUnsupervisedConfig(kMoleculeFeatDim);
  cfg.encoder.hidden_dim = 10;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 10;
  cfg.batch_size = 4;  // 6 batches/epoch -> rounds of 4 + tail of 2
  cfg.epochs = epochs;
  return cfg;
}

ClusterConfig ParityCluster(int world) {
  ClusterConfig cc;
  cc.config = ParityConfig();
  cc.seed = 23;
  cc.world = world;
  cc.accum = 4;
  return cc;
}

// Per-epoch losses of an N-worker cluster, after asserting every rank
// reported the identical loss vector.
std::vector<float> ClusterLosses(const ClusterConfig& cc,
                                 const GraphSource& source) {
  const std::vector<PretrainStats> stats = RunCluster(cc, source);
  EXPECT_EQ(static_cast<int>(stats.size()), cc.world);
  for (size_t rank = 1; rank < stats.size(); ++rank) {
    EXPECT_EQ(stats[rank].epoch_losses, stats[0].epoch_losses)
        << "rank " << rank << " diverged from rank 0";
  }
  return stats.empty() ? std::vector<float>() : stats[0].epoch_losses;
}

TEST(DistributedParityTest, WorkerCountsAreBitwiseIdenticalInMemory) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  const std::vector<float> one = ClusterLosses(ParityCluster(1), source);
  ASSERT_EQ(one.size(), 3u);
  const std::vector<float> two = ClusterLosses(ParityCluster(2), source);
  const std::vector<float> four = ClusterLosses(ParityCluster(4), source);
  // Bitwise float equality — the whole point of the fixed-order
  // reduction.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(DistributedParityTest, WorkerCountsAreBitwiseIdenticalSharded) {
  GraphDataset ds = ParityDataset();
  const std::string dir = TempDir("dist_parity_shards");
  ShardWriterOptions opt;
  opt.graphs_per_shard = 7;  // multiple blocks: block-aware shuffle path
  opt.name = ds.name();
  opt.num_classes = ds.num_classes();
  ASSERT_TRUE([&]() -> Status {
    SGCL_ASSIGN_OR_RETURN(auto writer,
                          ShardedGraphStoreWriter::Create(dir, opt));
    for (int64_t i = 0; i < ds.size(); ++i) {
      SGCL_RETURN_NOT_OK(writer->Append(ds.graph(i)));
    }
    return writer->Finalize();
  }()
                  .ok());
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_GT((*store)->num_shards(), 1);

  const std::vector<float> one = ClusterLosses(ParityCluster(1), **store);
  ASSERT_EQ(one.size(), 3u);
  const std::vector<float> two = ClusterLosses(ParityCluster(2), **store);
  EXPECT_EQ(one, two);
}

// Changing the worker count must not silently change the schedule:
// the single-process plain Pretrain loop (no accumulation) is a
// DIFFERENT training run. Guard against accidentally "proving" parity
// by comparing against it.
TEST(DistributedParityTest, DistributedScheduleDiffersFromPlainLoop) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  SgclTrainer plain(ParityConfig(), /*seed=*/23);
  auto plain_stats = plain.Pretrain(source, {}, {});
  ASSERT_TRUE(plain_stats.ok());
  const std::vector<float> one = ClusterLosses(ParityCluster(1), source);
  EXPECT_NE(plain_stats->epoch_losses, one)
      << "grad-accum rounds should not reproduce per-batch SGD";
}

// Mid-run worker death: a worker crashes via an injected comms fault,
// restarts from its checkpoint (with a different ctor seed — the
// checkpointed train_seed must carry the stream), rejoins, and the
// final losses still match the undisturbed 1-worker run bitwise.
TEST(DistributedParityTest, KillAndRejoinKeepsBitwiseParity) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  const std::vector<float> baseline =
      ClusterLosses(ParityCluster(1), source);

  ClusterConfig cc = ParityCluster(2);
  cc.ckpt_root = TempDir("dist_parity_kill");
  cc.ckpt_every_batches = 4;  // checkpoint at every full round
  ScopedFaultInjection faults;
  // Fire deep enough into the run that checkpoints exist, so the
  // restart exercises resume + cache catch-up rather than a from-
  // scratch replay.
  FaultInjector::Global().Arm("comms/send", FaultKind::kCrash, /*nth=*/20);
  int restarts = 0;
  const std::vector<PretrainStats> stats =
      RunCluster(cc, source, &restarts);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(restarts, 1) << "the armed crash never fired";
  EXPECT_GT(FaultInjector::Global().hits("comms/send"), 0);
  EXPECT_EQ(stats[0].epoch_losses, baseline);
  EXPECT_EQ(stats[1].epoch_losses, baseline);
}

// One worker cancelling would stall the cluster, so PretrainDistributed
// never polls should_cancel: a run whose hook always says stop still
// completes, with the uncancelled run's losses.
TEST(DistributedParityTest, ShouldCancelIsIgnored) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  const ClusterConfig cc = ParityCluster(1);
  const std::vector<float> baseline = ClusterLosses(cc, source);

  TestCoordinator coordinator(cc, source);
  SgclTrainer trainer(cc.config, cc.seed);
  PretrainOptions options;
  int polls = 0;
  options.should_cancel = [&polls] {
    ++polls;
    return true;
  };
  DistributedPretrainOptions dist;
  dist.world_size = 1;
  dist.grad_accum = cc.accum;
  dist.coordinator_port = coordinator.port();
  auto stats = trainer.PretrainDistributed(source, {}, options, dist);
  coordinator.Shutdown();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->cancelled);
  EXPECT_EQ(polls, 0);
  EXPECT_EQ(stats->epoch_losses, baseline);
}

// Distributed checkpoints are written at round boundaries only, so a
// batch cursor that is not a multiple of grad_accum (here: a
// single-process checkpoint after two batches, resumed at accum 4) is
// refused before the worker joins.
TEST(DistributedParityTest, ResumeRejectsMidRoundCursor) {
  GraphDataset ds = ParityDataset();
  const InMemorySource source(&ds);
  const ClusterConfig cc = ParityCluster(1);
  const std::string ckpt_dir = TempDir("dist_parity_mid_round");
  {
    SgclTrainer trainer(cc.config, cc.seed);
    PretrainOptions options;
    options.checkpoint_dir = ckpt_dir;
    options.checkpoint_every_batches = 2;
    int polls = 0;
    options.should_cancel = [&polls] { return ++polls > 3; };
    auto stats = trainer.Pretrain(source, {}, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(stats->cancelled);
  }
  const auto latest = FindLatestCheckpoint(ckpt_dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  ASSERT_EQ(*latest, MidEpochCheckpointFileName(ckpt_dir, 0, 2));

  TestCoordinator coordinator(cc, source);
  SgclTrainer trainer(cc.config, cc.seed);
  PretrainOptions options;
  options.resume_from = *latest;
  DistributedPretrainOptions dist;
  dist.world_size = 1;
  dist.grad_accum = cc.accum;
  dist.coordinator_port = coordinator.port();
  auto stats = trainer.PretrainDistributed(source, {}, options, dist);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument)
      << stats.status().ToString();
  EXPECT_NE(stats.status().message().find("grad_accum 4"),
            std::string::npos)
      << stats.status().ToString();
  EXPECT_EQ(coordinator.get().completed_rounds(), 0u);
  fs::remove_all(ckpt_dir);
}

}  // namespace
}  // namespace sgcl
