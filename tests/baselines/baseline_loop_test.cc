// What the baselines get from training through the one round loop
// (Pretrainer::RunRounds): streaming with prefetch over a sharded store,
// bitwise mid-epoch kill and resume, checkpoints bound to their method,
// input validation as a Status, and the observer and cancellation hooks.
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/adgcl.h"
#include "baselines/graphcl.h"
#include "baselines/joao.h"
#include "baselines/simgrace.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
}

// 22 graphs at batch 4: six batches per epoch, the last of two.
GraphDataset LoopDataset() {
  return MakeZincLikeDataset(/*num_graphs=*/22, /*seed=*/19);
}

BaselineConfig LoopConfig(int epochs = 3) {
  BaselineConfig cfg;
  cfg.encoder.arch = GnnArch::kGin;
  cfg.encoder.in_dim = kMoleculeFeatDim;
  cfg.encoder.hidden_dim = 8;
  cfg.encoder.num_layers = 2;
  cfg.batch_size = 4;
  cfg.epochs = epochs;
  cfg.seed = 7;
  return cfg;
}

std::string WriteStore(const GraphDataset& ds, const char* name) {
  const std::string dir = TempDir(name);
  ShardWriterOptions opt;
  opt.graphs_per_shard = 5;
  opt.name = ds.name();
  opt.num_classes = ds.num_classes();
  EXPECT_TRUE([&]() -> Status {
    SGCL_ASSIGN_OR_RETURN(auto writer,
                          ShardedGraphStoreWriter::Create(dir, opt));
    for (int64_t i = 0; i < ds.size(); ++i) {
      SGCL_RETURN_NOT_OK(writer->Append(ds.graph(i)));
    }
    return writer->Finalize();
  }()
                  .ok());
  return dir;
}

TEST(BaselineLoopTest, GraphClShardedPrefetchDepthIsBitwiseNeutral) {
  const GraphDataset ds = LoopDataset();
  const std::string dir = WriteStore(ds, "baseline_loop_shards");
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_GT((*store)->num_shards(), 1);
  std::vector<std::vector<float>> runs;
  for (int depth : {0, 2}) {
    GraphClBaseline method(LoopConfig());
    PretrainOptions options;
    options.prefetch_depth = depth;
    auto stats = method.Pretrain(**store, {}, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->epoch_losses.size(), 3u);
    runs.push_back(stats->epoch_losses);
  }
  EXPECT_EQ(runs[0], runs[1]);
  fs::remove_all(dir);
}

// SimGRACE draws its weight perturbation from the loop's RNG every batch,
// so a resume that restored anything less than the parameters, Adam, the
// RNG and the cursor would diverge.
TEST(BaselineLoopTest, SimGraceMidEpochResumeIsBitwise) {
  const GraphDataset ds = LoopDataset();
  SimGraceBaseline reference(LoopConfig());
  auto full = reference.Pretrain(ds);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  const std::string ckpt_dir = TempDir("baseline_loop_resume");
  {
    SimGraceBaseline killed(LoopConfig());
    PretrainOptions options;
    options.checkpoint_dir = ckpt_dir;
    options.checkpoint_every_batches = 2;
    int polls = 0;
    // Six batches per epoch: stop in epoch 1 after its third batch, one
    // batch past the newest checkpoint.
    options.should_cancel = [&polls] { return ++polls > 9; };
    auto partial = killed.Pretrain(ds, {}, options);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    ASSERT_TRUE(partial->cancelled);
  }
  const auto latest = FindLatestCheckpoint(ckpt_dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(*latest, MidEpochCheckpointFileName(ckpt_dir, 1, 2));

  BaselineConfig other_seed = LoopConfig();
  other_seed.seed = 1234;
  SimGraceBaseline resumed(other_seed);
  PretrainOptions options;
  options.resume_from = *latest;
  auto stitched = resumed.Pretrain(ds, {}, options);
  ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
  EXPECT_EQ(stitched->epoch_losses, full->epoch_losses);
  EXPECT_EQ(stitched->total_batches, full->total_batches);
  fs::remove_all(ckpt_dir);
}

TEST(BaselineLoopTest, CheckpointDoesNotResumeIntoAnotherMethod) {
  const GraphDataset ds = LoopDataset();
  const std::string ckpt_dir = TempDir("baseline_loop_other_method");
  GraphClBaseline graphcl(LoopConfig(/*epochs=*/1));
  PretrainOptions save;
  save.checkpoint_dir = ckpt_dir;
  ASSERT_TRUE(graphcl.Pretrain(ds, {}, save).ok());
  const auto latest = FindLatestCheckpoint(ckpt_dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();

  SimGraceBaseline simgrace(LoopConfig(/*epochs=*/1));
  PretrainOptions resume;
  resume.resume_from = *latest;
  auto stats = simgrace.Pretrain(ds, {}, resume);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  fs::remove_all(ckpt_dir);
}

TEST(BaselineLoopTest, JoaoAndAdGclRefuseCheckpoints) {
  const GraphDataset ds = LoopDataset();
  const std::string ckpt_dir = TempDir("baseline_loop_refused");
  JoaoBaseline joao(LoopConfig());
  AdGclBaseline adgcl(LoopConfig());
  for (Pretrainer* method : std::vector<Pretrainer*>{&joao, &adgcl}) {
    PretrainOptions save;
    save.checkpoint_dir = ckpt_dir;
    auto saved = method->Pretrain(ds, {}, save);
    ASSERT_FALSE(saved.ok()) << method->name();
    EXPECT_EQ(saved.status().code(), StatusCode::kFailedPrecondition)
        << method->name();
    PretrainOptions resume;
    resume.resume_from = ckpt_dir + "/missing.sgcl";
    auto resumed = method->Pretrain(ds, {}, resume);
    ASSERT_FALSE(resumed.ok()) << method->name();
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition)
        << method->name();
  }
  EXPECT_FALSE(fs::exists(ckpt_dir));
}

TEST(BaselineLoopTest, BadSelectionIsAStatus) {
  const GraphDataset ds = LoopDataset();
  GraphClBaseline method(LoopConfig());
  auto out_of_range = method.Pretrain(ds, {0, 1, ds.size()});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kOutOfRange);
  auto one_graph = method.Pretrain(ds, {3});
  ASSERT_FALSE(one_graph.ok());
  EXPECT_EQ(one_graph.status().code(), StatusCode::kInvalidArgument);
}

TEST(BaselineLoopTest, ObserverAndCancellationReachABaseline) {
  const GraphDataset ds = LoopDataset();
  GraphClBaseline method(LoopConfig(/*epochs=*/4));
  std::vector<EpochReport> reports;
  PretrainOptions options;
  options.on_epoch_end = [&reports](const EpochReport& report) {
    reports.push_back(report);
  };
  options.should_cancel = [&reports] { return reports.size() == 2; };
  auto stats = method.Pretrain(ds, {}, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->cancelled);
  ASSERT_EQ(reports.size(), 2u);
  ASSERT_EQ(stats->epoch_losses.size(), 2u);
  for (int e = 0; e < 2; ++e) {
    EXPECT_EQ(reports[e].epoch, e);
    EXPECT_EQ(reports[e].total_epochs, 4);
    EXPECT_EQ(reports[e].batches, 6);
    EXPECT_EQ(reports[e].mean_loss, stats->epoch_losses[e]);
  }
}

}  // namespace
}  // namespace sgcl
