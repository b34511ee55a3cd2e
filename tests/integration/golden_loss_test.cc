// Golden per-epoch losses, pinned as hex floats, for the pretraining
// runs every other trainer test only compares against each other:
// plain Pretrain in memory and over a multi-shard store, Pretrain
// resumed from a mid-epoch checkpoint, and PretrainDistributed at
// (world 1, accum 4, in memory) and (world 2, accum 2, sharded). A
// change to the training loop that moves both sides of a parity test
// the same way still fails here.
//
// Bits are pinned for the ISA they were recorded on: the generator's
// fused kernels dispatch through SGCL_TARGET_CLONES (common/simd.h),
// and the AVX2/AVX-512 clones contract into FMA, which rounds
// differently from the baseline clone. Builds that run another clone
// (sanitizers, clang, a CPU below x86-64-v4) compare at a relative
// tolerance instead. On a mismatch the test prints the actual losses
// as literals, ready to paste.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "comms/distributed_test_util.h"
#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

namespace fs = std::filesystem;

using ::sgcl::testing::ClusterConfig;
using ::sgcl::testing::RunCluster;

// Mirrors the SGCL_TARGET_CLONES condition in common/simd.h: true when
// this binary runs the x86-64-v4 clone the goldens were recorded with.
bool RunsRecordedIsa() {
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__) &&         \
    !defined(__SANITIZE_ADDRESS__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v4") != 0;
#else
  return false;
#endif
}

std::string HexLiterals(const std::vector<float>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%af", i == 0 ? "" : ", ",
                  static_cast<double>(values[i]));
    out += buf;
  }
  return out + "}";
}

void ExpectGolden(const std::vector<float>& actual,
                  const std::vector<float>& golden) {
  ASSERT_EQ(actual.size(), golden.size()) << "actual " << HexLiterals(actual);
  if (RunsRecordedIsa()) {
    EXPECT_EQ(actual, golden) << "actual " << HexLiterals(actual);
    return;
  }
  for (size_t e = 0; e < golden.size(); ++e) {
    EXPECT_NEAR(actual[e], golden[e], 1e-3 * std::fabs(golden[e]))
        << "epoch " << e << ", actual " << HexLiterals(actual);
  }
}

std::string TempDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// 26 graphs at batch 4: seven batches per epoch, the last of two.
GraphDataset GoldenDataset() {
  return MakeZincLikeDataset(/*num_graphs=*/26, /*seed=*/33);
}

SgclConfig GoldenConfig() {
  SgclConfig cfg = MakeUnsupervisedConfig(kMoleculeFeatDim);
  cfg.encoder.hidden_dim = 10;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 10;
  cfg.batch_size = 4;
  cfg.epochs = 3;
  return cfg;
}

constexpr uint64_t kSeed = 23;

// Seven shards of up to four graphs: the block-aware shuffle path.
std::string WriteGoldenStore(const GraphDataset& ds,
                             const std::string& name) {
  const std::string dir = TempDir(name);
  ShardWriterOptions opt;
  opt.graphs_per_shard = 4;
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

std::vector<float> ClusterLosses(int world, int accum,
                                 const GraphSource& source) {
  ClusterConfig cc;
  cc.config = GoldenConfig();
  cc.seed = kSeed;
  cc.world = world;
  cc.accum = accum;
  const std::vector<PretrainStats> stats = RunCluster(cc, source);
  EXPECT_EQ(static_cast<int>(stats.size()), world);
  for (size_t rank = 1; rank < stats.size(); ++rank) {
    EXPECT_EQ(stats[rank].epoch_losses, stats[0].epoch_losses)
        << "rank " << rank;
  }
  return stats.empty() ? std::vector<float>() : stats[0].epoch_losses;
}

TEST(GoldenLossTest, PretrainInMemory) {
  GraphDataset ds = GoldenDataset();
  SgclTrainer trainer(GoldenConfig(), kSeed);
  auto stats = trainer.Pretrain(ds);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->total_batches, 21);
  ExpectGolden(stats->epoch_losses,
               {0x1.44def6p+0f, 0x1.b61828p-2f, -0x1.5b9b68p-1f});
}

TEST(GoldenLossTest, PretrainMultiShard) {
  GraphDataset ds = GoldenDataset();
  const std::string dir = WriteGoldenStore(ds, "golden_shards");
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_GT((*store)->num_shards(), 1);
  SgclTrainer trainer(GoldenConfig(), kSeed);
  auto stats = trainer.Pretrain(**store);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectGolden(stats->epoch_losses,
               {0x1.5cf192p+0f, 0x1.0d0fbp-2f, -0x1.c669dp-2f});
  fs::remove_all(dir);
}

// Stopped after ten batches (epoch 1, batch 3) with a checkpoint every
// two batches, so the newest checkpoint is mid-epoch at batch 2 of
// epoch 1; resumed by a trainer with a different ctor seed.
TEST(GoldenLossTest, PretrainResumedMidEpoch) {
  GraphDataset ds = GoldenDataset();
  const std::string ckpt_dir = TempDir("golden_resume_ckpt");
  {
    SgclTrainer trainer(GoldenConfig(), kSeed);
    PretrainOptions options;
    options.checkpoint_dir = ckpt_dir;
    options.checkpoint_every_batches = 2;
    int polls = 0;
    options.should_cancel = [&polls] { return ++polls > 10; };
    auto stats = trainer.Pretrain(ds, {}, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(stats->cancelled);
  }
  const auto latest = FindLatestCheckpoint(ckpt_dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(*latest, MidEpochCheckpointFileName(ckpt_dir, 1, 2));
  SgclTrainer resumed(GoldenConfig(), /*seed=*/kSeed + 1000);
  PretrainOptions options;
  options.resume_from = *latest;
  auto stats = resumed.Pretrain(ds, {}, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->total_batches, 21);
  ExpectGolden(stats->epoch_losses,
               {0x1.44def6p+0f, 0x1.b61828p-2f, -0x1.5b9b68p-1f});
  fs::remove_all(ckpt_dir);
}

TEST(GoldenLossTest, DistributedOneWorkerAccumFourInMemory) {
  GraphDataset ds = GoldenDataset();
  const InMemorySource source(&ds);
  ExpectGolden(ClusterLosses(/*world=*/1, /*accum=*/4, source),
               {0x1.596502p+0f, 0x1.41b354p+0f, 0x1.0fcc14p+0f});
}

TEST(GoldenLossTest, DistributedTwoWorkersAccumTwoSharded) {
  GraphDataset ds = GoldenDataset();
  const std::string dir = WriteGoldenStore(ds, "golden_dist_shards");
  auto store = ShardedGraphStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectGolden(ClusterLosses(/*world=*/2, /*accum=*/2, **store),
               {0x1.644f62p+0f, 0x1.3845bap+0f, 0x1.7f67fep-1f});
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sgcl
