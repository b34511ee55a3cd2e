// Cross-validation, fine-tuning, the end-to-end unsupervised protocol,
// and the result-table printer.
#include <cmath>
#include <memory>

#include "baselines/graph_kernels.h"
#include "baselines/pretrainer.h"
#include "core/sgcl_model.h"
#include "data/synthetic_molecule.h"
#include "data/synthetic_tu.h"
#include "eval/cross_validation.h"
#include "eval/evaluator.h"
#include "eval/finetune.h"
#include "eval/table.h"
#include "graph/splits.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

GraphDataset SmallDataset(uint64_t seed = 202) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.15;
  opt.node_cap = 15;
  opt.seed = seed;
  return MakeTuDataset(TuDataset::kMutag, opt);
}

TEST(SvmCrossValidateTest, SeparableEmbeddingsScoreHigh) {
  // Embeddings = label-determined clusters.
  Rng rng(1);
  const int n = 60;
  std::vector<float> emb;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const int y = i % 2;
    emb.push_back(static_cast<float>(rng.Normal(y * 5.0, 0.5)));
    emb.push_back(static_cast<float>(rng.Normal(-y * 5.0, 0.5)));
    labels.push_back(y);
  }
  MeanStd result = SvmCrossValidate(emb, n, 2, labels, 2, 5, &rng);
  EXPECT_GT(result.mean, 0.9);
  EXPECT_GE(result.std, 0.0);
}

TEST(SvmCrossValidateTest, RandomEmbeddingsScoreNearChance) {
  Rng rng(2);
  const int n = 80;
  std::vector<float> emb;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    emb.push_back(static_cast<float>(rng.Normal()));
    emb.push_back(static_cast<float>(rng.Normal()));
    labels.push_back(i % 2);
  }
  MeanStd result = SvmCrossValidate(emb, n, 2, labels, 2, 5, &rng);
  EXPECT_LT(result.mean, 0.75);
}

TEST(KernelCrossValidateTest, WlKernelBeatsChanceOnPlantedMotifs) {
  GraphDataset ds = SmallDataset();
  std::vector<const Graph*> graphs;
  for (int64_t i = 0; i < ds.size(); ++i) graphs.push_back(&ds.graph(i));
  GraphKernel wl(KernelKind::kWlSubtree);
  std::vector<double> gram = wl.GramMatrix(graphs);
  Rng rng(3);
  MeanStd result = KernelSvmCrossValidate(gram, ds.size(), ds.Labels().value(),
                                          ds.num_classes(), 5, &rng);
  EXPECT_GT(result.mean, 0.55);
}

TEST(FinetuneTest, AccuracyImprovesOverChance) {
  SyntheticTuOptions dopt;
  dopt.graph_fraction = 0.4;  // ~75 graphs
  dopt.node_cap = 15;
  dopt.seed = 404;
  GraphDataset ds = MakeTuDataset(TuDataset::kMutag, dopt);
  Rng rng(4);
  EncoderConfig cfg;
  cfg.arch = GnnArch::kGin;
  cfg.in_dim = ds.feat_dim();
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  GnnEncoder encoder(cfg, &rng);
  HoldoutSplit split = TrainTestSplit(ds.size(), 0.3, &rng);
  FinetuneConfig ft;
  ft.epochs = 40;
  const double acc = FinetuneAndEvalAccuracy(&encoder, ds, split.train,
                                             split.test, ft, &rng);
  EXPECT_GT(acc, 0.55);
}

TEST(FinetuneTest, RocAucOnMultiTask) {
  MolDatasetOptions opt;
  opt.graph_fraction = 0.05;
  opt.max_graphs = 120;
  opt.seed = 5;
  GraphDataset ds = MakeMolTaskDataset(MolTask::kTox21, opt);
  Rng rng(6);
  EncoderConfig cfg;
  cfg.arch = GnnArch::kGin;
  cfg.in_dim = ds.feat_dim();
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  GnnEncoder encoder(cfg, &rng);
  ThreeWaySplit split = ScaffoldSplit(ds, 0.7, 0.1);
  FinetuneConfig ft;
  ft.epochs = 10;
  const double auc = FinetuneAndEvalRocAuc(&encoder, ds, split.train,
                                           split.test, ft, &rng);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
  EXPECT_GT(auc, 0.45);  // should not be anti-predictive
}

TEST(UnsupervisedProtocolTest, RunsEndToEndWithSgcl) {
  GraphDataset ds = SmallDataset(505);
  UnsupervisedProtocolOptions opt;
  opt.num_seeds = 1;
  opt.cv_folds = 3;
  MeanStd result = RunUnsupervisedProtocol(
      [&](uint64_t seed) -> std::unique_ptr<Pretrainer> {
        SgclConfig cfg = MakeUnsupervisedConfig(ds.feat_dim());
        cfg.encoder.hidden_dim = 16;
        cfg.encoder.num_layers = 2;
        cfg.proj_dim = 16;
        cfg.epochs = 2;
        cfg.batch_size = 8;
        return std::make_unique<SgclTrainer>(cfg, seed);
      },
      ds, opt);
  EXPECT_GT(result.mean, 0.3);
  EXPECT_LE(result.mean, 1.0);
}

TEST(ResultTableTest, FormatsWithRanksAndMissing) {
  ResultTable table({"A", "B"});
  table.AddRow("M1", {MeanStd{90.0, 1.0}, MeanStd{80.0, 2.0}});
  table.AddRow("M2", {MeanStd{85.0, 1.5}, std::nullopt});
  std::string s = table.ToString();
  EXPECT_NE(s.find("M1"), std::string::npos);
  EXPECT_NE(s.find("90.00±1.00*"), std::string::npos);  // best marker
  EXPECT_NE(s.find("-"), std::string::npos);            // missing cell
  EXPECT_NE(s.find("A.R."), std::string::npos);
  // M1 wins everything -> rank 1.0.
  EXPECT_NE(s.find("1.0"), std::string::npos);
}

TEST(ResultTableTest, NoRanksMode) {
  ResultTable table({"X"});
  table.AddRow("M", {MeanStd{1.0, 0.1}});
  std::string s = table.ToString(/*with_ranks=*/false);
  EXPECT_EQ(s.find("A.R."), std::string::npos);
}

}  // namespace
}  // namespace sgcl
