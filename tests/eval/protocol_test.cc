// Protocol drivers: transfer, kernel and semi-supervised-style runs
// through the public evaluator APIs.
#include <memory>

#include "baselines/graph_kernels.h"
#include "data/synthetic_molecule.h"
#include "data/synthetic_tu.h"
#include "eval/evaluator.h"
#include "graph/splits.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

TEST(TransferProtocolTest, RunsAndAggregatesSeeds) {
  MolDatasetOptions opt;
  opt.graph_fraction = 0.04;
  opt.max_graphs = 90;
  opt.seed = 61;
  GraphDataset bbbp = MakeMolTaskDataset(MolTask::kBbbp, opt);
  TransferProtocolOptions proto;
  proto.num_seeds = 2;
  proto.finetune.epochs = 4;
  proto.finetune.batch_size = 16;
  int factory_calls = 0;
  MeanStd result = RunTransferProtocol(
      [&](uint64_t seed) {
        ++factory_calls;
        Rng rng(seed);
        EncoderConfig cfg;
        cfg.arch = GnnArch::kGin;
        cfg.in_dim = bbbp.feat_dim();
        cfg.hidden_dim = 8;
        cfg.num_layers = 2;
        return std::make_unique<GnnEncoder>(cfg, &rng);
      },
      bbbp, proto);
  EXPECT_EQ(factory_calls, 2);
  EXPECT_GE(result.mean, 0.0);
  EXPECT_LE(result.mean, 1.0);
}

TEST(KernelProtocolTest, AggregatesFoldSeeds) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.1;
  opt.node_cap = 12;
  opt.seed = 62;
  GraphDataset ds = MakeTuDataset(TuDataset::kMutag, opt);
  std::vector<const Graph*> graphs;
  for (int64_t i = 0; i < ds.size(); ++i) graphs.push_back(&ds.graph(i));
  GraphKernel wl(KernelKind::kWlSubtree);
  std::vector<double> gram = wl.GramMatrix(graphs);
  UnsupervisedProtocolOptions proto;
  proto.num_seeds = 2;
  proto.cv_folds = 3;
  MeanStd result = RunKernelProtocol(gram, InMemorySource(&ds), proto);
  EXPECT_GT(result.mean, 0.4);
  EXPECT_LE(result.mean, 1.0);
}

TEST(SemiSupervisedStyleTest, MoreLabelsNeverMuchWorse) {
  // Fine-tuning with 60% of labels should not be dramatically worse than
  // with 15% (monotonicity up to noise) — the Table VI sanity direction.
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.4;
  opt.node_cap = 15;
  opt.seed = 63;
  GraphDataset ds = MakeTuDataset(TuDataset::kMutag, opt);
  Rng rng(64);
  HoldoutSplit holdout = TrainTestSplit(ds.size(), 0.25, &rng);
  std::vector<int> train_labels;
  for (int64_t i : holdout.train) train_labels.push_back(ds.graph(i).label());
  FinetuneConfig ft;
  ft.epochs = 20;
  double acc_low = 0.0, acc_high = 0.0;
  for (double rate : {0.15, 0.6}) {
    Rng seed_rng(65);
    std::vector<int64_t> subset_local =
        LabelRateSubset(train_labels, rate, &seed_rng);
    std::vector<int64_t> train;
    for (int64_t j : subset_local) train.push_back(holdout.train[j]);
    Rng ft_rng(66);
    EncoderConfig cfg;
    cfg.arch = GnnArch::kGin;
    cfg.in_dim = ds.feat_dim();
    cfg.hidden_dim = 16;
    cfg.num_layers = 2;
    GnnEncoder encoder(cfg, &ft_rng);
    const double acc = FinetuneAndEvalAccuracy(&encoder, ds, train,
                                               holdout.test, ft, &ft_rng);
    if (rate < 0.5) {
      acc_low = acc;
    } else {
      acc_high = acc;
    }
  }
  EXPECT_GT(acc_high, acc_low - 0.15);
}

}  // namespace
}  // namespace sgcl
