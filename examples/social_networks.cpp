// Unsupervised learning on social graphs: SGCL vs GraphCL (random node
// dropping) on an IMDB-B-like dataset, evaluated with the paper's
// SVM protocol. Demonstrates the benefit of semantic-aware augmentation
// when class-determining structure (the planted community pattern) must
// survive augmentation.
//
//   ./social_networks [seed]
#include <cstdio>
#include <cstdlib>

#include "baselines/graphcl.h"
#include "baselines/pretrainer.h"
#include "core/sgcl_model.h"
#include "data/synthetic_tu.h"
#include "eval/evaluator.h"

using namespace sgcl;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 21;

  SyntheticTuOptions data_opt;
  data_opt.graph_fraction = 0.08;  // ~80 graphs
  data_opt.node_cap = 25;
  data_opt.seed = seed;
  GraphDataset imdb = MakeTuDataset(TuDataset::kImdbB, data_opt);
  DatasetStats stats = imdb.Stats();
  std::printf("dataset %s: %lld graphs, %.1f avg nodes, %.1f avg edges\n",
              imdb.name().c_str(), static_cast<long long>(stats.num_graphs),
              stats.avg_nodes, stats.avg_edges);

  UnsupervisedProtocolOptions proto;
  proto.num_seeds = 2;
  proto.cv_folds = 5;
  proto.base_seed = seed;

  auto make_sgcl = [&](uint64_t s) -> std::unique_ptr<Pretrainer> {
    SgclConfig cfg = MakeUnsupervisedConfig(imdb.feat_dim());
    cfg.encoder.hidden_dim = 32;
    cfg.epochs = 10;
    cfg.batch_size = 16;
    return std::make_unique<SgclTrainer>(cfg, s);
  };
  auto make_graphcl = [&](uint64_t s) -> std::unique_ptr<Pretrainer> {
    BaselineConfig cfg;
    cfg.encoder.arch = GnnArch::kGin;
    cfg.encoder.in_dim = imdb.feat_dim();
    cfg.encoder.hidden_dim = 32;
    cfg.encoder.num_layers = 3;
    cfg.epochs = 10;
    cfg.batch_size = 16;
    cfg.seed = s;
    return std::make_unique<GraphClBaseline>(cfg);
  };

  std::printf("running SGCL...\n");
  const InMemorySource source(&imdb);
  MeanStd sgcl_acc = RunUnsupervisedProtocol(make_sgcl, source, proto);
  std::printf("running GraphCL...\n");
  MeanStd graphcl_acc = RunUnsupervisedProtocol(make_graphcl, source, proto);

  std::printf("SVM accuracy (mean over %d seeds):\n", proto.num_seeds);
  std::printf("  SGCL    : %.2f%% ± %.2f%%\n", 100 * sgcl_acc.mean,
              100 * sgcl_acc.std);
  std::printf("  GraphCL : %.2f%% ± %.2f%%\n", 100 * graphcl_acc.mean,
              100 * graphcl_acc.std);
  return 0;
}
