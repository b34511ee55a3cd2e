// Design-choice ablations beyond the paper's Table V (DESIGN.md §2):
//  * exact vs. attention-approximate Lipschitz generator — downstream
//    accuracy and agreement between the two scoring modes;
//  * pooling choice (sum / mean / max) for the SGCL encoder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "eval/evaluator.h"

using namespace sgcl;
using namespace sgcl::bench;

namespace {

double Pearson(const std::vector<float>& a, const std::vector<float>& b) {
  const double n = static_cast<double>(a.size());
  double ma = std::accumulate(a.begin(), a.end(), 0.0) / n;
  double mb = std::accumulate(b.begin(), b.end(), 0.0) / n;
  double num = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  return num / std::max(std::sqrt(va * vb), 1e-12);
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  std::string only;
  BenchScale scale = ParseArgs(argc, argv, &only);
  Stopwatch total;

  GraphDataset mutag = MakeTu(TuDataset::kMutag, scale, /*seed=*/600);
  UnsupervisedProtocolOptions proto;
  proto.num_seeds = scale.seeds;
  proto.cv_folds = scale.cv_folds;

  // --- Exact vs. approximate generator: downstream accuracy. ---
  if (Selected("generator", only)) {
    std::printf("Generator mode ablation (MUTAG accuracy %%):\n");
    for (LipschitzMode mode :
         {LipschitzMode::kExact, LipschitzMode::kAttentionApprox}) {
      MeanStd acc = RunUnsupervisedProtocol(
          [&](uint64_t seed) -> std::unique_ptr<Pretrainer> {
            SgclConfig cfg = ScaledSgclConfig(mutag.feat_dim(), scale);
            cfg.lipschitz_mode = mode;
            return std::make_unique<SgclTrainer>(cfg, seed);
          },
          InMemorySource(&mutag), proto);
      std::printf("  %-18s %.2f ± %.2f\n",
                  mode == LipschitzMode::kExact ? "exact" : "attention-approx",
                  100.0 * acc.mean, 100.0 * acc.std);
    }
    // Score agreement on a trained model.
    SgclConfig cfg = ScaledSgclConfig(mutag.feat_dim(), scale);
    SgclTrainer trainer(cfg, 1);
    const auto pretrain = trainer.Pretrain(mutag);
    SGCL_CHECK(pretrain.ok());
    LipschitzGenerator exact(&trainer.model().encoder_q(),
                             LipschitzMode::kExact);
    LipschitzGenerator approx(&trainer.model().encoder_q(),
                              LipschitzMode::kAttentionApprox);
    std::vector<float> ke, ka;
    for (int i = 0; i < std::min<int64_t>(15, mutag.size()); ++i) {
      auto e = exact.ComputeConstants(mutag.graph(i));
      auto a = approx.ComputeConstants(mutag.graph(i));
      ke.insert(ke.end(), e.begin(), e.end());
      ka.insert(ka.end(), a.begin(), a.end());
    }
    std::printf("  exact/approx score correlation: %.3f\n\n", Pearson(ke, ka));
  }

  // --- Pooling choice. ---
  if (Selected("pooling", only)) {
    std::printf("Pooling ablation (MUTAG accuracy %%):\n");
    for (PoolingKind pooling :
         {PoolingKind::kSum, PoolingKind::kMean, PoolingKind::kMax}) {
      MeanStd acc = RunUnsupervisedProtocol(
          [&](uint64_t seed) -> std::unique_ptr<Pretrainer> {
            SgclConfig cfg = ScaledSgclConfig(mutag.feat_dim(), scale);
            cfg.encoder.pooling = pooling;
            return std::make_unique<SgclTrainer>(cfg, seed);
          },
          InMemorySource(&mutag), proto);
      std::printf("  %-5s %.2f ± %.2f\n", PoolingKindToString(pooling),
                  100.0 * acc.mean, 100.0 * acc.std);
    }
  }

  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
