#include "eval/grid_search.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace sgcl {
namespace {

// Evaluates `config` if unseen, tracking the best seen so far.
void Consider(const SgclConfig& config, const std::string& description,
              const std::function<double(const SgclConfig&)>& evaluate,
              GridSearchResult* result) {
  const double score = evaluate(config);
  result->trials.emplace_back(description, score);
  SGCL_LOG(DEBUG) << "grid " << description << " -> " << score;
  if (score > result->best_score || result->trials.size() == 1) {
    result->best_score = score;
    result->best_config = config;
  }
}

}  // namespace

GridSearchResult GridSearchSgcl(
    const SgclConfig& base, const GridSearchSpace& space,
    const std::function<double(const SgclConfig&)>& evaluate) {
  SGCL_CHECK(evaluate != nullptr);
  GridSearchResult result;
  result.best_config = base;
  Consider(base, "base", evaluate, &result);

  // Coordinate descent: sweep each axis with the others at current best.
  for (float v : space.lambda_c) {
    SgclConfig cfg = result.best_config;
    if (v == cfg.lambda_c) continue;
    cfg.lambda_c = v;
    Consider(cfg, StrFormat("lambda_c=%g", v), evaluate, &result);
  }
  for (float v : space.lambda_w) {
    SgclConfig cfg = result.best_config;
    if (v == cfg.lambda_w) continue;
    cfg.lambda_w = v;
    Consider(cfg, StrFormat("lambda_W=%g", v), evaluate, &result);
  }
  for (double v : space.rho) {
    SgclConfig cfg = result.best_config;
    if (v == cfg.rho) continue;
    cfg.rho = v;
    Consider(cfg, StrFormat("rho=%g", v), evaluate, &result);
  }
  for (float v : space.tau) {
    SgclConfig cfg = result.best_config;
    if (v == cfg.tau) continue;
    cfg.tau = v;
    Consider(cfg, StrFormat("tau=%g", v), evaluate, &result);
  }
  return result;
}

std::function<double(const SgclConfig&)> MakeUnsupervisedGridEvaluator(
    const GraphDataset* dataset, int num_seeds, int cv_folds,
    uint64_t base_seed) {
  SGCL_CHECK(dataset != nullptr);
  return [dataset, num_seeds, cv_folds, base_seed](const SgclConfig& config) {
    UnsupervisedProtocolOptions proto;
    proto.num_seeds = num_seeds;
    proto.cv_folds = cv_folds;
    proto.base_seed = base_seed;
    MeanStd acc = RunUnsupervisedProtocol(
        [&](uint64_t seed) {
          return std::make_unique<SgclTrainer>(config, seed);
        },
        *dataset, proto);
    return acc.mean;
  };
}

}  // namespace sgcl
