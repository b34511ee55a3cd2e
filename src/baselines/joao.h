// JOAOv2-style baseline (You et al., ICML'21): GraphCL with a learned
// sampling distribution over augmentation pairs, updated between epochs
// toward the pairs that currently yield the largest contrastive loss
// (the min-max objective's outer step). This is a faithful-in-spirit,
// simplified re-implementation; see DESIGN.md.
#ifndef SGCL_BASELINES_JOAO_H_
#define SGCL_BASELINES_JOAO_H_

#include <vector>

#include "baselines/graphcl.h"

namespace sgcl {

class JoaoBaseline : public GraphClBaseline {
 public:
  explicit JoaoBaseline(const BaselineConfig& config);

  const std::vector<double>& aug_weights() const { return weights_; }

 protected:
  Tensor BatchLoss(const std::vector<const Graph*>& graphs,
                   Rng* rng) override;
  void OnEpochEnd(int epoch) override;
  // The sampling weights and running losses are not in a checkpoint.
  Status CheckpointSupport() const override {
    return Status::FailedPrecondition(
        "JOAOv2 cannot checkpoint its augmentation sampling weights");
  }

 private:
  std::vector<GraphAug> pool_;
  std::vector<double> weights_;       // sampling distribution over pool_
  std::vector<double> epoch_loss_;    // accumulated loss per augmentation
  std::vector<int64_t> epoch_count_;
};

}  // namespace sgcl

#endif  // SGCL_BASELINES_JOAO_H_
