// AD-GCL baseline (Suresh et al., NeurIPS'21): adversarial graph
// augmentation via a learnable edge dropper. The augmenter predicts a
// keep weight per edge; the encoder minimizes the contrastive loss while
// the augmenter maximizes it (with a retention regularizer preventing the
// degenerate drop-everything solution). Edge weights multiply messages in
// the GIN view encoder, so the augmenter trains by gradient.
#ifndef SGCL_BASELINES_ADGCL_H_
#define SGCL_BASELINES_ADGCL_H_

#include <memory>

#include "baselines/pretrainer.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace sgcl {

class AdGclBaseline : public GclPretrainerBase {
 public:
  // `retention_weight` scales the regularizer rewarding kept edges.
  AdGclBaseline(const BaselineConfig& config, float retention_weight = 0.5f);

  std::vector<Tensor> TrainableParameters() const override;

 protected:
  Tensor BatchLoss(const std::vector<const Graph*>& graphs,
                   Rng* rng) override;
  // The augmenter and its own Adam are not in a checkpoint.
  Status CheckpointSupport() const override {
    return Status::FailedPrecondition(
        "AD-GCL cannot checkpoint its augmenter and the augmenter's Adam");
  }

 private:
  // Per-edge keep weights in (0,1) from the augmenter tower (on tape).
  Tensor EdgeKeepWeights(const GraphBatch& batch) const;

  float retention_weight_;
  std::unique_ptr<GnnEncoder> augmenter_gnn_;
  std::unique_ptr<Linear> edge_head_;  // [2*hidden] -> 1
  std::unique_ptr<Mlp> projection_;
  std::unique_ptr<Adam> augmenter_optimizer_;
};

}  // namespace sgcl

#endif  // SGCL_BASELINES_ADGCL_H_
