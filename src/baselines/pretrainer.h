// The shared base of every baseline pretrainer: its config, encoder and
// fingerprint. Baselines train through the one loop, Pretrainer::Pretrain
// (core/sgcl_trainer.h), like SGCL.
#ifndef SGCL_BASELINES_PRETRAINER_H_
#define SGCL_BASELINES_PRETRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/sgcl_trainer.h"
#include "nn/encoder.h"

namespace sgcl {

struct BaselineConfig {
  EncoderConfig encoder;
  float tau = 0.2f;
  float learning_rate = 1e-3f;
  int epochs = 40;
  int batch_size = 128;
  float grad_clip = 5.0f;
  // Generic augmentation strength (node-drop / edge-perturb / mask ratio).
  float aug_ratio = 0.2f;
  uint64_t seed = 0;
};

// Subclasses provide the per-batch loss. Parameters returned by
// TrainableParameters() (the encoder's by default) are optimized with
// Adam.
class GclPretrainerBase : public Pretrainer {
 public:
  GclPretrainerBase(const BaselineConfig& config, std::string name);

  Tensor EmbedGraphs(const std::vector<const Graph*>& graphs) const override;
  GnnEncoder* mutable_encoder() override { return encoder_.get(); }
  std::string name() const override { return name_; }

 protected:
  std::vector<Tensor> TrainableParameters() const override;
  // Every BaselineConfig field but the seed, plus name(). Like SGCL's,
  // it leaves the seed out: a resumed run restores the parameters and
  // rng_, so the ctor seed no longer matters.
  uint64_t Fingerprint() const override;

  BaselineConfig config_;
  std::unique_ptr<GnnEncoder> encoder_;

 private:
  std::string name_;
};

// Control that performs no pretraining ("No Pre-Train" rows): zero
// epochs, so Pretrain only validates its input.
class NoPretrain : public GclPretrainerBase {
 public:
  NoPretrain(const BaselineConfig& config, uint64_t seed);

 protected:
  // Never called: the loop runs zero epochs.
  Tensor BatchLoss(const std::vector<const Graph*>& /*graphs*/,
                   Rng* /*rng*/) override {
    SGCL_CHECK(false);
    return Tensor();
  }
};

}  // namespace sgcl

#endif  // SGCL_BASELINES_PRETRAINER_H_
