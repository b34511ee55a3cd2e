#include "baselines/pretrainer.h"

#include "common/io.h"

namespace sgcl {
namespace {

BaselineConfig WithoutTraining(BaselineConfig config, uint64_t seed) {
  config.seed = seed;
  config.epochs = 0;
  return config;
}

}  // namespace

GclPretrainerBase::GclPretrainerBase(const BaselineConfig& config,
                                     std::string name)
    : Pretrainer(config.seed, {config.epochs, config.batch_size,
                               config.learning_rate, config.grad_clip}),
      config_(config),
      name_(std::move(name)) {
  encoder_ = std::make_unique<GnnEncoder>(config_.encoder, &rng_);
}

std::vector<Tensor> GclPretrainerBase::TrainableParameters() const {
  return encoder_->Parameters();
}

Tensor GclPretrainerBase::EmbedGraphs(
    const std::vector<const Graph*>& graphs) const {
  GraphBatch batch = GraphBatch::FromGraphPtrs(graphs);
  return encoder_->EncodeGraphs(batch).Detach();
}

uint64_t GclPretrainerBase::Fingerprint() const {
  BufferWriter writer;
  writer.WriteString(name_);
  writer.WriteU32(static_cast<uint32_t>(config_.encoder.arch));
  writer.WriteI64(config_.encoder.in_dim);
  writer.WriteI64(config_.encoder.hidden_dim);
  writer.WriteI64(config_.encoder.num_layers);
  writer.WriteU32(static_cast<uint32_t>(config_.encoder.pooling));
  writer.WriteI64(config_.encoder.gat_heads);
  writer.WriteU32(config_.encoder.use_layer_norm ? 1u : 0u);
  writer.WriteF32(config_.tau);
  writer.WriteF32(config_.learning_rate);
  writer.WriteI64(config_.epochs);
  writer.WriteI64(config_.batch_size);
  writer.WriteF32(config_.grad_clip);
  writer.WriteF32(config_.aug_ratio);
  return Fnv1a(writer.bytes());
}

NoPretrain::NoPretrain(const BaselineConfig& config, uint64_t seed)
    : GclPretrainerBase(WithoutTraining(config, seed), "No Pre-Train") {}

}  // namespace sgcl
