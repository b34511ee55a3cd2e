#include "nn/mlp.h"

namespace sgcl {

Mlp::Mlp(const std::vector<int64_t>& dims, Rng* rng, bool final_activation)
    : final_activation_(final_activation) {
  SGCL_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  return Forward(x, final_activation_);
}

Tensor Mlp::Forward(const Tensor& x, bool final_relu) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h, i + 1 < layers_.size() || final_relu);
  }
  return h;
}

std::vector<Tensor> Mlp::Parameters() const {
  std::vector<Tensor> params;
  for (const auto& layer : layers_) {
    auto p = layer->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

}  // namespace sgcl
