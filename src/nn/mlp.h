// Multi-layer perceptron with ReLU between layers.
#ifndef SGCL_NN_MLP_H_
#define SGCL_NN_MLP_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace sgcl {

class Mlp : public Module {
 public:
  // dims = {in, h1, ..., out}; needs at least 2 entries. ReLU is applied
  // after every layer except the last (and after the last too when
  // `final_activation`).
  Mlp(const std::vector<int64_t>& dims, Rng* rng,
      bool final_activation = false);

  Tensor Forward(const Tensor& x) const;
  // As Forward, with the ReLU after the last layer set by `final_relu`
  // instead of final_activation().
  Tensor Forward(const Tensor& x, bool final_relu) const;

  std::vector<Tensor> Parameters() const override;

  int64_t in_dim() const { return layers_.front()->in_dim(); }
  int64_t out_dim() const { return layers_.back()->out_dim(); }
  size_t num_layers() const { return layers_.size(); }
  const Linear& layer(size_t i) const { return *layers_[i]; }
  bool final_activation() const { return final_activation_; }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  bool final_activation_;
};

}  // namespace sgcl

#endif  // SGCL_NN_MLP_H_
