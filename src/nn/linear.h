// Fully-connected layer: y = xW (+ b), optionally followed by a ReLU, as
// one Affine tape node (tensor/ops.h).
#ifndef SGCL_NN_LINEAR_H_
#define SGCL_NN_LINEAR_H_

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace sgcl {

class Linear : public Module {
 public:
  Linear(int64_t in_dim, int64_t out_dim, Rng* rng, bool use_bias = true);

  // x [n, in_dim] -> [n, out_dim]; with `relu`, ReLU(xW + b).
  Tensor Forward(const Tensor& x, bool relu = false) const;

  std::vector<Tensor> Parameters() const override;

  int64_t in_dim() const { return weight_.rows(); }
  int64_t out_dim() const { return weight_.cols(); }
  const Tensor& weight() const { return weight_; }
  // Empty (rank-0) tensor when constructed with use_bias = false.
  const Tensor& bias() const { return bias_; }
  bool use_bias() const { return use_bias_; }

 private:
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [1, out]; unset when !use_bias_
  bool use_bias_;
};

}  // namespace sgcl

#endif  // SGCL_NN_LINEAR_H_
