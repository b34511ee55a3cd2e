#include "nn/linear.h"

#include "tensor/init.h"
#include "tensor/ops.h"

namespace sgcl {

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng* rng, bool use_bias)
    : weight_(XavierUniform(in_dim, out_dim, rng)), use_bias_(use_bias) {
  if (use_bias_) bias_ = ZerosParam(1, out_dim);
}

Tensor Linear::Forward(const Tensor& x, bool relu) const {
  return Affine(x, weight_, bias_, relu);
}

std::vector<Tensor> Linear::Parameters() const {
  if (use_bias_) return {weight_, bias_};
  return {weight_};
}

}  // namespace sgcl
