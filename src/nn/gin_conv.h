// Graph Isomorphism Network layer (Xu et al., ICLR'19), GIN-0 variant:
//   h_i' = MLP((1 + eps) h_i + sum_{j in N(i)} h_j),   eps = 0.
// On the tape: one GinAggregate node and one Affine node per MLP layer,
// the encoder's ReLU folded into the last (ForwardRelu).
#ifndef SGCL_NN_GIN_CONV_H_
#define SGCL_NN_GIN_CONV_H_

#include <memory>

#include "common/rng.h"
#include "nn/graph_conv.h"
#include "nn/mlp.h"

namespace sgcl {

class GinConv : public GraphConv {
 public:
  GinConv(int64_t in_dim, int64_t out_dim, Rng* rng, float eps = 0.0f);

  Tensor Forward(const Tensor& x, const GraphBatch& batch) const override;
  Tensor ForwardRelu(const Tensor& x, const GraphBatch& batch) const override;
  std::vector<Tensor> Parameters() const override;

  const Mlp& mlp() const { return *mlp_; }
  float eps() const { return eps_; }

 private:
  std::unique_ptr<Mlp> mlp_;  // {in, out, out}
  float eps_;
};

}  // namespace sgcl

#endif  // SGCL_NN_GIN_CONV_H_
