#include "nn/gin_conv.h"

#include "tensor/graph_ops.h"

namespace sgcl {

GinConv::GinConv(int64_t in_dim, int64_t out_dim, Rng* rng, float eps)
    : mlp_(std::make_unique<Mlp>(std::vector<int64_t>{in_dim, out_dim, out_dim},
                                 rng)),
      eps_(eps) {}

namespace {

Tensor Aggregate(const Tensor& x, const GraphBatch& batch, float eps) {
  SGCL_CHECK_EQ(x.rows(), batch.num_nodes);
  return GinAggregate(x, batch.edge_src, batch.edge_dst, batch.edge_weights,
                      eps);
}

}  // namespace

Tensor GinConv::Forward(const Tensor& x, const GraphBatch& batch) const {
  return mlp_->Forward(Aggregate(x, batch, eps_));
}

Tensor GinConv::ForwardRelu(const Tensor& x, const GraphBatch& batch) const {
  return mlp_->Forward(Aggregate(x, batch, eps_), /*final_relu=*/true);
}

std::vector<Tensor> GinConv::Parameters() const { return mlp_->Parameters(); }

}  // namespace sgcl
