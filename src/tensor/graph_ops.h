// Differentiable gather / scatter / segment ops used by GNN layers.
//
// Message passing over a batched edge list is expressed as
//   messages = GatherRows(X, src);            // per-edge source features
//   aggregated = ScatterAddRows(messages, dst, num_nodes);
// except for GIN, whose whole aggregation is the one node GinAggregate,
// and graph-level pooling as SegmentSum/Mean/Max over node->graph ids.
#ifndef SGCL_TENSOR_GRAPH_OPS_H_
#define SGCL_TENSOR_GRAPH_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sgcl {

// The GIN aggregation (1 + eps) x_i + sum over edges e with dst[e] == i
// of w_e x_src[e]; x [n,d], src/dst [E] with values in [0,n), weights
// [E,1] or empty for unit weights -> [n,d]. One tape node with parents
// {x, weights}, the bits of
//   Add(MulScalar(x, 1 + eps),
//       ScatterAddRows(MulBroadcastCol(GatherRows(x, src), weights), dst))
// forward and backward, with no [E,d] intermediate. Defined in
// tensor/gin_aggregate.cc, which states the order of every sum.
Tensor GinAggregate(const Tensor& x, const std::vector<int32_t>& src,
                    const std::vector<int32_t>& dst, const Tensor& weights,
                    float eps);

// out[e] = x[index[e]]; x [n,d], index values in [0,n) -> [E,d].
Tensor GatherRows(const Tensor& x, const std::vector<int32_t>& index);

// out[index[e]] += x[e]; x [E,d] -> [num_rows,d].
Tensor ScatterAddRows(const Tensor& x, const std::vector<int32_t>& index,
                      int64_t num_rows);

// Per-segment sum: x [n,d], segment_ids values in [0,num_segments)
// -> [num_segments,d]. Identical math to ScatterAddRows; named alias for
// pooling call sites.
Tensor SegmentSum(const Tensor& x, const std::vector<int32_t>& segment_ids,
                  int64_t num_segments);

// Per-segment arithmetic mean. Empty segments yield zero rows.
Tensor SegmentMean(const Tensor& x, const std::vector<int32_t>& segment_ids,
                   int64_t num_segments);

// Per-segment max with argmax backward. Empty segments yield zero rows.
Tensor SegmentMax(const Tensor& x, const std::vector<int32_t>& segment_ids,
                  int64_t num_segments);

// Softmax of scores [E,1] within each segment (used for GAT edge attention
// and the Lipschitz generator's attention weights). Empty segments are fine.
Tensor SegmentSoftmax(const Tensor& scores,
                      const std::vector<int32_t>& segment_ids,
                      int64_t num_segments);

}  // namespace sgcl

#endif  // SGCL_TENSOR_GRAPH_OPS_H_
