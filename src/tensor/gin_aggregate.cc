// GinAggregate (tensor/graph_ops.h): the GIN neighbourhood sum as one
// tape node. Compiled with -ffp-contract=off (src/CMakeLists.txt), like
// gemm.cc, so every weighted term is one rounded multiply and one
// rounded add on every ISA clone, as in the GatherRows / MulBroadcastCol /
// ScatterAddRows / MulScalar / Add composition whose bits it keeps.
//
// Order of every sum:
//   forward   out[i] = (1+eps) x[i] + (0 + terms of i's in-edges, edge
//             ids ascending);
//   dx        x.grad[s] += the terms of s's out-edges, edge ids
//             ascending, then += (1+eps) g[s];
//   dw        w.grad[e] += (0 + sum over columns j ascending of
//             g[dst[e], j] x[src[e], j]).
// Rows are partitioned across the shared pool, each row owned by one
// chunk, so results are identical for every thread count.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"
#include "tensor/buffer.h"
#include "tensor/graph_ops.h"

namespace sgcl {
namespace {

using internal::MakeOpOutput;
using IndexBuffer = Buffer<int32_t>;

// Edge ids grouped by key[e] (a node id in [0, n)), ascending within a
// group: group i is edges[offsets[i], offsets[i + 1]).
struct EdgeGroups {
  IndexBuffer offsets;
  IndexBuffer edges;
};

EdgeGroups GroupEdges(const int32_t* key, int64_t e, int64_t n) {
  EdgeGroups g{IndexBuffer(static_cast<size_t>(n + 1), 0),
               IndexBuffer::Uninitialized(static_cast<size_t>(e))};
  for (int64_t r = 0; r < e; ++r) ++g.offsets[key[r] + 1];
  for (int64_t i = 0; i < n; ++i) g.offsets[i + 1] += g.offsets[i];
  IndexBuffer next(g.offsets);
  for (int64_t r = 0; r < e; ++r) {
    g.edges[next[key[r]]++] = static_cast<int32_t>(r);
  }
  return g;
}

int64_t RowGrain(int64_t d, int64_t e, int64_t n) {
  constexpr int64_t kMinFloatsPerChunk = 1 << 14;
  const int64_t per_row = d * (1 + (n > 0 ? e / n : 0));
  return std::max<int64_t>(1, kMinFloatsPerChunk / std::max<int64_t>(1, per_row));
}

// Rows [r0, r1) of the forward. `w` is null for unit weights.
SGCL_TARGET_CLONES
void AggregateRows(const float* x, int64_t d, const EdgeGroups& in,
                   const int32_t* src, const float* w, float self_scale,
                   int64_t r0, int64_t r1, float* out) {
  for (int64_t i = r0; i < r1; ++i) {
    float* orow = out + i * d;
    std::fill(orow, orow + d, 0.0f);
    for (int32_t t = in.offsets[i]; t < in.offsets[i + 1]; ++t) {
      const int32_t e = in.edges[t];
      const float* xrow = x + static_cast<int64_t>(src[e]) * d;
      if (w != nullptr) {
        const float we = w[e];
        for (int64_t j = 0; j < d; ++j) orow[j] += xrow[j] * we;
      } else {
        for (int64_t j = 0; j < d; ++j) orow[j] += xrow[j];
      }
    }
    const float* xi = x + i * d;
    for (int64_t j = 0; j < d; ++j) orow[j] = xi[j] * self_scale + orow[j];
  }
}

// Rows [r0, r1) of dx: the out-edge terms of each row, then its own.
SGCL_TARGET_CLONES
void ScatterGradRows(const float* g, int64_t d, const EdgeGroups& out,
                     const int32_t* dst, const float* w, float self_scale,
                     int64_t r0, int64_t r1, float* dx) {
  for (int64_t s = r0; s < r1; ++s) {
    float* xg = dx + s * d;
    for (int32_t t = out.offsets[s]; t < out.offsets[s + 1]; ++t) {
      const int32_t e = out.edges[t];
      const float* grow = g + static_cast<int64_t>(dst[e]) * d;
      if (w != nullptr) {
        const float we = w[e];
        for (int64_t j = 0; j < d; ++j) xg[j] += grow[j] * we;
      } else {
        for (int64_t j = 0; j < d; ++j) xg[j] += grow[j];
      }
    }
    const float* gs = g + s * d;
    for (int64_t j = 0; j < d; ++j) xg[j] += gs[j] * self_scale;
  }
}

// Edges [e0, e1) of dw.
void WeightGradEdges(const float* g, const float* x, int64_t d,
                     const int32_t* src, const int32_t* dst, int64_t e0,
                     int64_t e1, float* dw) {
  for (int64_t e = e0; e < e1; ++e) {
    const float* grow = g + static_cast<int64_t>(dst[e]) * d;
    const float* xrow = x + static_cast<int64_t>(src[e]) * d;
    float acc = 0.0f;
    for (int64_t j = 0; j < d; ++j) acc += grow[j] * xrow[j];
    dw[e] += acc;
  }
}

}  // namespace

Tensor GinAggregate(const Tensor& x, const std::vector<int32_t>& src,
                    const std::vector<int32_t>& dst, const Tensor& weights,
                    float eps) {
  SGCL_CHECK_EQ(x.dim(), 2);
  const int64_t n = x.rows(), d = x.cols();
  const int64_t e = static_cast<int64_t>(src.size());
  SGCL_CHECK_EQ(e, static_cast<int64_t>(dst.size()));
  for (int64_t r = 0; r < e; ++r) {
    SGCL_CHECK(src[r] >= 0 && src[r] < n && dst[r] >= 0 && dst[r] < n);
  }
  const bool weighted = weights.numel() > 0;
  if (weighted) {
    SGCL_CHECK_EQ(weights.dim(), 2);
    SGCL_CHECK_EQ(weights.cols(), 1);
    SGCL_CHECK_EQ(weights.rows(), e);
  }
  const float self_scale = 1.0f + eps;
  const float* w = weighted ? weights.data() : nullptr;
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(n * d));
  {
    const EdgeGroups in = GroupEdges(dst.data(), e, n);
    ParallelFor(0, n, RowGrain(d, e, n), [&](int64_t r0, int64_t r1) {
      AggregateRows(x.data(), d, in, src.data(), w, self_scale, r0, r1,
                    out.data());
    });
  }
  auto x_impl = x.impl();
  auto w_impl = weighted ? weights.impl() : nullptr;
  std::vector<Tensor> parents = {x};
  if (weighted) parents.push_back(weights);
  const bool on_tape = x.requires_grad() || weights.requires_grad();
  return MakeOpOutput(
      {n, d}, std::move(out), std::move(parents),
      [x_impl, w_impl, src = on_tape ? IndexBuffer(src) : IndexBuffer(),
       dst = on_tape ? IndexBuffer(dst) : IndexBuffer(), n, d, e,
       self_scale](TensorImpl& self) {
        const float* g = self.grad.data();
        const float* w = w_impl != nullptr ? w_impl->data.data() : nullptr;
        if (x_impl->requires_grad) {
          x_impl->EnsureGradAllocated();
          const EdgeGroups out = GroupEdges(src.data(), e, n);
          ParallelFor(0, n, RowGrain(d, e, n), [&](int64_t r0, int64_t r1) {
            ScatterGradRows(g, d, out, dst.data(), w, self_scale, r0, r1,
                            x_impl->grad.data());
          });
        }
        if (w_impl != nullptr && w_impl->requires_grad) {
          w_impl->EnsureGradAllocated();
          ParallelFor(0, e, RowGrain(d, 0, 1), [&](int64_t e0, int64_t e1) {
            WeightGradEdges(g, x_impl->data.data(), d, src.data(), dst.data(),
                            e0, e1, w_impl->grad.data());
          });
        }
      });
}

}  // namespace sgcl
