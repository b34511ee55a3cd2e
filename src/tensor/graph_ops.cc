#include "tensor/graph_ops.h"

#include <algorithm>
#include <cmath>

namespace sgcl {
namespace {

using internal::MakeOpOutput;

void CheckIndexRange(const std::vector<int32_t>& index, int64_t limit) {
  for (int32_t i : index) {
    SGCL_CHECK(i >= 0 && i < limit);
  }
}

}  // namespace

Tensor GatherRows(const Tensor& x, const std::vector<int32_t>& index) {
  SGCL_CHECK_EQ(x.dim(), 2);
  const int64_t n = x.rows(), d = x.cols();
  const int64_t e = static_cast<int64_t>(index.size());
  CheckIndexRange(index, n);
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(e * d));
  for (int64_t r = 0; r < e; ++r) {
    const float* src = x.data() + static_cast<int64_t>(index[r]) * d;
    std::copy(src, src + d, out.data() + r * d);
  }
  auto x_impl = x.impl();
  return MakeOpOutput(
      {e, d}, std::move(out), {x},
      [x_impl, index, e, d](TensorImpl& self) {
        if (!x_impl->requires_grad) return;
        x_impl->EnsureGradAllocated();
        for (int64_t r = 0; r < e; ++r) {
          float* dst = x_impl->grad.data() + static_cast<int64_t>(index[r]) * d;
          const float* g = self.grad.data() + r * d;
          for (int64_t j = 0; j < d; ++j) dst[j] += g[j];
        }
      });
}

Tensor ScatterAddRows(const Tensor& x, const std::vector<int32_t>& index,
                      int64_t num_rows) {
  SGCL_CHECK_EQ(x.dim(), 2);
  const int64_t e = x.rows(), d = x.cols();
  SGCL_CHECK_EQ(e, static_cast<int64_t>(index.size()));
  CheckIndexRange(index, num_rows);
  FloatBuffer out(static_cast<size_t>(num_rows * d), 0.0f);
  for (int64_t r = 0; r < e; ++r) {
    float* dst = out.data() + static_cast<int64_t>(index[r]) * d;
    const float* src = x.data() + r * d;
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
  auto x_impl = x.impl();
  return MakeOpOutput(
      {num_rows, d}, std::move(out), {x},
      [x_impl, index, e, d](TensorImpl& self) {
        if (!x_impl->requires_grad) return;
        x_impl->EnsureGradAllocated();
        for (int64_t r = 0; r < e; ++r) {
          const float* g =
              self.grad.data() + static_cast<int64_t>(index[r]) * d;
          float* dst = x_impl->grad.data() + r * d;
          for (int64_t j = 0; j < d; ++j) dst[j] += g[j];
        }
      });
}

Tensor SegmentSum(const Tensor& x, const std::vector<int32_t>& segment_ids,
                  int64_t num_segments) {
  return ScatterAddRows(x, segment_ids, num_segments);
}

Tensor SegmentMean(const Tensor& x, const std::vector<int32_t>& segment_ids,
                   int64_t num_segments) {
  SGCL_CHECK_EQ(x.dim(), 2);
  const int64_t n = x.rows(), d = x.cols();
  SGCL_CHECK_EQ(n, static_cast<int64_t>(segment_ids.size()));
  CheckIndexRange(segment_ids, num_segments);
  std::vector<float> counts(static_cast<size_t>(num_segments), 0.0f);
  for (int32_t s : segment_ids) counts[s] += 1.0f;
  FloatBuffer out(static_cast<size_t>(num_segments * d), 0.0f);
  for (int64_t r = 0; r < n; ++r) {
    float* dst = out.data() + static_cast<int64_t>(segment_ids[r]) * d;
    const float* src = x.data() + r * d;
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
  for (int64_t s = 0; s < num_segments; ++s) {
    if (counts[s] > 0.0f) {
      float* row = out.data() + s * d;
      for (int64_t j = 0; j < d; ++j) row[j] /= counts[s];
    }
  }
  auto x_impl = x.impl();
  return MakeOpOutput(
      {num_segments, d}, std::move(out), {x},
      [x_impl, segment_ids, counts = std::move(counts), n, d](
          TensorImpl& self) {
        if (!x_impl->requires_grad) return;
        x_impl->EnsureGradAllocated();
        for (int64_t r = 0; r < n; ++r) {
          const int32_t s = segment_ids[r];
          const float inv = 1.0f / counts[s];
          const float* g = self.grad.data() + static_cast<int64_t>(s) * d;
          float* dst = x_impl->grad.data() + r * d;
          for (int64_t j = 0; j < d; ++j) dst[j] += g[j] * inv;
        }
      });
}

Tensor SegmentMax(const Tensor& x, const std::vector<int32_t>& segment_ids,
                  int64_t num_segments) {
  SGCL_CHECK_EQ(x.dim(), 2);
  const int64_t n = x.rows(), d = x.cols();
  SGCL_CHECK_EQ(n, static_cast<int64_t>(segment_ids.size()));
  CheckIndexRange(segment_ids, num_segments);
  constexpr float kNegInf = -3.4e38f;
  FloatBuffer out(static_cast<size_t>(num_segments * d), kNegInf);
  std::vector<int32_t> argmax(static_cast<size_t>(num_segments * d), -1);
  for (int64_t r = 0; r < n; ++r) {
    const int64_t s = segment_ids[r];
    const float* src = x.data() + r * d;
    float* dst = out.data() + s * d;
    int32_t* arg = argmax.data() + s * d;
    for (int64_t j = 0; j < d; ++j) {
      if (src[j] > dst[j]) {
        dst[j] = src[j];
        arg[j] = static_cast<int32_t>(r);
      }
    }
  }
  // Empty segments: emit zeros instead of -inf.
  for (size_t i = 0; i < out.size(); ++i) {
    if (argmax[i] < 0) out[i] = 0.0f;
  }
  auto x_impl = x.impl();
  return MakeOpOutput(
      {num_segments, d}, std::move(out), {x},
      [x_impl, argmax = std::move(argmax), num_segments, d](TensorImpl& self) {
        if (!x_impl->requires_grad) return;
        x_impl->EnsureGradAllocated();
        for (int64_t s = 0; s < num_segments; ++s) {
          for (int64_t j = 0; j < d; ++j) {
            const int32_t r = argmax[s * d + j];
            if (r < 0) continue;
            x_impl->grad[static_cast<int64_t>(r) * d + j] +=
                self.grad[s * d + j];
          }
        }
      });
}

Tensor SegmentSoftmax(const Tensor& scores,
                      const std::vector<int32_t>& segment_ids,
                      int64_t num_segments) {
  SGCL_CHECK_EQ(scores.dim(), 2);
  SGCL_CHECK_EQ(scores.cols(), 1);
  const int64_t e = scores.rows();
  SGCL_CHECK_EQ(e, static_cast<int64_t>(segment_ids.size()));
  CheckIndexRange(segment_ids, num_segments);
  constexpr float kNegInf = -3.4e38f;
  std::vector<float> seg_max(static_cast<size_t>(num_segments), kNegInf);
  for (int64_t r = 0; r < e; ++r) {
    seg_max[segment_ids[r]] =
        std::max(seg_max[segment_ids[r]], scores.data()[r]);
  }
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(e));
  std::vector<float> seg_sum(static_cast<size_t>(num_segments), 0.0f);
  for (int64_t r = 0; r < e; ++r) {
    out[r] = std::exp(scores.data()[r] - seg_max[segment_ids[r]]);
    seg_sum[segment_ids[r]] += out[r];
  }
  for (int64_t r = 0; r < e; ++r) out[r] /= seg_sum[segment_ids[r]];
  auto s_impl = scores.impl();
  return MakeOpOutput(
      {e, 1}, std::move(out), {scores},
      [s_impl, segment_ids, num_segments, e](TensorImpl& self) {
        if (!s_impl->requires_grad) return;
        s_impl->EnsureGradAllocated();
        // dL/ds_e = p_e * (g_e - sum_{e' in seg} p_e' g_e').
        std::vector<float> seg_dot(static_cast<size_t>(num_segments), 0.0f);
        for (int64_t r = 0; r < e; ++r) {
          seg_dot[segment_ids[r]] += self.data[r] * self.grad[r];
        }
        for (int64_t r = 0; r < e; ++r) {
          s_impl->grad[r] +=
              self.data[r] * (self.grad[r] - seg_dot[segment_ids[r]]);
        }
      });
}

}  // namespace sgcl
