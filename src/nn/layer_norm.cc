#include "nn/layer_norm.h"

#include <cmath>

#include "tensor/tensor.h"

namespace sgcl {

LayerNorm::LayerNorm(int64_t dim, float eps)
    : gamma_(Tensor::Full({1, dim}, 1.0f, /*requires_grad=*/true)),
      beta_(Tensor::Zeros({1, dim}, /*requires_grad=*/true)),
      eps_(eps) {
  SGCL_CHECK_GT(dim, 0);
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  SGCL_CHECK_EQ(x.dim(), 2);
  const int64_t n = x.rows(), d = x.cols();
  SGCL_CHECK_EQ(d, gamma_.cols());
  // Forward: xhat = (x - mu) / sigma; y = gamma * xhat + beta.
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(n * d));
  FloatBuffer xhat = FloatBuffer::Uninitialized(static_cast<size_t>(n * d));
  FloatBuffer inv_sigma = FloatBuffer::Uninitialized(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double mean = 0.0;
    for (int64_t j = 0; j < d; ++j) mean += x.At(i, j);
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double c = x.At(i, j) - mean;
      var += c * c;
    }
    var /= static_cast<double>(d);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    inv_sigma[i] = inv;
    for (int64_t j = 0; j < d; ++j) {
      const float h = (x.At(i, j) - static_cast<float>(mean)) * inv;
      xhat[i * d + j] = h;
      out[i * d + j] = gamma_.data()[j] * h + beta_.data()[j];
    }
  }
  auto x_impl = x.impl();
  auto g_impl = gamma_.impl();
  auto b_impl = beta_.impl();
  return internal::MakeOpOutput(
      {n, d}, std::move(out), {x, gamma_, beta_},
      [x_impl, g_impl, b_impl, xhat = std::move(xhat),
       inv_sigma = std::move(inv_sigma), n, d](TensorImpl& self) {
        const float* dy = self.grad.data();
        if (g_impl->requires_grad) {
          g_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t j = 0; j < d; ++j) {
              g_impl->grad[j] += dy[i * d + j] * xhat[i * d + j];
            }
          }
        }
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t j = 0; j < d; ++j) b_impl->grad[j] += dy[i * d + j];
          }
        }
        if (!x_impl->requires_grad) return;
        x_impl->EnsureGradAllocated();
        for (int64_t i = 0; i < n; ++i) {
          // dxhat = dy * gamma; dx = inv_sigma * (dxhat - mean(dxhat)
          //         - xhat * mean(dxhat * xhat)).
          double mean_dxhat = 0.0, mean_dxhat_xhat = 0.0;
          for (int64_t j = 0; j < d; ++j) {
            const double dxh =
                static_cast<double>(dy[i * d + j]) * g_impl->data[j];
            mean_dxhat += dxh;
            mean_dxhat_xhat += dxh * xhat[i * d + j];
          }
          mean_dxhat /= static_cast<double>(d);
          mean_dxhat_xhat /= static_cast<double>(d);
          for (int64_t j = 0; j < d; ++j) {
            const double dxh =
                static_cast<double>(dy[i * d + j]) * g_impl->data[j];
            x_impl->grad[i * d + j] += static_cast<float>(
                inv_sigma[i] *
                (dxh - mean_dxhat - xhat[i * d + j] * mean_dxhat_xhat));
          }
        }
      });
}

std::vector<Tensor> LayerNorm::Parameters() const { return {gamma_, beta_}; }

}  // namespace sgcl
