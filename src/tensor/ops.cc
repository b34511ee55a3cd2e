#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/metrics.h"
#include "tensor/gemm.h"

namespace sgcl {
namespace {

using internal::MakeOpOutput;

// Kernel dispatch tallies (always-on; one relaxed atomic per call — noise
// next to the O(mkn) kernels they count).
void TallyMatMul(const char* which, int64_t flops) {
  static Counter* const matmul =
      MetricsRegistry::Global().GetCounter("tensor/matmul_calls");
  static Counter* const matmul_tb =
      MetricsRegistry::Global().GetCounter("tensor/matmul_transb_calls");
  static Counter* const flops_counter =
      MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  (which[0] == 't' ? matmul_tb : matmul)->Increment();
  flops_counter->Increment(flops);
}

// Accumulates `delta` into `t`'s grad if it participates in autograd.
void AccumulateGrad(const std::shared_ptr<TensorImpl>& t,
                    const FloatBuffer& delta) {
  if (!t->requires_grad) return;
  t->EnsureGradAllocated();
  SGCL_DCHECK(t->grad.size() == delta.size());
  for (size_t i = 0; i < delta.size(); ++i) t->grad[i] += delta[i];
}

// The ReLU slope at output y: 1.0f where y > 0, else 0.0f (NaN in, 0
// out). Built from bits: GCC compiles `y > 0.0f ? 1.0f : 0.0f` times a
// gradient into a jump, which mispredicts on about every other ReLU
// output and keeps the loop from vectorizing.
[[gnu::always_inline]] inline float ReluSlope(float y) {
  const uint32_t bits =
      static_cast<uint32_t>(-static_cast<int32_t>(y > 0.0f)) & 0x3f800000u;
  float slope;
  std::memcpy(&slope, &bits, sizeof(slope));
  return slope;
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  SGCL_CHECK(a.shape() == b.shape());
}

// Generic unary op: y = f(x), dx = dy * dfdx where dfdx is precomputed
// from the forward values.
Tensor UnaryOp(const Tensor& a, FloatBuffer out, FloatBuffer dfdx) {
  auto a_impl = a.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a},
      [a_impl, dfdx = std::move(dfdx)](TensorImpl& self) {
        if (!a_impl->requires_grad) return;
        a_impl->EnsureGradAllocated();
        for (size_t i = 0; i < self.grad.size(); ++i) {
          a_impl->grad[i] += self.grad[i] * dfdx[i];
        }
      });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return Affine(a, b, Tensor(), /*relu=*/false);
}

Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b, bool relu) {
  SGCL_CHECK_EQ(x.dim(), 2);
  SGCL_CHECK_EQ(w.dim(), 2);
  const int64_t m = x.rows(), k = x.cols(), n = w.cols();
  SGCL_CHECK_EQ(k, w.rows());
  const bool has_bias = b.numel() > 0;
  if (has_bias) {
    SGCL_CHECK_EQ(b.dim(), 2);
    SGCL_CHECK_EQ(b.rows(), 1);
    SGCL_CHECK_EQ(b.cols(), n);
  }
  TallyMatMul("matmul", 2 * m * k * n);
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(m * n));
  GemmAccumulate(x.data(), w.data(), out.data(), m, k, n,
                 /*accumulate=*/false);
  if (has_bias) {
    const float* bias = b.data();
    for (int64_t i = 0; i < m; ++i) {
      float* row = out.data() + i * n;
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
  }
  if (relu) {
    float* y = out.data();
    for (int64_t i = 0; i < m * n; ++i) y[i] = y[i] > 0.0f ? y[i] : 0.0f;
  }
  auto x_impl = x.impl();
  auto w_impl = w.impl();
  auto b_impl = has_bias ? b.impl() : nullptr;
  std::vector<Tensor> parents = {x, w};
  if (has_bias) parents.push_back(b);
  return MakeOpOutput(
      {m, n}, std::move(out), std::move(parents),
      [x_impl, w_impl, b_impl, m, k, n, relu](TensorImpl& self) {
        // dZ, the gradient before the ReLU. Its slope is read back from
        // the output: y > 0 exactly where the pre-activation is, and a NaN
        // pre-activation leaves y = 0.
        const float* g = self.grad.data();
        FloatBuffer masked;
        if (relu) {
          masked = FloatBuffer::Uninitialized(static_cast<size_t>(m * n));
          const float* y = self.data.data();
          float* dz = masked.data();
          for (int64_t i = 0; i < m * n; ++i) {
            dz[i] = g[i] * ReluSlope(y[i]);
          }
          g = dz;
        }
        if (b_impl != nullptr && b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          float* db = b_impl->grad.data();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) db[j] += g[i * n + j];
          }
        }
        if (x_impl->requires_grad) {
          x_impl->EnsureGradAllocated();
          // dX += dZ * W^T.
          const FloatBuffer wt = PackTransposed(w_impl->data.data(), k, n);
          GemmDot(g, wt.data(), x_impl->grad.data(), m, n, k,
                  /*accumulate=*/true);
        }
        if (w_impl->requires_grad) {
          w_impl->EnsureGradAllocated();
          // dW += X^T * dZ.
          GemmAccumulateTransA(x_impl->data.data(), g, w_impl->grad.data(), m,
                               k, n);
        }
      });
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  SGCL_CHECK_EQ(a.dim(), 2);
  SGCL_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  SGCL_CHECK_EQ(k, b.cols());
  TallyMatMul("transb", 2 * m * k * n);
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(m * n));
  const FloatBuffer bt = PackTransposed(b.data(), n, k);
  GemmDot(a.data(), bt.data(), out.data(), m, k, n, /*accumulate=*/false);
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      {m, n}, std::move(out), {a, b},
      [a_impl, b_impl, m, k, n](TensorImpl& self) {
        const float* g = self.grad.data();
        if (a_impl->requires_grad) {
          a_impl->EnsureGradAllocated();
          // dA += dC * B.
          GemmAccumulate(g, b_impl->data.data(), a_impl->grad.data(), m, n, k,
                         /*accumulate=*/true);
        }
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          // dB += dC^T * A.
          GemmAccumulateTransA(g, a_impl->data.data(), b_impl->grad.data(), m,
                               n, k);
        }
      });
}

Tensor Transpose(const Tensor& a) {
  SGCL_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.rows(), n = a.cols();
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out[j * m + i] = a.data()[i * n + j];
  }
  auto a_impl = a.impl();
  return MakeOpOutput({n, m}, std::move(out), {a},
                      [a_impl, m, n](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        for (int64_t i = 0; i < m; ++i) {
                          for (int64_t j = 0; j < n; ++j) {
                            a_impl->grad[i * n + j] += self.grad[j * m + i];
                          }
                        }
                      });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    FloatBuffer out(a.values());
    for (size_t i = 0; i < out.size(); ++i) out[i] += b.data()[i];
    auto a_impl = a.impl();
    auto b_impl = b.impl();
    return MakeOpOutput(a.shape(), std::move(out), {a, b},
                        [a_impl, b_impl](TensorImpl& self) {
                          AccumulateGrad(a_impl, self.grad);
                          AccumulateGrad(b_impl, self.grad);
                        });
  }
  // Row broadcast: a [m,n] + b [1,n].
  SGCL_CHECK_EQ(a.dim(), 2);
  SGCL_CHECK_EQ(b.dim(), 2);
  SGCL_CHECK_EQ(b.rows(), 1);
  SGCL_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows(), n = a.cols();
  FloatBuffer out(a.values());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out[i * n + j] += b.data()[j];
  }
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a, b},
      [a_impl, b_impl, m, n](TensorImpl& self) {
        AccumulateGrad(a_impl, self.grad);
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              b_impl->grad[j] += self.grad[i * n + j];
            }
          }
        }
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  FloatBuffer out(a.values());
  for (size_t i = 0; i < out.size(); ++i) out[i] -= b.data()[i];
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(a.shape(), std::move(out), {a, b},
                      [a_impl, b_impl](TensorImpl& self) {
                        AccumulateGrad(a_impl, self.grad);
                        if (b_impl->requires_grad) {
                          b_impl->EnsureGradAllocated();
                          for (size_t i = 0; i < self.grad.size(); ++i) {
                            b_impl->grad[i] -= self.grad[i];
                          }
                        }
                      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  FloatBuffer out(a.values());
  for (size_t i = 0; i < out.size(); ++i) out[i] *= b.data()[i];
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a, b},
      [a_impl, b_impl](TensorImpl& self) {
        if (a_impl->requires_grad) {
          a_impl->EnsureGradAllocated();
          for (size_t i = 0; i < self.grad.size(); ++i) {
            a_impl->grad[i] += self.grad[i] * b_impl->data[i];
          }
        }
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          for (size_t i = 0; i < self.grad.size(); ++i) {
            b_impl->grad[i] += self.grad[i] * a_impl->data[i];
          }
        }
      });
}

Tensor MulBroadcastCol(const Tensor& x, const Tensor& c) {
  SGCL_CHECK_EQ(x.dim(), 2);
  SGCL_CHECK_EQ(c.dim(), 2);
  SGCL_CHECK_EQ(c.cols(), 1);
  SGCL_CHECK_EQ(x.rows(), c.rows());
  const int64_t m = x.rows(), n = x.cols();
  FloatBuffer out(x.values());
  for (int64_t i = 0; i < m; ++i) {
    const float cv = c.data()[i];
    for (int64_t j = 0; j < n; ++j) out[i * n + j] *= cv;
  }
  auto x_impl = x.impl();
  auto c_impl = c.impl();
  return MakeOpOutput(
      x.shape(), std::move(out), {x, c},
      [x_impl, c_impl, m, n](TensorImpl& self) {
        if (x_impl->requires_grad) {
          x_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            const float cv = c_impl->data[i];
            for (int64_t j = 0; j < n; ++j) {
              x_impl->grad[i * n + j] += self.grad[i * n + j] * cv;
            }
          }
        }
        if (c_impl->requires_grad) {
          c_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            float acc = 0.0f;
            for (int64_t j = 0; j < n; ++j) {
              acc += self.grad[i * n + j] * x_impl->data[i * n + j];
            }
            c_impl->grad[i] += acc;
          }
        }
      });
}

Tensor AddScalar(const Tensor& a, float s) {
  FloatBuffer out(a.values());
  for (float& v : out) v += s;
  auto a_impl = a.impl();
  return MakeOpOutput(a.shape(), std::move(out), {a},
                      [a_impl](TensorImpl& self) {
                        AccumulateGrad(a_impl, self.grad);
                      });
}

Tensor MulScalar(const Tensor& a, float s) {
  FloatBuffer out(a.values());
  for (float& v : out) v *= s;
  auto a_impl = a.impl();
  return MakeOpOutput(a.shape(), std::move(out), {a},
                      [a_impl, s](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        for (size_t i = 0; i < self.grad.size(); ++i) {
                          a_impl->grad[i] += self.grad[i] * s;
                        }
                      });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Relu(const Tensor& a) {
  FloatBuffer out(a.values());
  for (float& v : out) v = v > 0.0f ? v : 0.0f;
  auto a_impl = a.impl();
  // The slope is read back from the output: y > 0 exactly where x > 0,
  // and a NaN input leaves y = 0, so no N x d slope buffer is kept.
  return MakeOpOutput(
      a.shape(), std::move(out), {a}, [a_impl](TensorImpl& self) {
        if (!a_impl->requires_grad) return;
        a_impl->EnsureGradAllocated();
        const float* y = self.data.data();
        const float* dy = self.grad.data();
        float* dx = a_impl->grad.data();
        for (size_t i = 0; i < self.grad.size(); ++i) {
          dx[i] += dy[i] * ReluSlope(y[i]);
        }
      });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  FloatBuffer out(a.values());
  FloatBuffer dfdx = FloatBuffer::Uninitialized(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] > 0.0f) {
      dfdx[i] = 1.0f;
    } else {
      out[i] *= negative_slope;
      dfdx[i] = negative_slope;
    }
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Sigmoid(const Tensor& a) {
  FloatBuffer out(a.values());
  FloatBuffer dfdx = FloatBuffer::Uninitialized(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float s = 1.0f / (1.0f + std::exp(-out[i]));
    out[i] = s;
    dfdx[i] = s * (1.0f - s);
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Tanh(const Tensor& a) {
  FloatBuffer out(a.values());
  FloatBuffer dfdx = FloatBuffer::Uninitialized(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float t = std::tanh(out[i]);
    out[i] = t;
    dfdx[i] = 1.0f - t * t;
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Exp(const Tensor& a) {
  FloatBuffer out(a.values());
  FloatBuffer dfdx = FloatBuffer::Uninitialized(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float e = std::exp(out[i]);
    out[i] = e;
    dfdx[i] = e;
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Log(const Tensor& a, float eps) {
  FloatBuffer out(a.values());
  FloatBuffer dfdx = FloatBuffer::Uninitialized(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float x = out[i] > eps ? out[i] : eps;
    out[i] = std::log(x);
    dfdx[i] = 1.0f / x;
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Square(const Tensor& a) {
  FloatBuffer out(a.values());
  FloatBuffer dfdx = FloatBuffer::Uninitialized(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    dfdx[i] = 2.0f * out[i];
    out[i] *= out[i];
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Softplus(const Tensor& a) {
  FloatBuffer out(a.values());
  FloatBuffer dfdx = FloatBuffer::Uninitialized(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float x = out[i];
    out[i] = std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
    dfdx[i] = 1.0f / (1.0f + std::exp(-x));  // sigmoid(x)
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.values()) acc += v;
  auto a_impl = a.impl();
  return MakeOpOutput({1, 1}, {static_cast<float>(acc)}, {a},
                      [a_impl](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        const float g = self.grad[0];
                        for (float& gi : a_impl->grad) gi += g;
                      });
}

Tensor Mean(const Tensor& a) {
  SGCL_CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumSquares(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.values()) acc += static_cast<double>(v) * v;
  auto a_impl = a.impl();
  return MakeOpOutput({1, 1}, {static_cast<float>(acc)}, {a},
                      [a_impl](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        const float g = self.grad[0];
                        for (size_t i = 0; i < a_impl->data.size(); ++i) {
                          a_impl->grad[i] += 2.0f * g * a_impl->data[i];
                        }
                      });
}

Tensor FrobeniusNorm(const Tensor& a, float eps) {
  double acc = eps;
  for (float v : a.values()) acc += static_cast<double>(v) * v;
  const float norm = static_cast<float>(std::sqrt(acc));
  auto a_impl = a.impl();
  return MakeOpOutput({1, 1}, {norm}, {a},
                      [a_impl, norm](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        const float g = self.grad[0] / norm;
                        for (size_t i = 0; i < a_impl->data.size(); ++i) {
                          a_impl->grad[i] += g * a_impl->data[i];
                        }
                      });
}

Tensor RowSum(const Tensor& a) {
  SGCL_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.rows(), n = a.cols();
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    float acc = 0.0f;
    for (int64_t j = 0; j < n; ++j) acc += a.data()[i * n + j];
    out[i] = acc;
  }
  auto a_impl = a.impl();
  return MakeOpOutput({m, 1}, std::move(out), {a},
                      [a_impl, m, n](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        for (int64_t i = 0; i < m; ++i) {
                          const float g = self.grad[i];
                          for (int64_t j = 0; j < n; ++j) {
                            a_impl->grad[i * n + j] += g;
                          }
                        }
                      });
}

Tensor RowL2Normalize(const Tensor& a, float eps) {
  SGCL_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.rows(), n = a.cols();
  FloatBuffer out(a.values());
  FloatBuffer norms = FloatBuffer::Uninitialized(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const float v = out[i * n + j];
      acc += static_cast<double>(v) * v;
    }
    const float norm = std::max(static_cast<float>(std::sqrt(acc)), eps);
    norms[i] = norm;
    for (int64_t j = 0; j < n; ++j) out[i * n + j] /= norm;
  }
  auto a_impl = a.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a},
      [a_impl, norms = std::move(norms), m, n](TensorImpl& self) {
        if (!a_impl->requires_grad) return;
        a_impl->EnsureGradAllocated();
        for (int64_t i = 0; i < m; ++i) {
          // y = x/||x||; dx = (dy - y (y . dy)) / ||x||.
          const float* y = self.data.data() + i * n;
          const float* dy = self.grad.data() + i * n;
          float dot = 0.0f;
          for (int64_t j = 0; j < n; ++j) dot += y[j] * dy[j];
          float* dx = a_impl->grad.data() + i * n;
          for (int64_t j = 0; j < n; ++j) {
            dx[j] += (dy[j] - y[j] * dot) / norms[i];
          }
        }
      });
}

Tensor Softmax(const Tensor& a) {
  SGCL_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.rows(), n = a.cols();
  FloatBuffer out(a.values());
  for (int64_t i = 0; i < m; ++i) {
    float* row = out.data() + i * n;
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    for (int64_t j = 0; j < n; ++j) row[j] /= denom;
  }
  auto a_impl = a.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a},
      [a_impl, m, n](TensorImpl& self) {
        if (!a_impl->requires_grad) return;
        a_impl->EnsureGradAllocated();
        for (int64_t i = 0; i < m; ++i) {
          const float* p = self.data.data() + i * n;
          const float* dy = self.grad.data() + i * n;
          float dot = 0.0f;
          for (int64_t j = 0; j < n; ++j) dot += p[j] * dy[j];
          float* dx = a_impl->grad.data() + i * n;
          for (int64_t j = 0; j < n; ++j) dx[j] += p[j] * (dy[j] - dot);
        }
      });
}

Tensor LogSoftmax(const Tensor& a) {
  SGCL_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.rows(), n = a.cols();
  FloatBuffer out(a.values());
  for (int64_t i = 0; i < m; ++i) {
    float* row = out.data() + i * n;
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < n; ++j) denom += std::exp(row[j] - mx);
    const float lse = mx + static_cast<float>(std::log(denom));
    for (int64_t j = 0; j < n; ++j) row[j] -= lse;
  }
  auto a_impl = a.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a},
      [a_impl, m, n](TensorImpl& self) {
        if (!a_impl->requires_grad) return;
        a_impl->EnsureGradAllocated();
        for (int64_t i = 0; i < m; ++i) {
          const float* logp = self.data.data() + i * n;
          const float* dy = self.grad.data() + i * n;
          float gsum = 0.0f;
          for (int64_t j = 0; j < n; ++j) gsum += dy[j];
          float* dx = a_impl->grad.data() + i * n;
          for (int64_t j = 0; j < n; ++j) {
            dx[j] += dy[j] - std::exp(logp[j]) * gsum;
          }
        }
      });
}

Tensor Dropout(const Tensor& a, float p, Rng* rng, bool training) {
  SGCL_CHECK_GE(p, 0.0f);
  SGCL_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return a;
  SGCL_CHECK(rng != nullptr);
  const float scale = 1.0f / (1.0f - p);
  FloatBuffer out(a.values());
  FloatBuffer dfdx = FloatBuffer::Uninitialized(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    if (rng->Bernoulli(p)) {
      out[i] = 0.0f;
      dfdx[i] = 0.0f;
    } else {
      out[i] *= scale;
      dfdx[i] = scale;
    }
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  SGCL_CHECK_EQ(a.dim(), 2);
  SGCL_CHECK_EQ(b.dim(), 2);
  SGCL_CHECK_EQ(a.rows(), b.rows());
  const int64_t m = a.rows(), na = a.cols(), nb = b.cols();
  FloatBuffer out =
      FloatBuffer::Uninitialized(static_cast<size_t>(m * (na + nb)));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < na; ++j) out[i * (na + nb) + j] = a.At(i, j);
    for (int64_t j = 0; j < nb; ++j) out[i * (na + nb) + na + j] = b.At(i, j);
  }
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      {m, na + nb}, std::move(out), {a, b},
      [a_impl, b_impl, m, na, nb](TensorImpl& self) {
        const int64_t n = na + nb;
        if (a_impl->requires_grad) {
          a_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < na; ++j) {
              a_impl->grad[i * na + j] += self.grad[i * n + j];
            }
          }
        }
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < nb; ++j) {
              b_impl->grad[i * nb + j] += self.grad[i * n + na + j];
            }
          }
        }
      });
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& labels) {
  SGCL_CHECK_EQ(logits.dim(), 2);
  const int64_t m = logits.rows(), c = logits.cols();
  SGCL_CHECK_EQ(m, static_cast<int64_t>(labels.size()));
  // Forward: mean over rows of -log softmax(logits)[label].
  FloatBuffer probs(logits.values());
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    float* row = probs.data() + i * c;
    float mx = row[0];
    for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < c; ++j) denom += std::exp(row[j] - mx);
    const float lse = mx + static_cast<float>(std::log(denom));
    const int y = labels[i];
    SGCL_CHECK(y >= 0 && y < c);
    loss -= (row[y] - lse);
    for (int64_t j = 0; j < c; ++j) {
      row[j] = std::exp(row[j] - lse);  // softmax, reused in backward
    }
  }
  loss /= static_cast<double>(m);
  auto l_impl = logits.impl();
  return MakeOpOutput(
      {1, 1}, {static_cast<float>(loss)}, {logits},
      [l_impl, probs = std::move(probs), labels, m, c](TensorImpl& self) {
        if (!l_impl->requires_grad) return;
        l_impl->EnsureGradAllocated();
        const float g = self.grad[0] / static_cast<float>(m);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < c; ++j) {
            float delta = probs[i * c + j];
            if (j == labels[i]) delta -= 1.0f;
            l_impl->grad[i * c + j] += g * delta;
          }
        }
      });
}

Tensor BceWithLogits(const Tensor& logits, const Tensor& targets,
                     const Tensor& mask) {
  CheckSameShape(logits, targets);
  CheckSameShape(logits, mask);
  const size_t n = logits.values().size();
  double loss = 0.0;
  double count = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (mask.data()[i] == 0.0f) continue;
    const float z = logits.data()[i];
    const float t = targets.data()[i];
    // Stable: max(z,0) - z*t + log(1 + exp(-|z|)).
    loss += std::max(z, 0.0f) - z * t + std::log1p(std::exp(-std::fabs(z)));
    count += 1.0;
  }
  SGCL_CHECK_GT(count, 0.0);
  loss /= count;
  auto l_impl = logits.impl();
  auto t_impl = targets.impl();
  auto m_impl = mask.impl();
  return MakeOpOutput(
      {1, 1}, {static_cast<float>(loss)}, {logits, targets, mask},
      [l_impl, t_impl, m_impl, count](TensorImpl& self) {
        if (!l_impl->requires_grad) return;
        l_impl->EnsureGradAllocated();
        const float g = self.grad[0] / static_cast<float>(count);
        for (size_t i = 0; i < l_impl->data.size(); ++i) {
          if (m_impl->data[i] == 0.0f) continue;
          const float z = l_impl->data[i];
          const float s = 1.0f / (1.0f + std::exp(-z));
          l_impl->grad[i] += g * (s - t_impl->data[i]);
        }
      });
}

}  // namespace sgcl
