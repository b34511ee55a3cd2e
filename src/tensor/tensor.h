// Dense float32 tensor with reverse-mode autograd.
//
// A Tensor is a cheap shared handle to a TensorImpl holding row-major data,
// an optional gradient buffer, and — when the tensor was produced by a
// differentiable op — a backward closure plus links to its parents. Calling
// Backward() on a scalar runs the tape in reverse topological order.
//
// The op library lives in "tensor/ops.h"; this header only defines storage,
// accessors, and the backward traversal. Data and gradient buffers come
// from the BufferRecycler (tensor/buffer.h).
//
// Metrics (common/metrics.h), counted for every tensor:
//   tensor/tape_nodes  op outputs wired into the autograd tape
//   tensor/data_bytes  bytes of data buffers handed to tensors
//   tensor/grad_bytes  bytes of gradient buffers handed to tensors
#ifndef SGCL_TENSOR_TENSOR_H_
#define SGCL_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "tensor/buffer.h"

namespace sgcl {

struct TensorImpl {
  std::vector<int64_t> shape;
  FloatBuffer data;
  // Allocated lazily (by Backward or by ops that need it) when
  // requires_grad; same length as data.
  FloatBuffer grad;
  bool requires_grad = false;
  // Non-null only for op outputs. Reads this->grad and accumulates into
  // parents' grads.
  std::function<void(TensorImpl&)> backward_fn;
  std::vector<std::shared_ptr<TensorImpl>> parents;

  // Element count backed by actual storage: 0 for a default-constructed
  // (rank-0, empty) tensor, matching the product of the shape otherwise.
  int64_t numel() const { return static_cast<int64_t>(data.size()); }
  void EnsureGradAllocated() {
    if (grad.size() != data.size()) AllocateGrad();
  }
  // Replaces grad with zeros of data's length.
  void AllocateGrad();
};

class Tensor {
 public:
  // An empty (rank-0, zero-element) tensor; most APIs reject it.
  Tensor() : impl_(std::make_shared<TensorImpl>()) {}

  // ---- Factories ----
  static Tensor Zeros(std::vector<int64_t> shape, bool requires_grad = false);
  static Tensor Ones(std::vector<int64_t> shape, bool requires_grad = false);
  static Tensor Full(std::vector<int64_t> shape, float value,
                     bool requires_grad = false);
  static Tensor FromVector(std::vector<int64_t> shape,
                           const std::vector<float>& values,
                           bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);

  // ---- Shape ----
  const std::vector<int64_t>& shape() const { return impl_->shape; }
  int64_t dim() const { return static_cast<int64_t>(impl_->shape.size()); }
  int64_t numel() const { return impl_->numel(); }
  // Rows/cols of a rank-2 tensor (the dominant case in this library).
  int64_t rows() const {
    SGCL_CHECK_EQ(dim(), 2);
    return impl_->shape[0];
  }
  int64_t cols() const {
    SGCL_CHECK_EQ(dim(), 2);
    return impl_->shape[1];
  }

  // ---- Data access ----
  float* data() { return impl_->data.data(); }
  const float* data() const { return impl_->data.data(); }
  const FloatBuffer& values() const { return impl_->data; }
  float* grad() { return impl_->grad.data(); }
  const FloatBuffer& grad_values() const { return impl_->grad; }
  bool has_grad() const { return !impl_->grad.empty(); }

  float At(int64_t r, int64_t c) const {
    SGCL_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    return impl_->data[r * cols() + c];
  }
  void Set(int64_t r, int64_t c, float v) {
    SGCL_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    impl_->data[r * cols() + c] = v;
  }
  // Value of a single-element tensor.
  float item() const {
    SGCL_CHECK_EQ(numel(), 1);
    return impl_->data[0];
  }

  bool requires_grad() const { return impl_->requires_grad; }
  void set_requires_grad(bool value) {
    impl_->requires_grad = value;
    if (value) impl_->EnsureGradAllocated();
  }

  // Zeroes this tensor's gradient buffer (no-op if none allocated).
  void ZeroGrad() {
    for (float& g : impl_->grad) g = 0.0f;
  }

  // Runs reverse-mode differentiation from this tensor. Must be a scalar
  // (the gradient seed is 1); gradients accumulate into every reachable
  // tensor with requires_grad.
  void Backward();

  // A copy of the values with no autograd history.
  Tensor Detach() const;

  // Human-readable "[r x c] (min .. max)" summary for debugging.
  std::string DebugString() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

namespace internal {

// Builds an op-output tensor: shape/data plus autograd wiring when any
// parent requires grad.
Tensor MakeOpOutput(std::vector<int64_t> shape, FloatBuffer data,
                    std::vector<Tensor> parents,
                    std::function<void(TensorImpl&)> backward_fn);

}  // namespace internal
}  // namespace sgcl

#endif  // SGCL_TENSOR_TENSOR_H_
