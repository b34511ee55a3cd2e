#include "tensor/tensor.h"

#include <algorithm>
#include <unordered_set>

#include "common/metrics.h"
#include "common/string_util.h"

namespace sgcl {
namespace {

int64_t NumelOf(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    SGCL_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

// Counts a data buffer handed to a tensor.
void CountData(const FloatBuffer& data) {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("tensor/data_bytes");
  c->Increment(static_cast<int64_t>(data.size() * sizeof(float)));
}

}  // namespace

void TensorImpl::AllocateGrad() {
  static Counter* const grad_bytes =
      MetricsRegistry::Global().GetCounter("tensor/grad_bytes");
  grad.assign(data.size(), 0.0f);
  grad_bytes->Increment(static_cast<int64_t>(grad.size() * sizeof(float)));
}

Tensor Tensor::Zeros(std::vector<int64_t> shape, bool requires_grad) {
  return Full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::Ones(std::vector<int64_t> shape, bool requires_grad) {
  return Full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value,
                    bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  const int64_t n = NumelOf(shape);
  impl->shape = std::move(shape);
  impl->data.assign(static_cast<size_t>(n), value);
  CountData(impl->data);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->EnsureGradAllocated();
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          const std::vector<float>& values,
                          bool requires_grad) {
  const int64_t n = NumelOf(shape);
  SGCL_CHECK_EQ(n, static_cast<int64_t>(values.size()));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = values;
  CountData(impl->data);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->EnsureGradAllocated();
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({1, 1}, {value}, requires_grad);
}

void Tensor::Backward() {
  SGCL_CHECK_EQ(numel(), 1);
  // Topologically order the graph (parents before children) iteratively to
  // avoid stack overflow on deep tapes.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      TensorImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
  // `order` has parents before children; traverse children-first.
  impl_->EnsureGradAllocated();
  impl_->grad[0] += 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(*node);
    }
  }
}

Tensor Tensor::Detach() const {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;
  CountData(impl->data);
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

std::string Tensor::DebugString() const {
  std::string shape_str;
  for (size_t i = 0; i < impl_->shape.size(); ++i) {
    if (i > 0) shape_str += " x ";
    shape_str += std::to_string(impl_->shape[i]);
  }
  float lo = 0.0f, hi = 0.0f;
  if (!impl_->data.empty()) {
    auto [mn, mx] = std::minmax_element(impl_->data.begin(), impl_->data.end());
    lo = *mn;
    hi = *mx;
  }
  return StrFormat("Tensor[%s] (%.4g .. %.4g)", shape_str.c_str(), lo, hi);
}

namespace internal {

Tensor MakeOpOutput(std::vector<int64_t> shape, FloatBuffer data,
                    std::vector<Tensor> parents,
                    std::function<void(TensorImpl&)> backward_fn) {
  const int64_t n = NumelOf(shape);
  SGCL_CHECK_EQ(n, static_cast<int64_t>(data.size()));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  CountData(impl->data);
  bool any_grad = false;
  for (const Tensor& p : parents) {
    if (p.requires_grad()) {
      any_grad = true;
      break;
    }
  }
  if (any_grad) {
    static Counter* const tape_nodes =
        MetricsRegistry::Global().GetCounter("tensor/tape_nodes");
    tape_nodes->Increment();
    impl->requires_grad = true;
    impl->EnsureGradAllocated();
    impl->backward_fn = std::move(backward_fn);
    impl->parents.reserve(parents.size());
    for (const Tensor& p : parents) impl->parents.push_back(p.impl());
    // Parents that require grad must have their buffers ready for
    // accumulation before the tape runs.
    for (auto& p : impl->parents) {
      if (p->requires_grad) p->EnsureGradAllocated();
    }
  }
  return Tensor(std::move(impl));
}

}  // namespace internal
}  // namespace sgcl
