// The fused GIN tape ops against the node compositions they replaced:
//   GinAggregate  vs  Add(MulScalar(x, 1 + eps),
//                         ScatterAddRows(MulBroadcastCol(GatherRows(x, src),
//                                                        w), dst))
//   Affine        vs  Relu(Add(MatMul(x, w), b))
// Outputs and every gradient must match bit for bit: on empty graphs,
// graphs without edges, isolated nodes, eps != 0, edge weights that
// require grad, signed zeros, inf and NaN, and at 1 and 4 pool threads.
// Each op also passes a finite-difference check, and gives the same bits
// when its buffers come back from the recycler holding NaNs.
#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/graph_ops.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace sgcl {
namespace {

struct Edges {
  std::vector<int32_t> src, dst;
};

// What one forward + backward leaves behind: the output and the
// gradients of every input (empty when the input has none).
struct OpResult {
  std::vector<float> out, dx, dw, db;
};

// Bit-for-bit equality; any NaN matches any NaN, since the composition
// and the fused op may propagate different NaN payloads.
void ExpectSameBits(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    uint32_t ua = 0, ub = 0;
    std::memcpy(&ua, &a[i], sizeof(ua));
    std::memcpy(&ub, &b[i], sizeof(ub));
    ASSERT_EQ(ua, ub) << what << " differs at " << i << ": " << a[i]
                      << " vs " << b[i];
  }
}

void ExpectSameRun(const OpResult& fused, const OpResult& reference) {
  ExpectSameBits(fused.out, reference.out, "output");
  ExpectSameBits(fused.dx, reference.dx, "dx");
  ExpectSameBits(fused.dw, reference.dw, "dw");
  ExpectSameBits(fused.db, reference.db, "db");
}

// rows x cols values from `rng`, with a share of exact zeros and, when
// `specials`, one each of -0, +inf, -inf and NaN.
std::vector<float> Values(int64_t rows, int64_t cols, bool specials,
                          Rng* rng) {
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (float& x : v) {
    x = rng->Uniform() < 0.3 ? 0.0f : static_cast<float>(rng->Normal());
  }
  if (specials && v.size() >= 4) {
    v[0] = -0.0f;
    v[v.size() / 3] = INFINITY;
    v[v.size() / 2] = -INFINITY;
    v[v.size() - 1] = NAN;
  }
  return v;
}

Edges RandomEdges(int64_t nodes, int64_t count, Rng* rng) {
  Edges e;
  for (int64_t i = 0; i < count; ++i) {
    e.src.push_back(static_cast<int32_t>(rng->UniformInt(nodes)));
    e.dst.push_back(static_cast<int32_t>(rng->UniformInt(nodes)));
  }
  return e;
}

std::vector<float> GradOf(const Tensor& t) {
  return t.requires_grad() ? t.grad_values().ToVector() : std::vector<float>();
}

// Seeds the backward with a fixed upstream gradient `up` and gives x a
// second consumer, so the order in which x.grad collects its terms
// matters: loss = sum((y + 0.5 x) * up) for y of x's shape, or
// sum(y * up) + sum(0.5 x) otherwise.
Tensor Loss(const Tensor& y, const Tensor& x, const Tensor& up) {
  if (y.shape() == x.shape()) {
    return Sum(Mul(Add(y, MulScalar(x, 0.5f)), up));
  }
  return Add(Sum(Mul(y, up)), Sum(MulScalar(x, 0.5f)));
}

Tensor ReferenceGinAggregate(const Tensor& x, const Edges& e,
                             const Tensor& w, float eps) {
  Tensor messages = GatherRows(x, e.src);
  if (w.numel() > 0) messages = MulBroadcastCol(messages, w);
  Tensor neighbor_sum = ScatterAddRows(messages, e.dst, x.rows());
  return Add(MulScalar(x, 1.0f + eps), neighbor_sum);
}

struct AggregateCase {
  int64_t nodes, dim;
  Edges edges;
  bool weighted;
  bool weights_require_grad;
  float eps;
  bool specials;
};

OpResult RunAggregate(const AggregateCase& c, bool fused, uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::FromVector({c.nodes, c.dim},
                                Values(c.nodes, c.dim, c.specials, &rng),
                                /*requires_grad=*/true);
  const int64_t e = static_cast<int64_t>(c.edges.src.size());
  Tensor w;
  if (c.weighted) {
    w = Tensor::FromVector({e, 1}, Values(e, 1, c.specials, &rng),
                           c.weights_require_grad);
  }
  Tensor up = Tensor::FromVector({c.nodes, c.dim},
                                 Values(c.nodes, c.dim, false, &rng));
  Tensor y = fused ? GinAggregate(x, c.edges.src, c.edges.dst, w, c.eps)
                   : ReferenceGinAggregate(x, c.edges, w, c.eps);
  Loss(y, x, up).Backward();
  return {y.values().ToVector(), GradOf(x), c.weighted ? GradOf(w)
                                                        : std::vector<float>(),
          {}};
}

std::vector<AggregateCase> AggregateCases() {
  Rng rng(7);
  std::vector<AggregateCase> cases;
  cases.push_back({0, 4, {}, false, false, 0.0f, false});       // empty
  cases.push_back({5, 3, {}, false, false, 0.0f, true});        // no edges
  // Nodes 4 and 5 isolated; a self loop, a repeated edge, edges out of
  // dst order.
  Edges iso{{0, 1, 2, 3, 3, 1, 2, 0}, {1, 0, 3, 2, 3, 0, 1, 2}};
  cases.push_back({6, 5, iso, false, false, 0.0f, true});
  cases.push_back({6, 5, iso, false, false, 0.25f, true});      // eps != 0
  cases.push_back({6, 5, iso, true, false, 0.0f, true});        // weighted
  cases.push_back({6, 5, iso, true, true, -0.5f, true});        // AD-GCL
  cases.push_back({0, 3, {}, true, true, 0.0f, false});         // empty, w
  cases.push_back({40, 17, RandomEdges(40, 120, &rng), true, true, 0.1f,
                   true});
  return cases;
}

TEST(GinAggregateTest, MatchesTheCompositionBitwise) {
  const auto cases = AggregateCases();
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "case " << i);
    ExpectSameRun(RunAggregate(cases[i], true, 100 + i),
                  RunAggregate(cases[i], false, 100 + i));
  }
}

TEST(GinAggregateTest, BitwiseIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const AggregateCase c{600, 64, RandomEdges(600, 2400, &rng), true, true,
                        0.0f, true};
  SetParallelThreads(1);
  const OpResult reference = RunAggregate(c, false, 5);
  const OpResult one = RunAggregate(c, true, 5);
  SetParallelThreads(4);
  const OpResult four = RunAggregate(c, true, 5);
  SetParallelThreads(0);
  ExpectSameRun(one, reference);
  ExpectSameRun(four, reference);
}

Tensor ReferenceAffine(const Tensor& x, const Tensor& w, const Tensor& b,
                       bool relu) {
  Tensor y = MatMul(x, w);
  if (b.numel() > 0) y = Add(y, b);
  return relu ? Relu(y) : y;
}

struct AffineCase {
  int64_t m, k, n;
  bool bias, relu, specials;
};

OpResult RunAffine(const AffineCase& c, bool fused, uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::FromVector({c.m, c.k}, Values(c.m, c.k, c.specials, &rng),
                                /*requires_grad=*/true);
  Tensor w = Tensor::FromVector({c.k, c.n}, Values(c.k, c.n, false, &rng),
                                /*requires_grad=*/true);
  Tensor b;
  if (c.bias) {
    b = Tensor::FromVector({1, c.n}, Values(1, c.n, false, &rng),
                           /*requires_grad=*/true);
  }
  Tensor up = Tensor::FromVector({c.m, c.n}, Values(c.m, c.n, false, &rng));
  Tensor y = fused ? Affine(x, w, b, c.relu) : ReferenceAffine(x, w, b, c.relu);
  Loss(y, x, up).Backward();
  return {y.values().ToVector(), GradOf(x), GradOf(w),
          c.bias ? GradOf(b) : std::vector<float>()};
}

TEST(AffineTest, MatchesTheCompositionBitwise) {
  const std::vector<AffineCase> cases = {
      {0, 3, 4, true, true, false},   {5, 0, 4, true, true, false},
      {1, 4, 4, true, false, true},   {7, 12, 64, true, true, true},
      {7, 12, 64, false, true, true}, {33, 64, 17, true, false, true},
      {33, 65, 64, false, false, true}};
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "case " << i);
    ExpectSameRun(RunAffine(cases[i], true, 200 + i),
                  RunAffine(cases[i], false, 200 + i));
  }
}

TEST(AffineTest, BitwiseIdenticalAcrossThreadCounts) {
  const AffineCase c{768, 64, 64, true, true, true};
  SetParallelThreads(1);
  const OpResult reference = RunAffine(c, false, 9);
  const OpResult one = RunAffine(c, true, 9);
  SetParallelThreads(4);
  const OpResult four = RunAffine(c, true, 9);
  SetParallelThreads(0);
  ExpectSameRun(one, reference);
  ExpectSameRun(four, reference);
}

// Smooth, distinct values away from ReLU kinks.
Tensor Smooth(int64_t rows, int64_t cols, float offset) {
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = offset + 0.13f * static_cast<float>(i % 7) -
           0.05f * static_cast<float>(i % 3);
  }
  return Tensor::FromVector({rows, cols}, v);
}

TEST(GradCheckTest, GinAggregate) {
  const Edges e{{0, 1, 2, 3, 1, 0}, {1, 2, 3, 0, 1, 3}};
  const Tensor w = Smooth(6, 1, 0.4f);
  testing::GradCheck(Smooth(5, 3, 0.2f), [&](const Tensor& x) {
    return SumSquares(GinAggregate(x, e.src, e.dst, w, 0.3f));
  });
  const Tensor x = Smooth(5, 3, 0.2f);
  testing::GradCheck(Smooth(6, 1, 0.4f), [&](const Tensor& weights) {
    return SumSquares(GinAggregate(x, e.src, e.dst, weights, 0.3f));
  });
}

TEST(GradCheckTest, Affine) {
  const Tensor w = Smooth(3, 4, 0.1f);
  const Tensor b = Smooth(1, 4, 0.3f);
  const Tensor x = Smooth(5, 3, 0.5f);
  for (bool relu : {false, true}) {
    testing::GradCheck(x, [&](const Tensor& in) {
      return SumSquares(Affine(in, w, b, relu));
    });
    testing::GradCheck(w, [&](const Tensor& in) {
      return SumSquares(Affine(x, in, b, relu));
    });
    testing::GradCheck(b, [&](const Tensor& in) {
      return SumSquares(Affine(x, w, in, relu));
    });
  }
}

// Hands the recycler `count` NaN-filled blocks for each shape, so the
// next op's output, scratch and pack buffers start out holding NaNs.
void ReleaseNanBuffers(const std::vector<std::vector<int64_t>>& shapes,
                       int count) {
  std::vector<Tensor> stale;
  for (const auto& shape : shapes) {
    for (int i = 0; i < count; ++i) {
      stale.push_back(Tensor::Full(shape, NAN));
    }
  }
}

TEST(FusedOpsTest, StaleRecycledBuffersDoNotLeakIntoResults) {
  Rng rng(3);
  const AggregateCase agg{50, 20, RandomEdges(50, 150, &rng), true, true,
                          0.0f, false};
  const OpResult agg_reference = RunAggregate(agg, false, 4);
  ReleaseNanBuffers({{50, 20}, {150, 1}, {150, 20}}, 8);
  ExpectSameRun(RunAggregate(agg, true, 4), agg_reference);

  const AffineCase affine{40, 30, 20, true, true, false};
  const OpResult affine_reference = RunAffine(affine, false, 4);
  ReleaseNanBuffers({{40, 20}, {20, 30}, {30, 20}, {40, 30}, {1, 20}}, 8);
  ExpectSameRun(RunAffine(affine, true, 4), affine_reference);
}

}  // namespace
}  // namespace sgcl
