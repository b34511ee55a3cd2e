// Reference-equivalence tests for the GEMM kernels behind MatMul and
// MatMulTransB (tensor/gemm.*). The reference is the six loops the two
// ops ran before the kernels existed; outputs and both gradients must
// match them bit for bit on shapes that cross every tile edge, with
// exact zeros, a non-finite value behind the zero skip, gradients that
// already hold values, one-sided requires_grad, and 1 or 4 threads.
#include "tensor/gemm.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace sgcl {
namespace {

// ---- The loops MatMul and MatMulTransB ran before tensor/gemm.* ----
// Verbatim, except that each ParallelFor body runs once over its whole
// range.

void RefMatMulForward(const float* ad, const float* bd, float* out,
                      int64_t m, int64_t k, int64_t n) {
  const int64_t i0 = 0, i1 = m;
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = ad[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = bd + p * n;
      float* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void RefMatMulGradA(const float* g, const float* bd, float* agrad, int64_t m,
                    int64_t k, int64_t n) {
  const int64_t i0 = 0, i1 = m;
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      float acc = 0.0f;
      const float* grow = g + i * n;
      const float* brow = bd + p * n;
      for (int64_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
      agrad[i * k + p] += acc;
    }
  }
}

void RefMatMulGradB(const float* g, const float* ad, float* bgrad, int64_t m,
                    int64_t k, int64_t n) {
  const int64_t p0 = 0, p1 = k;
  for (int64_t p = p0; p < p1; ++p) {
    float* brow = bgrad + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = ad[i * k + p];
      if (av == 0.0f) continue;
      const float* grow = g + i * n;
      for (int64_t j = 0; j < n; ++j) brow[j] += av * grow[j];
    }
  }
}

void RefTransBForward(const float* ad, const float* bd, float* out,
                      int64_t m, int64_t k, int64_t n) {
  const int64_t i0 = 0, i1 = m;
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      const float* arow = ad + i * k;
      const float* brow = bd + j * k;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      out[i * n + j] = acc;
    }
  }
}

void RefTransBGradA(const float* g, const float* bd, float* agrad, int64_t m,
                    int64_t k, int64_t n) {
  const int64_t i0 = 0, i1 = m;
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float gv = g[i * n + j];
      if (gv == 0.0f) continue;
      const float* brow = bd + j * k;
      float* arow = agrad + i * k;
      for (int64_t p = 0; p < k; ++p) arow[p] += gv * brow[p];
    }
  }
}

void RefTransBGradB(const float* g, const float* ad, float* bgrad, int64_t m,
                    int64_t k, int64_t n) {
  const int64_t j0 = 0, j1 = n;
  for (int64_t j = j0; j < j1; ++j) {
    float* brow = bgrad + j * k;
    for (int64_t i = 0; i < m; ++i) {
      const float gv = g[i * n + j];
      if (gv == 0.0f) continue;
      const float* arow = ad + i * k;
      for (int64_t p = 0; p < k; ++p) brow[p] += gv * arow[p];
    }
  }
}

// Every dimension the tests draw: both sides of the 16-lane vector and
// the 64-column tile edges, plus empty and single-element extents.
const int64_t kDims[] = {0, 1, 3, 31, 32, 33, 63, 64, 65, 129};

constexpr float kInf = std::numeric_limits<float>::infinity();

enum class Op { kMatMul, kMatMulTransB };

// One problem: inputs, the upstream gradient and the values both
// gradients hold before Backward.
struct Problem {
  Op op;
  int64_t m, k, n;
  std::vector<float> a, b, upstream, a_grad0, b_grad0;
};

// Normal values with about a third exact zeros (a few of them -0.0).
std::vector<float> RandomValues(int64_t size, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(size));
  for (float& x : v) {
    const double u = rng->Uniform();
    if (u < 0.3) {
      x = 0.0f;
    } else if (u < 0.35) {
      x = -0.0f;
    } else {
      x = static_cast<float>(rng->Normal());
    }
  }
  return v;
}

// A random problem whose zero skip guards a non-finite value: MatMul
// zeroes A's column p* except for a 1 in row 0, and puts +inf and -inf in
// row p* of B; MatMulTransB zeroes the upstream gradient's column j* and
// puts them in row j* of B, which only its dA skip reads past.
Problem MakeProblem(Op op, int64_t m, int64_t k, int64_t n, uint64_t seed) {
  Rng rng(seed);
  Problem pr{op, m, k, n, {}, {}, {}, {}, {}};
  const int64_t b_rows = op == Op::kMatMul ? k : n;
  const int64_t b_cols = op == Op::kMatMul ? n : k;
  pr.a = RandomValues(m * k, &rng);
  pr.b = RandomValues(b_rows * b_cols, &rng);
  pr.upstream = RandomValues(m * n, &rng);
  pr.a_grad0 = RandomValues(m * k, &rng);
  pr.b_grad0 = RandomValues(b_rows * b_cols, &rng);
  if (b_rows > 0 && b_cols > 0) {
    const int64_t row = b_rows / 2;
    pr.b[row * b_cols] = kInf;
    pr.b[row * b_cols + b_cols - 1] = -kInf;
    if (op == Op::kMatMul) {
      for (int64_t i = 0; i < m; ++i) {
        pr.a[i * k + row] = i == 0 ? 1.0f : 0.0f;
      }
    } else {
      for (int64_t i = 0; i < m; ++i) pr.upstream[i * n + row] = 0.0f;
    }
  }
  return pr;
}

struct Results {
  std::vector<float> out, a_grad, b_grad;
  // dC as the tape handed it to the op's backward (empty if it never ran).
  std::vector<float> out_grad;
};

// Runs the op on the tape: loss = sum(C .* upstream), so dC = upstream.
Results RunOp(const Problem& pr, bool a_requires_grad, bool b_requires_grad) {
  const std::vector<int64_t> b_shape = pr.op == Op::kMatMul
                                           ? std::vector<int64_t>{pr.k, pr.n}
                                           : std::vector<int64_t>{pr.n, pr.k};
  Tensor a = Tensor::FromVector({pr.m, pr.k}, pr.a, a_requires_grad);
  Tensor b = Tensor::FromVector(b_shape, pr.b, b_requires_grad);
  if (a_requires_grad) a.impl()->grad = pr.a_grad0;
  if (b_requires_grad) b.impl()->grad = pr.b_grad0;
  Tensor c = pr.op == Op::kMatMul ? MatMul(a, b) : MatMulTransB(a, b);
  Sum(Mul(c, Tensor::FromVector({pr.m, pr.n}, pr.upstream))).Backward();
  return {c.values(), a.grad_values(), b.grad_values(), c.grad_values()};
}

// The same products through the reference loops, fed the dC the tape
// produced in `run`.
Results RunReference(const Problem& pr, const Results& run,
                     bool a_requires_grad, bool b_requires_grad) {
  const int64_t m = pr.m, k = pr.k, n = pr.n;
  Results r{std::vector<float>(static_cast<size_t>(m * n), 0.0f), {}, {}, {}};
  const float* g = run.out_grad.data();
  if (a_requires_grad) r.a_grad = pr.a_grad0;
  if (b_requires_grad) r.b_grad = pr.b_grad0;
  // The tape skips a node whose gradient is empty.
  const bool backward = !run.out_grad.empty();
  if (pr.op == Op::kMatMul) {
    RefMatMulForward(pr.a.data(), pr.b.data(), r.out.data(), m, k, n);
    if (backward && a_requires_grad) {
      RefMatMulGradA(g, pr.b.data(), r.a_grad.data(), m, k, n);
    }
    if (backward && b_requires_grad) {
      RefMatMulGradB(g, pr.a.data(), r.b_grad.data(), m, k, n);
    }
  } else {
    RefTransBForward(pr.a.data(), pr.b.data(), r.out.data(), m, k, n);
    if (backward && a_requires_grad) {
      RefTransBGradA(g, pr.b.data(), r.a_grad.data(), m, k, n);
    }
    if (backward && b_requires_grad) {
      RefTransBGradB(g, pr.a.data(), r.b_grad.data(), m, k, n);
    }
  }
  return r;
}

bool BitwiseEqual(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

void ExpectBitwiseEqual(const Results& got, const Results& want) {
  EXPECT_TRUE(BitwiseEqual(got.out, want.out)) << "output";
  EXPECT_TRUE(BitwiseEqual(got.a_grad, want.a_grad)) << "dA";
  EXPECT_TRUE(BitwiseEqual(got.b_grad, want.b_grad)) << "dB";
}

class GemmTest : public ::testing::Test {
 protected:
  ~GemmTest() override { SetParallelThreads(0); }

  // Every (m, k, n) drawn from kDims against the reference loops.
  static void CheckAllShapes(Op op, bool a_requires_grad,
                             bool b_requires_grad) {
    uint64_t seed = 1;
    for (int64_t m : kDims) {
      for (int64_t k : kDims) {
        for (int64_t n : kDims) {
          SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k
                                            << " n=" << n);
          const Problem pr = MakeProblem(op, m, k, n, seed++);
          const Results got = RunOp(pr, a_requires_grad, b_requires_grad);
          ExpectBitwiseEqual(
              got, RunReference(pr, got, a_requires_grad, b_requires_grad));
        }
      }
    }
  }
};

TEST_F(GemmTest, MatMulMatchesReferenceLoops) {
  SetParallelThreads(1);
  CheckAllShapes(Op::kMatMul, true, true);
}

TEST_F(GemmTest, MatMulTransBMatchesReferenceLoops) {
  SetParallelThreads(1);
  CheckAllShapes(Op::kMatMulTransB, true, true);
}

TEST_F(GemmTest, OneSidedGradientsMatchReferenceLoops) {
  SetParallelThreads(1);
  for (Op op : {Op::kMatMul, Op::kMatMulTransB}) {
    CheckAllShapes(op, true, false);
    CheckAllShapes(op, false, true);
  }
}

// Row p* of B holds +-inf and only row 0 of A reaches it, so every other
// output row stays finite; MatMulTransB's dA skips the zero upstream
// column and stays finite too.
TEST_F(GemmTest, ZeroSkipKeepsNonFiniteValuesOut) {
  SetParallelThreads(1);
  const Problem mm = MakeProblem(Op::kMatMul, 33, 65, 65, 7);
  const Results mm_got = RunOp(mm, true, true);
  for (int64_t i = 1; i < mm.m; ++i) {
    for (int64_t j = 0; j < mm.n; ++j) {
      ASSERT_TRUE(std::isfinite(mm_got.out[i * mm.n + j])) << i << "," << j;
    }
  }
  EXPECT_FALSE(std::isfinite(mm_got.out[0]));
  ExpectBitwiseEqual(mm_got, RunReference(mm, mm_got, true, true));

  const Problem tb = MakeProblem(Op::kMatMulTransB, 33, 65, 65, 8);
  const Results tb_got = RunOp(tb, true, true);
  for (float v : tb_got.a_grad) ASSERT_TRUE(std::isfinite(v));
  ExpectBitwiseEqual(tb_got, RunReference(tb, tb_got, true, true));
}

TEST_F(GemmTest, BitwiseIdenticalAcrossThreadCounts) {
  const int64_t big[] = {63, 65, 129};
  uint64_t seed = 100;
  for (Op op : {Op::kMatMul, Op::kMatMulTransB}) {
    for (int64_t m : big) {
      for (int64_t k : big) {
        for (int64_t n : big) {
          SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k
                                            << " n=" << n);
          const Problem pr = MakeProblem(op, m, k, n, seed++);
          SetParallelThreads(1);
          const Results one = RunOp(pr, true, true);
          SetParallelThreads(4);
          const Results four = RunOp(pr, true, true);
          ExpectBitwiseEqual(four, one);
          ExpectBitwiseEqual(one, RunReference(pr, one, true, true));
        }
      }
    }
  }
}

// Finite differences through both ops on shapes past the 16-lane and
// 64-column edges, at the default GradCheck tolerances. The loss is
// linear in each probed tensor and every value is positive, so no
// gradient entry is small next to the rounding of the loss.
TEST(GemmGradCheckTest, MatMulAndTransBAcrossTileEdges) {
  Rng rng(3);
  auto positive = [&rng](std::vector<int64_t> shape) {
    std::vector<float> v(static_cast<size_t>(shape[0] * shape[1]));
    for (float& x : v) x = static_cast<float>(rng.Uniform(0.5, 1.0));
    return Tensor::FromVector(std::move(shape), std::move(v));
  };
  const Tensor x = positive({2, 3});
  const Tensor w = positive({3, 65});
  const Tensor u = positive({17, 65});
  const Tensor r = positive({2, 17});
  // [2,3] x [3,65] -> [2,65], then x [17,65]^T -> [2,17].
  auto loss = [&](const Tensor& x, const Tensor& w) {
    return Sum(Mul(MatMulTransB(MatMul(x, w), u), r));
  };
  testing::GradCheck(x, [&](const Tensor& t) { return loss(t, w); });
  testing::GradCheck(w, [&](const Tensor& t) { return loss(x, t); });
}

}  // namespace
}  // namespace sgcl
