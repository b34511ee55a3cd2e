// Microbenchmark for the autograd MatMul / MatMulTransB kernels
// (tensor/gemm.*) and the fused GIN layer nodes: one forward plus
// Backward through every input, at the shapes one SGCL pretraining batch
// of the perfbench `train_mol` workload runs (32 molecules, ~768 nodes,
// ~1700 directed edges, 12 atom features, hidden 64):
//   BM_MatMulFwdBwd/768/12/64     first GIN layer, [768,12] x [12,64]
//   BM_MatMulFwdBwd/768/64/64     later GIN layers, [768,64] x [64,64]
//   BM_MatMulTransBFwdBwd/32/64/64  [32,64] x [64,64]^T
//   BM_AffineReluFwdBwd/768/64/64   ReLU(x W + b), one GIN MLP layer
//   BM_GinAggregateFwdBwd/768/64/1700  the GIN neighbourhood sum
// The left operand is ReLU-like (about half exact zeros), as GIN layer
// inputs are. Both operands require grad. The scalar loss (a serial sum
// over the output) is built outside the timed region; its backward, a
// fill of dC with ones, is timed. One pool thread, as in perfbench.
//
// Unless --benchmark_out is given explicitly, results are written to
// BENCH_tensor.json (google-benchmark JSON) in the working directory:
//   ./build/bench/tensor_bench
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bench_compare.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/graph_ops.h"
#include "tensor/ops.h"

namespace sgcl {
namespace {

Tensor RandomTensor(int64_t rows, int64_t cols, double zero_fraction,
                    Rng* rng) {
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (float& x : v) {
    x = rng->Uniform() < zero_fraction ? 0.0f
                                       : static_cast<float>(rng->Normal());
  }
  return Tensor::FromVector({rows, cols}, std::move(v),
                            /*requires_grad=*/true);
}

// state.range: m, k, n of a [m,k] x [k,n] product.
void BM_MatMulFwdBwd(benchmark::State& state) {
  SetParallelThreads(1);
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  Tensor a = RandomTensor(m, k, 0.5, &rng);
  Tensor b = RandomTensor(k, n, 0.0, &rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    state.PauseTiming();
    Tensor loss = Sum(c);
    state.ResumeTiming();
    loss.Backward();
    benchmark::DoNotOptimize(a.grad());
    benchmark::DoNotOptimize(b.grad());
    benchmark::ClobberMemory();
  }
  SetParallelThreads(0);
}
BENCHMARK(BM_MatMulFwdBwd)
    ->Args({768, 12, 64})
    ->Args({768, 64, 64})
    ->Unit(benchmark::kMicrosecond);

// state.range: m, k, n of a [m,k] x [n,k]^T product.
void BM_MatMulTransBFwdBwd(benchmark::State& state) {
  SetParallelThreads(1);
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  Tensor a = RandomTensor(m, k, 0.5, &rng);
  Tensor b = RandomTensor(n, k, 0.0, &rng);
  for (auto _ : state) {
    Tensor c = MatMulTransB(a, b);
    state.PauseTiming();
    Tensor loss = Sum(c);
    state.ResumeTiming();
    loss.Backward();
    benchmark::DoNotOptimize(a.grad());
    benchmark::DoNotOptimize(b.grad());
    benchmark::ClobberMemory();
  }
  SetParallelThreads(0);
}
BENCHMARK(BM_MatMulTransBFwdBwd)
    ->Args({32, 64, 64})
    ->Unit(benchmark::kMicrosecond);

// state.range: m, k, n of relu([m,k] x [k,n] + [1,n]).
void BM_AffineReluFwdBwd(benchmark::State& state) {
  SetParallelThreads(1);
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  Tensor x = RandomTensor(m, k, 0.5, &rng);
  Tensor w = RandomTensor(k, n, 0.0, &rng);
  Tensor b = RandomTensor(1, n, 0.0, &rng);
  for (auto _ : state) {
    Tensor y = Affine(x, w, b, /*relu=*/true);
    state.PauseTiming();
    Tensor loss = Sum(y);
    state.ResumeTiming();
    loss.Backward();
    benchmark::DoNotOptimize(x.grad());
    benchmark::DoNotOptimize(w.grad());
    benchmark::ClobberMemory();
  }
  SetParallelThreads(0);
}
BENCHMARK(BM_AffineReluFwdBwd)
    ->Args({768, 64, 64})
    ->Unit(benchmark::kMicrosecond);

// state.range: nodes, feature width, edges (random endpoints).
void BM_GinAggregateFwdBwd(benchmark::State& state) {
  SetParallelThreads(1);
  const int64_t n = state.range(0), d = state.range(1), e = state.range(2);
  Rng rng(1);
  Tensor x = RandomTensor(n, d, 0.5, &rng);
  std::vector<int32_t> src(static_cast<size_t>(e)), dst(src.size());
  for (int64_t i = 0; i < e; ++i) {
    src[i] = static_cast<int32_t>(rng.UniformInt(n));
    dst[i] = static_cast<int32_t>(rng.UniformInt(n));
  }
  for (auto _ : state) {
    Tensor y = GinAggregate(x, src, dst, Tensor(), 0.0f);
    state.PauseTiming();
    Tensor loss = Sum(y);
    state.ResumeTiming();
    loss.Backward();
    benchmark::DoNotOptimize(x.grad());
    benchmark::ClobberMemory();
  }
  SetParallelThreads(0);
}
BENCHMARK(BM_GinAggregateFwdBwd)
    ->Args({768, 64, 1700})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) {
  // Default to emitting BENCH_tensor.json unless the caller passed an
  // explicit --benchmark_out.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_tensor.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  // google-benchmark's library_build_type is the benchmark library's
  // build; record sgcl's own next to it.
  benchmark::AddCustomContext("sgcl_build_type", sgcl::SgclBuildType());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
