// Dense row-major GEMM kernels behind the autograd MatMul, MatMulTransB
// and Affine (tensor/ops.cc): the forward product and both gradients of
// each op are one call here, after at most one transpose pack of a
// weight-sized operand.
//
// Bitwise contract. Every output element is summed in a fixed order that
// does not depend on the ISA clone, the tile width or the thread count:
//   - GemmAccumulate starts from C's current value (or from 0) and adds
//     the terms for p = 0, 1, ..., k-1 in turn, skipping each p with
//     A[i,p] == 0; GemmAccumulateTransA does the same with Aᵀ, reading A
//     column by column;
//   - GemmDot forms a private sum from 0 over p ascending, with no skip,
//     and then stores it into C or adds it to C.
// The kernels are compiled with FMA contraction off (src/CMakeLists.txt),
// so each term is one rounded multiply and one rounded add, as in the
// baseline-ISA build. Rows of C are partitioned across the shared pool
// (common/parallel.h), each row owned by one chunk, so results are
// identical for every thread count.
#ifndef SGCL_TENSOR_GEMM_H_
#define SGCL_TENSOR_GEMM_H_

#include <cstdint>

#include "tensor/buffer.h"

namespace sgcl {

// C[m,n] += A[m,k] * B[k,n], or C = A * B without `accumulate`. Terms
// with A[i,p] == 0 are skipped, so an inf or NaN in row p of B reaches
// only the rows of C whose A[i,p] is nonzero. Without `accumulate` C need
// not be initialized: each sum starts from 0, which gives the bits of
// accumulating into a zeroed C.
void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n, bool accumulate);

// C[k,n] += Aᵀ * B for A [m,k] and B [m,n]: each element adds its terms
// for i = 0, 1, ..., m-1 in turn, skipping each i with A[i,p] == 0. It
// gives the bits of GemmAccumulate on PackTransposed(A) without the pack.
void GemmAccumulateTransA(const float* a, const float* b, float* c,
                          int64_t m, int64_t k, int64_t n);

// C[m,n] = A[m,k] * B[k,n], or C += A * B when `accumulate`. Each element
// is a private dot product summed from 0 before it touches C.
void GemmDot(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate);

// The [cols,rows] row-major transpose of src[rows,cols].
FloatBuffer PackTransposed(const float* src, int64_t rows, int64_t cols);

}  // namespace sgcl

#endif  // SGCL_TENSOR_GEMM_H_
