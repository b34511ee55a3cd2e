// Dense row-major GEMM kernels behind the autograd MatMul and
// MatMulTransB (tensor/ops.cc): the forward product and both gradients of
// each op are one call here, after at most one transpose pack.
//
// Bitwise contract. Every output element is summed in a fixed order that
// does not depend on the ISA clone, the tile width or the thread count:
//   - GemmAccumulate starts from C's current value and adds the terms for
//     p = 0, 1, ..., k-1 in turn, skipping each p with A[i,p] == 0;
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
#include <vector>

namespace sgcl {

// C[m,n] += A[m,k] * B[k,n]. Terms with A[i,p] == 0 are skipped, so an
// inf or NaN in row p of B reaches only the rows of C whose A[i,p] is
// nonzero.
void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n);

// C[m,n] = A[m,k] * B[k,n], or C += A * B when `accumulate`. Each element
// is a private dot product summed from 0 before it touches C.
void GemmDot(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate);

// The [cols,rows] row-major transpose of src[rows,cols].
std::vector<float> PackTransposed(const float* src, int64_t rows,
                                  int64_t cols);

}  // namespace sgcl

#endif  // SGCL_TENSOR_GEMM_H_
