#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/parallel.h"
#include "common/simd.h"
#include "tensor/buffer.h"

namespace sgcl {
namespace {

// Sixteen floats. Each clone lowers an operation on it to one AVX-512,
// two AVX2 or four SSE instructions, lane by lane, so every lane sees
// the same rounded multiply and add as a scalar loop would.
typedef float Vec16 __attribute__((vector_size(64)));
constexpr int64_t kLanes = 16;

// Columns of C a row tile keeps in registers while its reduction runs.
constexpr int64_t kTileVecs = 4;
constexpr int64_t kTile = kTileVecs * kLanes;

// Floats of B one reduction block of GemmAccumulate reads: 32 KiB.
constexpr int64_t kBlockFloats = 8192;

[[gnu::always_inline]] inline void LoadVec(const float* src, Vec16* v) {
  std::memcpy(v, src, sizeof(Vec16));
}
[[gnu::always_inline]] inline void StoreVec(const Vec16& v, float* dst) {
  std::memcpy(dst, &v, sizeof(Vec16));
}

// Rows per ParallelFor chunk for a kernel costing `flops_per_row`: small
// matrices stay inline; large ones split into ~64 KFLOP tasks.
int64_t RowGrain(int64_t flops_per_row) {
  constexpr int64_t kMinFlopsPerChunk = 1 << 16;
  return std::max<int64_t>(1,
                           kMinFlopsPerChunk / std::max<int64_t>(1, flops_per_row));
}

// Copies columns [j, j + width) of rows [0, rows) of B (row stride ldb),
// width < 16, into 16-float rows padded with zeros, so the last columns
// of C run through the same vector tile as the others.
void PackEdge(const float* b, int64_t ldb, int64_t rows, int64_t j,
              int64_t width, float* edge) {
  std::fill(edge, edge + rows * kLanes, 0.0f);
  for (int64_t p = 0; p < rows; ++p) {
    std::copy(b + p * ldb + j, b + p * ldb + j + width, edge + p * kLanes);
  }
}

// crow[0, 16 * kVecs) += sum over t of vals[t] * B[nz[t], lane], t
// ascending, in kVecs register accumulators. B has row stride ldb. With
// `from_zero` the sum starts from 0 instead of crow's value, which gives
// the same bits as starting from a zeroed crow.
template <int64_t kVecs>
[[gnu::always_inline]] inline void AccumulateTile(const float* vals,
                                                  const int64_t* nz,
                                                  int64_t nnz, const float* b,
                                                  int64_t ldb, bool from_zero,
                                                  float* crow) {
  Vec16 acc[kVecs];
  for (int64_t v = 0; v < kVecs; ++v) {
    if (from_zero) {
      acc[v] = Vec16{};
    } else {
      LoadVec(crow + v * kLanes, &acc[v]);
    }
  }
  for (int64_t t = 0; t < nnz; ++t) {
    const float av = vals[t];
    const float* brow = b + nz[t] * ldb;
    for (int64_t v = 0; v < kVecs; ++v) {
      Vec16 bv;
      LoadVec(brow + v * kLanes, &bv);
      acc[v] += av * bv;
    }
  }
  for (int64_t v = 0; v < kVecs; ++v) StoreVec(acc[v], crow + v * kLanes);
}

// Rows [i0, i1) of C (+)= A·B for an A whose element (i, p) is
// a[i * a_row + p * a_col], so one kernel serves A and Aᵀ. `nz` and
// `vals` are scratch for `block` entries and `edge` for block * 16
// floats.
//
// The reduction runs in blocks of rows of B small enough to stay in L1
// across all rows of C. C holds the running sum between blocks, so each
// element still adds its terms one by one in ascending p. Without
// `accumulate` the first block starts from 0 instead of reading C.
SGCL_TARGET_CLONES
void AccumulateRows(const float* a, int64_t a_row, int64_t a_col,
                    const float* b, float* c, int64_t k, int64_t n,
                    int64_t block, bool accumulate, int64_t i0, int64_t i1,
                    int64_t* nz, float* vals, float* edge) {
  const int64_t full = n - n % kLanes;
  for (int64_t p0 = 0; p0 < k; p0 += block) {
    const int64_t rows = std::min(k - p0, block);
    const float* bblock = b + p0 * n;
    const bool from_zero = !accumulate && p0 == 0;
    if (full < n) PackEdge(bblock, n, rows, full, n - full, edge);
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * a_row + p0 * a_col;
      // The p in the block with A[i,p] != 0, ascending, with their
      // values. Listing them once keeps the zero skip out of the tile
      // loops, where ReLU zeros would make it an unpredictable branch.
      int64_t nnz = 0;
      for (int64_t p = 0; p < rows; ++p) {
        const float av = arow[p * a_col];
        nz[nnz] = p;
        vals[nnz] = av;
        nnz += av != 0.0f ? 1 : 0;
      }
      float* crow = c + i * n;
      int64_t j = 0;
      for (; j + kTile <= n; j += kTile) {
        AccumulateTile<kTileVecs>(vals, nz, nnz, bblock + j, n, from_zero,
                                  crow + j);
      }
      for (; j < full; j += kLanes) {
        AccumulateTile<1>(vals, nz, nnz, bblock + j, n, from_zero, crow + j);
      }
      if (full < n) {
        float tail[kLanes] = {};
        if (!from_zero) std::copy(crow + full, crow + n, tail);
        AccumulateTile<1>(vals, nz, nnz, edge, kLanes, from_zero, tail);
        std::copy(tail, tail + (n - full), crow + full);
      }
    }
  }
}

// crow[0, 16 * kVecs) = (or +=) sum over p of arow[p] * B[p, lane], each
// sum started from 0 and taken over p ascending. B has row stride ldb.
template <int64_t kVecs>
[[gnu::always_inline]] inline void DotTile(const float* arow, int64_t k,
                                           const float* b, int64_t ldb,
                                           bool accumulate, float* crow) {
  Vec16 acc[kVecs];
  for (int64_t v = 0; v < kVecs; ++v) acc[v] = Vec16{};
  for (int64_t p = 0; p < k; ++p) {
    const float av = arow[p];
    const float* brow = b + p * ldb;
    for (int64_t v = 0; v < kVecs; ++v) {
      Vec16 bv;
      LoadVec(brow + v * kLanes, &bv);
      acc[v] += av * bv;
    }
  }
  for (int64_t v = 0; v < kVecs; ++v) {
    if (accumulate) {
      Vec16 cv;
      LoadVec(crow + v * kLanes, &cv);
      acc[v] = cv + acc[v];
    }
    StoreVec(acc[v], crow + v * kLanes);
  }
}

// Rows [i0, i1) of GemmDot. `edge` is scratch for k * 16 floats.
SGCL_TARGET_CLONES
void DotRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
             bool accumulate, int64_t i0, int64_t i1, float* edge) {
  const int64_t full = n - n % kLanes;
  if (full < n) PackEdge(b, n, k, full, n - full, edge);
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + kTile <= n; j += kTile) {
      DotTile<kTileVecs>(arow, k, b + j, n, accumulate, crow + j);
    }
    for (; j < full; j += kLanes) {
      DotTile<1>(arow, k, b + j, n, accumulate, crow + j);
    }
    if (full < n) {
      float tail[kLanes] = {};
      if (accumulate) std::copy(crow + full, crow + n, tail);
      DotTile<1>(arow, k, edge, kLanes, accumulate, tail);
      std::copy(tail, tail + (n - full), crow + full);
    }
  }
}

// C (+)= A·B over rows [0, c_rows) of C, A indexed as in AccumulateRows.
void RunAccumulate(const float* a, int64_t a_row, int64_t a_col,
                   const float* b, float* c, int64_t c_rows, int64_t k,
                   int64_t n, bool accumulate) {
  if (k == 0) {
    if (!accumulate) std::fill(c, c + c_rows * n, 0.0f);
    return;
  }
  const int64_t block = std::min(
      k, std::max<int64_t>(1, kBlockFloats / std::max<int64_t>(1, n)));
  ParallelFor(0, c_rows, RowGrain(k * n), [&](int64_t i0, int64_t i1) {
    Buffer<int64_t> nz = Buffer<int64_t>::Uninitialized(block);
    FloatBuffer vals = FloatBuffer::Uninitialized(block);
    FloatBuffer edge = FloatBuffer::Uninitialized(
        static_cast<size_t>(n % kLanes == 0 ? 0 : block * kLanes));
    AccumulateRows(a, a_row, a_col, b, c, k, n, block, accumulate, i0, i1,
                   nz.data(), vals.data(), edge.data());
  });
}

}  // namespace

void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n, bool accumulate) {
  RunAccumulate(a, /*a_row=*/k, /*a_col=*/1, b, c, m, k, n, accumulate);
}

void GemmAccumulateTransA(const float* a, const float* b, float* c,
                          int64_t m, int64_t k, int64_t n) {
  RunAccumulate(a, /*a_row=*/1, /*a_col=*/k, b, c, k, m, n,
                /*accumulate=*/true);
}

void GemmDot(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  ParallelFor(0, m, RowGrain(k * n), [&](int64_t i0, int64_t i1) {
    FloatBuffer edge = FloatBuffer::Uninitialized(
        static_cast<size_t>(n % kLanes == 0 ? 0 : k * kLanes));
    DotRows(a, b, c, k, n, accumulate, i0, i1, edge.data());
  });
}

FloatBuffer PackTransposed(const float* src, int64_t rows, int64_t cols) {
  FloatBuffer dst = FloatBuffer::Uninitialized(static_cast<size_t>(rows * cols));
  // Square blocks, so both the reads and the writes stay within a few
  // cache lines per block.
  constexpr int64_t kBlock = 16;
  for (int64_t i0 = 0; i0 < rows; i0 += kBlock) {
    const int64_t i1 = std::min(rows, i0 + kBlock);
    for (int64_t j0 = 0; j0 < cols; j0 += kBlock) {
      const int64_t j1 = std::min(cols, j0 + kBlock);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = j0; j < j1; ++j) {
          dst[j * rows + i] = src[i * cols + j];
        }
      }
    }
  }
  return dst;
}

}  // namespace sgcl
