// BufferRecycler: size classes, reuse without new heap bytes, the
// retention cap, and concurrent use from many threads.
#include "tensor/buffer.h"

#include <thread>
#include <vector>

#include "common/metrics.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

int64_t HeapBytes() {
  return MetricsRegistry::Global()
      .GetCounter("tensor/buffer_heap_bytes")
      ->value();
}

TEST(BufferRecyclerTest, SizeClassesSplitEachDoublingInEight) {
  size_t c = 0;
  EXPECT_EQ(BufferRecycler::RoundUp(1, &c), 64u);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(BufferRecycler::RoundUp(65, &c), 72u);
  EXPECT_EQ(c, 1u);
  EXPECT_EQ(BufferRecycler::RoundUp(128, &c), 128u);
  EXPECT_EQ(c, 8u);
  EXPECT_EQ(BufferRecycler::RoundUp(129, &c), 144u);
  EXPECT_EQ(c, 9u);
  // 768 x 64 floats, one train_mol activation.
  EXPECT_EQ(BufferRecycler::RoundUp(196608, &c), 196608u);
  size_t prev_class = 0;
  size_t prev_bytes = 64;
  for (size_t bytes = 65; bytes < (1u << 20); bytes += 61) {
    const size_t rounded = BufferRecycler::RoundUp(bytes, &c);
    EXPECT_GE(rounded, bytes);
    EXPECT_LE(rounded, bytes + bytes / 8 + 8);
    EXPECT_GE(c, prev_class);
    if (c == prev_class) EXPECT_EQ(rounded, prev_bytes);
    prev_class = c;
    prev_bytes = rounded;
  }
}

TEST(BufferRecyclerTest, ReleasedBuffersAreReusedWithoutNewHeapBytes) {
  { FloatBuffer warm = FloatBuffer::Uninitialized(10000); }
  const int64_t before = HeapBytes();
  for (int i = 0; i < 100; ++i) {
    FloatBuffer b = FloatBuffer::Uninitialized(10000);
    b[0] = 1.0f;
  }
  // A slightly smaller request fits the retained block too.
  { FloatBuffer smaller = FloatBuffer::Uninitialized(9000); }
  EXPECT_EQ(HeapBytes(), before);
  EXPECT_GT(BufferRecycler::Global().retained_bytes(), 0u);
}

TEST(BufferRecyclerTest, FilledAndCopiedBuffersHoldTheirValues) {
  FloatBuffer filled(5, 2.5f);
  FloatBuffer copy(filled);
  copy[1] = -1.0f;
  EXPECT_EQ(filled, std::vector<float>({2.5f, 2.5f, 2.5f, 2.5f, 2.5f}));
  EXPECT_EQ(copy, std::vector<float>({2.5f, -1.0f, 2.5f, 2.5f, 2.5f}));
  const std::vector<float> as_vector = copy;
  EXPECT_EQ(as_vector.size(), 5u);
  FloatBuffer moved(std::move(copy));
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(moved.size(), 5u);
  EXPECT_TRUE(FloatBuffer::Uninitialized(0).empty());
}

TEST(BufferRecyclerTest, RetainedBytesStayUnderTheCap) {
  constexpr size_t kBlockFloats = size_t{8} << 20;  // 32 MiB
  const size_t blocks =
      BufferRecycler::kMaxRetainedBytes / (kBlockFloats * sizeof(float)) + 2;
  {
    std::vector<FloatBuffer> held;
    for (size_t i = 0; i < blocks; ++i) {
      held.push_back(FloatBuffer::Uninitialized(kBlockFloats));
    }
  }
  EXPECT_LE(BufferRecycler::Global().retained_bytes(),
            BufferRecycler::kMaxRetainedBytes);
  BufferRecycler::Global().Trim();
  EXPECT_EQ(BufferRecycler::Global().retained_bytes(), 0u);
}

TEST(BufferRecyclerTest, ConcurrentAcquireAndReleaseKeepBuffersPrivate) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      for (int r = 0; r < kRounds; ++r) {
        const size_t n = 16 + static_cast<size_t>((r * 7 + t) % 300);
        FloatBuffer b = FloatBuffer::Uninitialized(n);
        for (size_t i = 0; i < n; ++i) b[i] = static_cast<float>(t);
        FloatBuffer c(b);
        for (size_t i = 0; i < n; ++i) {
          if (b[i] != static_cast<float>(t) || c[i] != b[i]) ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

}  // namespace
}  // namespace sgcl
