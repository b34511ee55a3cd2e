#include "tensor/buffer.h"

#include <bit>
#include <cstdlib>

#include "common/check.h"
#include "common/metrics.h"

namespace sgcl {
namespace {

constexpr size_t kMinBlock = 64;
// A request that misses its own class may take a block up to this many
// classes larger (at most ~50% bigger) before going to the heap, so
// batches whose node counts differ share blocks.
constexpr size_t kLargerClasses = 4;

Counter* HeapBytes() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("tensor/buffer_heap_bytes");
  return c;
}

// Block size of class c, the inverse of BufferRecycler::RoundUp.
size_t ClassBytes(size_t c) {
  if (c == 0) return kMinBlock;
  const size_t e = 6 + (c - 1) / 8;
  return (size_t{1} << e) + ((c - 1) % 8 + 1) * (size_t{1} << (e - 3));
}

Gauge* RetainedGauge() {
  static Gauge* const g =
      MetricsRegistry::Global().GetGauge("tensor/buffer_retained_bytes");
  return g;
}

}  // namespace

BufferRecycler& BufferRecycler::Global() {
  // Leaked so buffers in static storage can be released during exit.
  // NOLINTNEXTLINE(sgcl-R5): intentionally leaked singleton
  static BufferRecycler* recycler = new BufferRecycler();
  return *recycler;
}

size_t BufferRecycler::RoundUp(size_t bytes, size_t* size_class) {
  if (bytes <= kMinBlock) {
    *size_class = 0;
    return kMinBlock;
  }
  // 2^e < bytes <= 2^(e+1), e >= 6; steps of 2^(e-3) split the doubling
  // into eight classes.
  const size_t e = static_cast<size_t>(std::bit_width(bytes - 1)) - 1;
  const size_t step = size_t{1} << (e - 3);
  const size_t rounded = (bytes + step - 1) / step * step;
  *size_class = (e - 6) * 8 + rounded / step - 8;
  return rounded;
}

void* BufferRecycler::Acquire(size_t bytes, size_t* capacity) {
  SGCL_CHECK_GT(bytes, 0u);
  size_t size_class = 0;
  const size_t rounded = RoundUp(bytes, &size_class);
  SGCL_DCHECK(ClassBytes(size_class) == rounded);
  void* outgrown = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t classes = free_.size();
    for (size_t c = size_class;
         c <= size_class + kLargerClasses && c < classes; ++c) {
      if (free_[c].empty()) continue;
      void* block = free_[c].back();
      free_[c].pop_back();
      *capacity = ClassBytes(c);
      retained_ -= *capacity;
      RetainedGauge()->Set(static_cast<double>(retained_));
      return block;
    }
    // Nothing fits. A free block a few classes smaller was most likely
    // left by a smaller batch of the same shapes, which this request has
    // outgrown: give it back instead of holding both.
    for (size_t c = std::min(size_class, classes);
         c > 0 && c + kLargerClasses > size_class; --c) {
      if (free_[c - 1].empty()) continue;
      outgrown = free_[c - 1].back();
      free_[c - 1].pop_back();
      retained_ -= ClassBytes(c - 1);
      RetainedGauge()->Set(static_cast<double>(retained_));
      break;
    }
  }
  std::free(outgrown);
  void* block = std::malloc(rounded);
  SGCL_CHECK(block != nullptr);
  HeapBytes()->Increment(static_cast<int64_t>(rounded));
  *capacity = rounded;
  return block;
}

void BufferRecycler::Release(void* block, size_t capacity) {
  size_t size_class = 0;
  RoundUp(capacity, &size_class);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (retained_ + capacity <= kMaxRetainedBytes) {
      if (free_.size() <= size_class) free_.resize(size_class + 1);
      free_[size_class].push_back(block);
      retained_ += capacity;
      RetainedGauge()->Set(static_cast<double>(retained_));
      return;
    }
  }
  std::free(block);
}

size_t BufferRecycler::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_;
}

void BufferRecycler::Trim() {
  std::vector<std::vector<void*>> blocks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    blocks.swap(free_);
    retained_ = 0;
    RetainedGauge()->Set(0.0);
  }
  for (const auto& list : blocks) {
    for (void* block : list) std::free(block);
  }
}

}  // namespace sgcl
