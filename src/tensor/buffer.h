// Recycled storage for tensor data, gradients and kernel scratch.
//
// A training step builds and frees the same tape again and again: every
// op output owns a data buffer and, on the tape, a gradient buffer of the
// same shape. Taking each from malloc and giving it back at the end of
// the step zero-fills or copies fresh pages and lets glibc hand the freed
// tape back to the kernel, only to fault it in again on the next step.
//
// BufferRecycler keeps released blocks in size classes (eight per
// doubling) and hands them out again. A block goes back to the recycler
// when the buffer that owns it is destroyed, so a tensor kept past the
// step stays valid; nothing is reset at a step boundary. Retained bytes
// are capped by kMaxRetainedBytes; blocks beyond the cap go back to the
// heap. After one warm-up step of a given shape mix, a step takes no new
// bytes from the heap.
//
// Buffer<T> is the owning handle: a contiguous array of trivially
// copyable T with the parts of the std::vector interface the tensor code
// uses. Uninitialized() hands out storage without touching it, for ops
// that assign every element.
//
// Metrics (common/metrics.h):
//   tensor/buffer_heap_bytes      counter: block bytes newly taken from
//                                 the heap (0 per step after warm-up)
//   tensor/buffer_retained_bytes  gauge: bytes held for reuse
#ifndef SGCL_TENSOR_BUFFER_H_
#define SGCL_TENSOR_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace sgcl {

class BufferRecycler {
 public:
  // Upper bound on the bytes held for reuse across all size classes.
  static constexpr size_t kMaxRetainedBytes = size_t{256} << 20;

  static BufferRecycler& Global();

  // A block of at least `bytes` bytes (bytes > 0). *capacity receives
  // the block's size class, which Release must be given back.
  void* Acquire(size_t bytes, size_t* capacity);
  // Returns a block from Acquire; it is kept for reuse unless that would
  // exceed kMaxRetainedBytes.
  void Release(void* block, size_t capacity);

  size_t retained_bytes() const;
  // Frees every retained block.
  void Trim();

  // Size class of a request: `bytes` rounded up to one of eight steps
  // per doubling (at least 64 bytes).
  static size_t RoundUp(size_t bytes, size_t* size_class);

 private:
  BufferRecycler() = default;

  mutable std::mutex mu_;
  // free_[c] holds retained blocks of size class c.
  std::vector<std::vector<void*>> free_ SGCL_GUARDED_BY(mu_);
  size_t retained_ SGCL_GUARDED_BY(mu_) = 0;
};

template <typename T>
class Buffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  using value_type = T;
  using size_type = size_t;
  using iterator = T*;
  using const_iterator = const T*;

  Buffer() = default;
  // n copies of `value`.
  Buffer(size_t n, T value) : Buffer(Uninitialized(n)) {
    for (size_t i = 0; i < n; ++i) data_[i] = value;
  }
  Buffer(std::initializer_list<T> values)
      : Buffer(Uninitialized(values.size())) {
    std::copy(values.begin(), values.end(), data_);
  }
  explicit Buffer(const std::vector<T>& values)
      : Buffer(Uninitialized(values.size())) {
    if (size_ > 0) std::memcpy(data_, values.data(), size_ * sizeof(T));
  }
  // n elements whose values are unspecified until written.
  static Buffer Uninitialized(size_t n) {
    Buffer b;
    if (n > 0) {
      b.data_ = static_cast<T*>(
          BufferRecycler::Global().Acquire(n * sizeof(T), &b.capacity_));
      b.size_ = n;
    }
    return b;
  }

  Buffer(const Buffer& other) : Buffer(Uninitialized(other.size_)) {
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }
  Buffer(Buffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  Buffer& operator=(const Buffer& other) {
    if (this != &other) *this = Buffer(other);
    return *this;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  Buffer& operator=(const std::vector<T>& values) {
    return *this = Buffer(values);
  }
  Buffer& operator=(std::initializer_list<T> values) {
    return *this = Buffer(values);
  }
  ~Buffer() {
    if (data_ != nullptr) BufferRecycler::Global().Release(data_, capacity_);
  }

  // Replaces the contents with n copies of `value`.
  void assign(size_t n, T value) { *this = Buffer(n, value); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }
  // Code written against std::vector (checkpoint I/O, the SVM, tests)
  // reads a buffer as a copy; hot paths use data().
  operator std::vector<T>() const { return ToVector(); }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const Buffer& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

using FloatBuffer = Buffer<float>;

}  // namespace sgcl

#endif  // SGCL_TENSOR_BUFFER_H_
