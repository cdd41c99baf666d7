// Aligned flat storage for the big DP value/choice arrays.
//
// The DP tables are the largest allocations in the solver (sigma int32
// entries, up to the DpLimits::max_table_entries cap of ~64M). A plain
// std::vector gives 16-byte alignment; TableBuffer instead guarantees
// cache-line alignment, so the SIMD kernels' unaligned loads never split a
// line at the base.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pcmax {

/// Fixed-size aligned array of trivially copyable elements. Replaces
/// std::vector for the DP tables; the size is fixed at construction (DP
/// tables never grow) and the storage is cache-line aligned.
template <typename T>
class TableBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "TableBuffer is for flat POD tables");

 public:
  static constexpr std::size_t kCacheLine = 64;

  TableBuffer() = default;

  /// Allocates `size` elements, all initialised to `fill`.
  TableBuffer(std::size_t size, T fill) : size_(size) {
    if (size_ == 0) return;
    data_ = allocate(size_);
    std::fill_n(data_, size_, fill);
  }

  TableBuffer(const TableBuffer& other) : size_(other.size_) {
    if (size_ == 0) return;
    data_ = allocate(size_);
    std::copy_n(other.data_, size_, data_);
  }

  TableBuffer& operator=(const TableBuffer& other) {
    if (this != &other) {
      TableBuffer copy(other);
      swap(copy);
    }
    return *this;
  }

  TableBuffer(TableBuffer&& other) noexcept { swap(other); }

  TableBuffer& operator=(TableBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }

  ~TableBuffer() { release(); }

  void swap(TableBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  /// Alignment of the live allocation in bytes (0 when empty).
  [[nodiscard]] std::size_t alignment() const {
    return data_ == nullptr ? 0 : kCacheLine;
  }

 private:
  static T* allocate(std::size_t size) {
    return static_cast<T*>(
        ::operator new(size * sizeof(T), std::align_val_t(kCacheLine)));
  }

  void release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t(kCacheLine));
      data_ = nullptr;
    }
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pcmax
