// Cache-line-aligned, optionally uninitialized storage.
//
// The embedding matrix Z is n*K doubles (2.6 GB at Friendster scale in the
// paper). std::vector value-initializes, which (a) touches every page on one
// thread and (b) defeats first-touch NUMA placement. UninitBuffer allocates
// aligned raw storage for trivially-copyable types and leaves initialization
// to the caller, which zero-fills in parallel (see par::zeroed_buffer).
//
// Large buffers (>= kHugePageBytes) are anonymous mappings aligned to 2 MiB
// and advised MADV_HUGEPAGE, so with transparent huge pages in `always` or
// `madvise` mode they fault in as 2 MiB pages: one fault per 512 small ones,
// and fewer TLB misses on Z's random-row writes. Where huge pages are
// unavailable the advice has no effect and the mapping uses small pages.
// Either way a fresh mapping reads zero until first written (mapped()),
// which par::zeroed_buffer relies on to skip a second zero-fill. Smaller
// buffers use aligned operator new.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace gee::util {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Size and alignment of a transparent huge page on x86-64 (and arm64 with
/// 4 KiB base pages). Buffers at least this large are mmap-backed.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Owning, 64-byte-aligned buffer of trivially-copyable T. Contents are
/// uninitialized after construction and reset, except that a mapped()
/// buffer reads zero until first written.
template <class T>
class UninitBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "UninitBuffer requires trivially copyable element types");

 public:
  UninitBuffer() noexcept = default;

  explicit UninitBuffer(std::size_t n) { allocate(n); }

  UninitBuffer(const UninitBuffer&) = delete;
  UninitBuffer& operator=(const UninitBuffer&) = delete;

  UninitBuffer(UninitBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  UninitBuffer& operator=(UninitBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~UninitBuffer() { release(); }

  /// Discard contents and reallocate to exactly n elements.
  void reset(std::size_t n) {
    release();
    allocate(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }

  /// True when the storage is its own anonymous mapping (size in bytes
  /// >= kHugePageBytes): the kernel handed it out zeroed.
  [[nodiscard]] bool mapped() const noexcept { return is_mapped(size_); }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
  [[nodiscard]] std::span<const T> span() const noexcept { return {data_, size_}; }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  // n is a size_ that allocate() accepted, so n * sizeof(T) cannot wrap.
  static bool is_mapped(std::size_t n) noexcept {
    return n * sizeof(T) >= kHugePageBytes;
  }

  void allocate(std::size_t n) {
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    if (n == 0) {
      data_ = nullptr;
    } else if (is_mapped(n)) {
      data_ = static_cast<T*>(map_huge(n * sizeof(T)));
    } else {
      data_ = static_cast<T*>(::operator new[](
          n * sizeof(T), std::align_val_t{kCacheLineBytes}));
    }
    size_ = n;
  }

  void release() noexcept {
    if (data_ != nullptr) {
      if (is_mapped(size_)) {
        ::munmap(data_, size_ * sizeof(T));
      } else {
        ::operator delete[](data_, std::align_val_t{kCacheLineBytes});
      }
      data_ = nullptr;
    }
    size_ = 0;
  }

  /// Map `bytes` (rounded up to whole pages) at a kHugePageBytes-aligned
  /// address: map one huge page extra, then unmap the unaligned head and
  /// the unused tail.
  static void* map_huge(std::size_t bytes) {
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t length = (bytes + page - 1) / page * page;
    void* raw = ::mmap(nullptr, length + kHugePageBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned =
        (base + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
    const std::size_t head = aligned - base;
    if (head > 0) ::munmap(raw, head);
    const std::size_t tail = kHugePageBytes - head;
    if (tail > 0) ::munmap(reinterpret_cast<void*>(aligned + length), tail);
    // Advice only: EINVAL on kernels without THP leaves small pages.
    ::madvise(reinterpret_cast<void*>(aligned), length, MADV_HUGEPAGE);
    return reinterpret_cast<void*>(aligned);
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace gee::util
