// OpenMP-backed parallel-for and runtime controls.
//
// This is the project's replacement for the Cilk runtime the original Ligra
// uses: a grain-sized parallel loop plus thread-count control. Everything
// else in the repo (edgeMap, generators, GEE backends) builds on these
// wrappers rather than spelling out pragmas, so scheduling policy lives in
// one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include <omp.h>

#include "util/buffer.hpp"

// ThreadSanitizer interop. OpenMP's fork/join synchronization happens
// inside the runtime (libgomp), which TSan builds cannot see, so a
// sanitized binary would report false races between one region's writes
// and a later region's reads -- accesses that are in fact ordered by the
// implicit barrier. Every OpenMP region in this project goes through the
// wrappers below (raw pragmas are banned outside this header), so the
// edges are restored manually: the forking thread releases a per-region
// sync token, each worker acquires it on entry and releases it after the
// region's work, and the forking thread acquires after the join.
#if defined(__SANITIZE_THREAD__)
#define GEE_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GEE_TSAN_ENABLED 1
#endif
#endif
#ifdef GEE_TSAN_ENABLED
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#endif

namespace gee::par {

namespace detail {

inline void tsan_release([[maybe_unused]] void* sync) noexcept {
#ifdef GEE_TSAN_ENABLED
  __tsan_release(sync);
#endif
}

inline void tsan_acquire([[maybe_unused]] void* sync) noexcept {
#ifdef GEE_TSAN_ENABLED
  __tsan_acquire(sync);
#endif
}

}  // namespace detail

/// Default minimum work per task; below this, loops run serially. Chosen so
/// that per-iteration work of ~a few ns still amortizes scheduling overhead.
inline constexpr std::size_t kDefaultGrain = 2048;

/// Number of threads a parallel region will use right now.
inline int num_threads() noexcept { return omp_get_max_threads(); }

/// Hard cap on threads for subsequent parallel regions.
inline void set_num_threads(int n) noexcept { omp_set_num_threads(n); }

/// Calling thread's id inside a parallel region (0 outside).
inline int thread_id() noexcept { return omp_get_thread_num(); }

/// True when executing inside an active parallel region.
inline bool in_parallel() noexcept { return omp_in_parallel() != 0; }

/// RAII: temporarily set the global thread count, restore on destruction.
/// Benchmarks use this for strong-scaling sweeps (Figure 3).
class ThreadScope {
 public:
  explicit ThreadScope(int n) noexcept : saved_(num_threads()) {
    if (n > 0) set_num_threads(n);
  }
  ~ThreadScope() { set_num_threads(saved_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_;
};

/// parallel_for(begin, end, f [, grain]): f(i) for each i in [begin, end).
///
/// Static schedule: iterations are divided into contiguous blocks, which is
/// the right default for the memory-bound kernels in this project (preserves
/// spatial locality, enables first-touch placement). Use parallel_for_dynamic
/// for skewed per-iteration work such as power-law vertex degrees.
template <class Index, class Fn>
void parallel_for(Index begin, Index end, Fn&& f,
                  std::size_t grain = kDefaultGrain) {
  static_assert(std::is_integral_v<Index>);
  if (begin >= end) return;
  const auto n = static_cast<std::size_t>(end - begin);
  if (n <= grain || num_threads() == 1 || in_parallel()) {
    for (Index i = begin; i < end; ++i) f(i);
    return;
  }
  char sync;  // per-region fork/join token (see TSan note above)
  detail::tsan_release(&sync);
#pragma omp parallel
  {
    detail::tsan_acquire(&sync);
#pragma omp for schedule(static)
    for (Index i = begin; i < end; ++i) f(i);
    detail::tsan_release(&sync);
  }
  detail::tsan_acquire(&sync);
}

/// Dynamic-schedule variant for irregular work (per-vertex edge lists of a
/// skewed graph). `chunk` iterations are handed out at a time.
template <class Index, class Fn>
void parallel_for_dynamic(Index begin, Index end, Fn&& f,
                          std::size_t chunk = 64) {
  static_assert(std::is_integral_v<Index>);
  if (begin >= end) return;
  const auto n = static_cast<std::size_t>(end - begin);
  if (n <= chunk || num_threads() == 1 || in_parallel()) {
    for (Index i = begin; i < end; ++i) f(i);
    return;
  }
  const int omp_chunk = static_cast<int>(chunk);
  char sync;
  detail::tsan_release(&sync);
#pragma omp parallel
  {
    detail::tsan_acquire(&sync);
#pragma omp for schedule(dynamic, omp_chunk)
    for (Index i = begin; i < end; ++i) f(i);
    detail::tsan_release(&sync);
  }
  detail::tsan_acquire(&sync);
}

/// Run f(thread_id, num_threads_in_team) once per thread of a fresh team.
/// Building block for per-thread scratch (histograms, counting sort).
template <class Fn>
void parallel_team(Fn&& f) {
  if (num_threads() == 1 || in_parallel()) {
    f(0, 1);
    return;
  }
  char sync;
  detail::tsan_release(&sync);
#pragma omp parallel
  {
    detail::tsan_acquire(&sync);
    f(omp_get_thread_num(), omp_get_num_threads());
    detail::tsan_release(&sync);
  }
  detail::tsan_acquire(&sync);
}

/// Split [0, n) into nearly equal contiguous blocks; returns [lo, hi) of
/// block `b` of `nblocks`. All chunked-deterministic generators use this.
struct BlockRange {
  std::size_t lo, hi;
};
inline BlockRange block_range(std::size_t n, std::size_t nblocks,
                              std::size_t b) noexcept {
  const std::size_t base = n / nblocks;
  const std::size_t rem = n % nblocks;
  const std::size_t lo = b * base + (b < rem ? b : rem);
  const std::size_t extra = b < rem ? 1 : 0;
  return {lo, lo + base + extra};
}

/// Parallel zero-fill of trivially-copyable storage. First-touch: pages are
/// touched by the thread that will (statically) own that index range later.
template <class T>
void fill_zero(T* data, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  parallel_for(std::size_t{0}, n, [&](std::size_t i) { data[i] = T{}; },
               /*grain=*/1 << 16);
}

/// A new n-element buffer that reads all zero, initialised in parallel with
/// fill_zero's static schedule so each page is first touched by the thread
/// that owns its index range. A mapped() buffer comes zeroed from the
/// kernel, so only one element per 4 KiB page is written (which faults the
/// page in where it will be used) instead of every byte a second time.
template <class T>
util::UninitBuffer<T> zeroed_buffer(std::size_t n) {
  util::UninitBuffer<T> buf(n);
  if (!buf.mapped()) {
    fill_zero(buf.data(), n);
    return buf;
  }
  // One element every 4 KiB (every element, when T is larger) writes to
  // every page, for any page size of 4 KiB or more.
  constexpr std::size_t kStride = sizeof(T) >= 4096 ? 1 : 4096 / sizeof(T);
  T* data = buf.data();
  parallel_for(std::size_t{0}, (n + kStride - 1) / kStride,
               [&](std::size_t p) { data[p * kStride] = T{}; },
               /*grain=*/(std::size_t{1} << 16) / kStride);
  return buf;
}

/// Parallel fill with a constant value.
template <class T>
void fill(T* data, std::size_t n, T value) {
  parallel_for(std::size_t{0}, n, [&](std::size_t i) { data[i] = value; },
               /*grain=*/1 << 16);
}

}  // namespace gee::par
