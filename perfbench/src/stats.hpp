// The benchmark's own statistics: the percentile rule, span self time and
// the ok_share tally. Header-only and free of library dependencies, so the
// self-tests (tests/selftest.cpp) exercise exactly what the harness runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is an anecdote, not a statistic.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank position (1-based) of quantile q in n sorted samples.
inline std::size_t rank_of(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Samples strictly beyond the nearest-rank quantile q.
inline std::size_t beyond(std::size_t n, double q) { return n - rank_of(n, q); }

/// True when quantile q of n samples has at least kMinBeyond samples
/// beyond it.
inline bool reportable(std::size_t n, double q) {
  return n > 0 && beyond(n, q) >= kMinBeyond;
}

/// Nearest-rank quantile of `samples` (copied and sorted). 0 when empty.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t r = rank_of(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(r - 1),
                   samples.end());
  return samples[r - 1];
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Quantile q of each window's samples (`window[i]` is sample i's window),
/// then the median over the non-empty windows; `per_window` receives the
/// per-window quantiles in window order.
inline double windowed_quantile(const std::vector<double>& samples,
                                const std::vector<std::uint32_t>& window, double q,
                                std::vector<double>* per_window = nullptr) {
  std::vector<std::vector<double>> by_window;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (window[i] >= by_window.size()) by_window.resize(window[i] + 1);
    by_window[window[i]].push_back(samples[i]);
  }
  std::vector<double> values;
  for (auto& w : by_window) {
    if (!w.empty()) values.push_back(quantile(std::move(w), q));
  }
  if (per_window != nullptr) *per_window = values;
  return median(values);
}

// ------------------------------------------------------------------ spans

/// One benchmark-side span: a named interval around a call into a layer.
/// `parent` indexes the enclosing span in the same log (-1 = root);
/// `request` ties the spans of one operation together (0 = none).
struct Span {
  std::uint32_t name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// children are clipped to the parent).
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

// ------------------------------------------------------------------ tally

/// Operation accounting behind `attempted`, `failed` and ok_share. Every
/// attempted operation ends in exactly one bucket; whatever is in none
/// when the run ends (a stall, a lost reply) is outstanding and counts as
/// failed. Atomic so the watchdog can read it from its own thread.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> ok{0};            ///< succeeded, output checked
  std::atomic<std::uint64_t> shed{0};          ///< refused by admission
  std::atomic<std::uint64_t> errors{0};        ///< threw or answered kError
  std::atomic<std::uint64_t> check_failed{0};  ///< wrong output
  std::atomic<std::uint64_t> timed_out{0};     ///< never answered

  [[nodiscard]] std::uint64_t failed() const noexcept {
    const std::uint64_t a = attempted.load();
    const std::uint64_t k = ok.load();
    return a > k ? a - k : 0;
  }
  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    const std::uint64_t done = ok.load() + shed.load() + errors.load() +
                               check_failed.load() + timed_out.load();
    const std::uint64_t a = attempted.load();
    return a > done ? a - done : 0;
  }
  [[nodiscard]] double ok_share() const noexcept {
    const std::uint64_t a = attempted.load();
    return a == 0 ? 0.0 : static_cast<double>(ok.load()) / static_cast<double>(a);
  }
  /// Reclassify `n` operations already counted ok as failed checks (a
  /// check that runs after the operations completed, e.g. on final state).
  void fail_checked(std::uint64_t n) noexcept {
    const std::uint64_t k = std::min<std::uint64_t>(n, ok.load());
    ok.fetch_sub(k);
    check_failed.fetch_add(k);
  }
};

}  // namespace perfbench
