// Harness plumbing shared by the workloads: clocks, the span log, the
// metric table, the no-progress watchdog and the result line.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// What one invocation was asked to do (run.py passes these through).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build";  ///< socket and trace files
};

/// In-memory span recorder, written to a trace file when the run ends.
/// Single-threaded: only the thread that drives the workload records.
class SpanLog {
 public:
  /// Record a finished span; returns its index (a parent for later spans).
  std::int32_t add(std::string_view name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   std::uint64_t request = 0);
  /// Close a span recorded with a provisional end.
  void set_end(std::int32_t index, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  /// Self times (seconds) of every span named `name`.
  [[nodiscard]] std::vector<double> self_seconds(std::string_view name) const;
  /// Durations (seconds) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::uint32_t intern(std::string_view name);

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Write the log as Chrome trace-event JSON (loads in Perfetto). At most
/// `max_events` spans are written: all spans without a request id, then
/// whole requests (every span of a sampled request id) by a fixed stride.
void write_trace_file(const std::string& path, const SpanLog& log,
                      std::size_t max_events);

/// Everything a workload reports: the tally, the output check, metrics
/// and human-readable lines printed ahead of the result line.
struct Run {
  RunConfig config;
  Tally tally;
  std::atomic<bool> correct{true};
  std::map<std::string, double> metrics;  ///< units live in main.cpp's lists

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Print one "# ..." information line to stdout immediately.
  void note(const std::string& line) const;
  /// Print a latency distribution: p50/p90/p99/p99.9 where the percentile
  /// rule allows, with the sample count.
  void note_distribution(const std::string& what,
                         const std::vector<double>& seconds) const;
};

/// Ends a run that stops making progress. Every operation boundary calls
/// beat(); if none comes for `stall_seconds`, `on_stall` runs on the
/// watchdog thread (it prints the failure result and exits the process).
class Watchdog {
 public:
  Watchdog(double stall_seconds, std::function<void()> on_stall);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void beat() noexcept { last_beat_ns_.store(now_ns(), std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> last_beat_ns_;
  std::int64_t stall_ns_;
  std::function<void()> on_stall_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// The process's resource counters (getrusage(RUSAGE_SELF)).
struct Usage {
  double cpu_s = 0;
  double minflt = 0;
  double max_rss_mib = 0;
};
Usage usage_now();

/// Set-up is timed this many times per run and reported as the median.
inline constexpr int kSetupRepeats = 3;

/// The workloads (one translation unit each).
void run_embed_rmat(Run& run, Watchdog& dog);
void run_ingest_churn(Run& run, Watchdog& dog);
void run_serve_socket(Run& run, Watchdog& dog);

}  // namespace perfbench
