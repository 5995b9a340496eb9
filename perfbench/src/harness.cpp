#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanLog::add(std::string_view name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int32_t parent,
                          std::uint64_t request) {
  spans_.push_back(Span{intern(name), start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::self_seconds(std::string_view name) const {
  const auto self = self_times_ns(spans_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[spans_[i].name] == name) out.push_back(static_cast<double>(self[i]) * 1e-9);
  }
  return out;
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (names_[s.name] == name) out.push_back(seconds_between(s.start_ns, s.end_ns));
  }
  return out;
}

void write_trace_file(const std::string& path, const SpanLog& log,
                      std::size_t max_events) {
  const auto& spans = log.spans();
  std::size_t untagged = 0;
  std::int64_t origin = INT64_MAX;
  for (const auto& s : spans) {
    if (s.request == 0) ++untagged;
    origin = std::min(origin, s.start_ns);
  }
  // Keep whole requests: sample request ids by a stride so the file stays
  // loadable while every kept request shows all of its spans.
  const std::size_t budget = max_events > untagged ? max_events - untagged : 0;
  std::uint64_t stride = 1;
  while ((spans.size() - untagged) / stride > budget && stride < (1ull << 40)) stride *= 2;

  std::ofstream out(path);
  if (!out) return;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const auto& s : spans) {
    if (s.request != 0 && s.request % stride != 0) continue;
    const char* parent =
        s.parent < 0 ? "" : log.names()[spans[static_cast<std::size_t>(s.parent)].name].c_str();
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":\"%s\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64
                  ",\"parent\":\"%s\"}}",
                  first ? "" : ",", log.names()[s.name].c_str(),
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.request, parent);
    out << buf;
    first = false;
  }
  out << "\n],\"metadata\":{\"request_sample_stride\":" << stride << "}}\n";
}

void Run::note(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void Run::note_distribution(const std::string& what,
                            const std::vector<double>& seconds) const {
  std::string line = what + ": n=" + std::to_string(seconds.size());
  char buf[96];
  for (const auto& [q, label] : {std::pair{0.5, "p50"}, std::pair{0.9, "p90"},
                                 std::pair{0.99, "p99"}, std::pair{0.999, "p99.9"}}) {
    if (!reportable(seconds.size(), q)) break;
    std::snprintf(buf, sizeof buf, " %s=%.6g s (%zu beyond)", label,
                  quantile(seconds, q), beyond(seconds.size(), q));
    line += buf;
  }
  note(line);
}

Watchdog::Watchdog(double stall_seconds, std::function<void()> on_stall)
    : last_beat_ns_(now_ns()),
      stall_ns_(static_cast<std::int64_t>(stall_seconds * 1e9)),
      on_stall_(std::move(on_stall)) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      if (stop_) return;
      if (now_ns() - last_beat_ns_.load(std::memory_order_relaxed) > stall_ns_) {
        on_stall_();
        return;
      }
    }
  });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

}  // namespace perfbench
