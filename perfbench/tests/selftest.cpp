// Self-tests of the benchmark's own statistics (src/stats.hpp): the
// percentile rule, span self time and the ok_share tally. Built with the
// harness; run.py --selftest builds and runs it, or by hand:
//
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::Span;
using perfbench::Tally;

void percentile_rule() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(perfbench::quantile(v, 0.5) == 50);
  EXPECT(perfbench::quantile(v, 0.9) == 90);
  EXPECT(perfbench::quantile(v, 1.0) == 100);
  EXPECT(perfbench::median({7}) == 7);
  EXPECT(perfbench::quantile({}, 0.9) == 0);
  // p90 of 100 samples has exactly 10 beyond it: reportable. Of 99, 9.
  EXPECT(perfbench::beyond(100, 0.9) == 10);
  EXPECT(perfbench::reportable(100, 0.9));
  EXPECT(!perfbench::reportable(99, 0.9));
  EXPECT(perfbench::reportable(1000, 0.99));
  EXPECT(!perfbench::reportable(999, 0.99));
  EXPECT(!perfbench::reportable(19, 0.5));
  EXPECT(perfbench::reportable(20, 0.5));
}

void windowed_median() {
  // Three windows; the middle one is an outlier episode. Per-window p50s
  // are 2, 100 and 3 (window 3 is empty and skipped); their median is 3.
  const std::vector<double> samples = {1, 2, 3, 100, 100, 200, 3, 3, 4};
  const std::vector<std::uint32_t> window = {0, 0, 0, 2, 2, 2, 4, 4, 4};
  std::vector<double> per_window;
  EXPECT(perfbench::windowed_quantile(samples, window, 0.5, &per_window) == 3);
  EXPECT((per_window == std::vector<double>{2, 100, 3}));
  EXPECT(perfbench::windowed_quantile({}, {}, 0.9) == 0);
}

void span_self_time() {
  // parent [0,100]; children [10,30] and [20,40] overlap (cover 30),
  // [90,120] is clipped to [90,100] (covers 10); a grandchild is not the
  // parent's child and must not count twice.
  std::vector<Span> spans = {
      {0, 0, 100, -1, 1},   // 0: parent
      {1, 10, 30, 0, 1},    // 1
      {1, 20, 40, 0, 1},    // 2
      {1, 90, 120, 0, 1},   // 3
      {2, 12, 18, 1, 1},    // 4: child of 1
  };
  const auto self = perfbench::self_times_ns(spans);
  EXPECT(self[0] == 100 - 30 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 20);
  EXPECT(self[4] == 6);
  // Disjoint children, and a span without children.
  std::vector<Span> flat = {{0, 0, 50, -1, 0}, {1, 0, 10, 0, 0}, {1, 40, 50, 0, 0}};
  EXPECT(perfbench::self_times_ns(flat)[0] == 30);
  EXPECT(perfbench::self_times_ns({{0, 5, 9, -1, 0}})[0] == 4);
}

void ok_share_accounting() {
  Tally t;
  t.attempted = 100;
  t.ok = 90;
  t.shed = 4;
  t.errors = 2;
  t.timed_out = 1;
  // 3 attempted operations ended in no bucket: outstanding, so failed.
  EXPECT(t.outstanding() == 3);
  EXPECT(t.failed() == 10);
  EXPECT(std::abs(t.ok_share() - 0.9) < 1e-15);
  // A check after the fact moves ok operations to check_failed.
  t.fail_checked(5);
  EXPECT(t.ok == 85);
  EXPECT(t.check_failed == 5);
  EXPECT(t.failed() == 15);
  EXPECT(t.outstanding() == 3);
  // Never below zero, never more than what was ok.
  t.fail_checked(1000);
  EXPECT(t.ok == 0);
  EXPECT(t.failed() == 100);
  Tally empty;
  EXPECT(empty.ok_share() == 0);
  EXPECT(empty.failed() == 0);
}

}  // namespace

int main() {
  percentile_rule();
  windowed_median();
  span_self_time();
  ok_share_accounting();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
