// perfbench: the repository benchmark's harness. One process generates a
// workload's inputs from --seed, drives the gee library through its public
// API, checks the outputs, and prints "# ..." notes followed by one JSON
// result line (the contract in BENCHMARK.json at the repo root):
//
//   perfbench --workload embed-rmat --seed 1 --seconds 16 --trace 0
//
// --trace 0 reports the end-to-end metrics and records no spans; --trace 1
// runs the same workload twice (untraced, then traced) and reports the
// per-layer metrics from benchmark-side spans around each library call.
// Workloads, constants and probe figures are described in NOTES.md.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace {

using perfbench::Run;

using MetricList = std::vector<std::pair<const char*, const char*>>;

const MetricList kEndToEnd = {
    {"setup_s", "s"},   {"peak_rss_mb", "MiB"}, {"p50_s", "s"},
    {"p90_s", "s"},     {"work_per_s", "1/s"},  {"ok_share", "1"},
};

const MetricList kPerLayer = {
    {"graph.build_s", "s"},
    {"gee.projection_s", "s"},
    {"gee.z_init_s", "s"},
    {"gee.edge_pass_s", "s"},
    {"gee.postprocess_s", "s"},
    {"gee.unattributed_s", "s"},
    {"gee.parts_gap_pct", "%"},
    {"gee.edge_pass.arcs", "count"},
    {"gee.edge_pass.bytes_computed", "B"},
    {"gee.edge_pass.ops_per_byte", "ops/B"},
    {"gee.serial_embed_s", "s"},
    {"gee.parallel_speedup", "x"},
    {"stream.seed_s", "s"},
    {"stream.apply_s", "s"},
    {"stream.coalesce_s", "s"},
    {"stream.validate_s", "s"},
    {"stream.apply_rest_s", "s"},
    {"stream.deltas_per_op", "1"},
    {"stream.parallel_batches", "count"},
    {"stream.rebuilds", "count"},
    {"stream.rebuild_s", "s"},
    {"stream.buffer_copies", "count"},
    {"stream.buffer_promotions", "count"},
    {"partition.delta_plan_s", "s"},
    {"serve.lookup_s", "s"},
    {"serve.query_s", "s"},
    {"shard.build_s", "s"},
    {"shard.answer_s", "s"},
    {"shard.queue_wait_s", "s"},
    {"shard.shed", "count"},
    {"net.encode_s", "s"},
    {"net.decode_s", "s"},
    {"net.boundary_s", "s"},
    {"net.parts_gap_pct", "%"},
    {"net.shed", "count"},
    {"net.errors", "count"},
    {"net.unanswered", "count"},
    {"proc.cpu_s", "s"},
    {"proc.minflt", "count"},
    {"gen.late_p99_s", "s"},
    {"trace.overhead_pct", "%"},
};

/// The result line. Metrics the workload did not set -- layers it never
/// calls -- are printed as 0 so every workload reports the same names.
void print_result(const Run& run, bool correct, bool with_values) {
  const MetricList& names = run.config.trace ? kPerLayer : kEndToEnd;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.tally.attempted.load());
  line += ", \"failed\": " + std::to_string(run.tally.failed());
  line += ", \"metrics\": {";
  char buf[192];
  bool first = true;
  for (const auto& [name, unit] : names) {
    double value = 0;
    if (with_values) {
      const auto it = run.metrics.find(name);
      if (it != run.metrics.end()) value = it->second;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name, value, unit);
    line += buf;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{embed-rmat|ingest-churn|serve-socket} --seed N "
               "--seconds S --trace {0|1} [--work-dir DIR]\n",
               why);
  std::exit(2);
}

perfbench::RunConfig parse(int argc, char** argv) {
  perfbench::RunConfig c;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      c.workload = value;
    } else if (flag == "--seed") {
      c.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      c.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      c.trace = value == "1";
    } else if (flag == "--work-dir") {
      c.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (c.workload.empty()) usage("--workload is required");
  if (!(c.seconds > 0 && c.seconds <= 60)) usage("--seconds must be in (0, 60]");
  return c;
}

/// Record the environment the run saw: the variables run.py clears, the
/// hardware thread count and the load average at start.
void note_environment(const Run& run) {
  std::string leaked;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_", 4) == 0 || std::strncmp(*e, "GOMP_", 5) == 0 ||
        std::strncmp(*e, "GEE_", 4) == 0) {
      leaked += std::string(leaked.empty() ? "" : " ") + *e;
    }
  }
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "env: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
                "loadavg=%.2f/%.2f/%.2f OMP_/GOMP_/GEE_ vars: %s",
                run.config.workload.c_str(),
                static_cast<unsigned long long>(run.config.seed), run.config.seconds,
                run.config.trace ? 1 : 0, std::thread::hardware_concurrency(), load[0],
                load[1], load[2], leaked.empty() ? "none" : leaked.c_str());
  run.note(buf);
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  run.config = parse(argc, argv);
  note_environment(run);

  // A run that stops making progress ends here as a measured failure:
  // whatever is outstanding counts as failed, and the process exits
  // without joining threads that may be the ones stuck.
  constexpr double kStallSeconds = 30;
  perfbench::Watchdog dog(kStallSeconds, [&run] {
    run.note("watchdog: no progress for 30 s; ending the run, " +
             std::to_string(run.tally.outstanding()) + " operations outstanding");
    print_result(run, false, false);
    std::_Exit(1);
  });

  try {
    const auto& w = run.config.workload;
    if (w == "embed-rmat") {
      perfbench::run_embed_rmat(run, dog);
    } else if (w == "ingest-churn") {
      perfbench::run_ingest_churn(run, dog);
    } else if (w == "serve-socket") {
      perfbench::run_serve_socket(run, dog);
    } else {
      usage(("unknown workload " + w).c_str());
    }
  } catch (const std::exception& e) {
    run.note(std::string("run aborted: ") + e.what());
    print_result(run, false, false);
    return 1;
  }
  // Sheds cost ok_share only (refusing is the admission plane's job);
  // wrong outputs, errors and requests never answered make the run
  // incorrect as well.
  const bool correct = run.correct.load() && run.tally.check_failed.load() == 0 &&
                       run.tally.errors.load() == 0 && run.tally.timed_out.load() == 0;
  print_result(run, correct, true);
  // Every thread the run started has been joined; skip tearing down
  // gigabytes of graph state that nothing reads again.
  std::_Exit(correct ? 0 : 1);
}
