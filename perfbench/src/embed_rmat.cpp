// embed-rmat: repeated core::embed() calls with the default options on one
// built undirected R-MAT graph (scale 20, edge factor 16: n = 2^20, 16.8M
// edges). Z (400 MiB) and the CSR are both larger than the last-level
// cache. This is the paper's own workload: the edge pass and Z
// initialisation do nearly all of its work.
//
// Closed loop, one caller, a fixed number of embeds per run. Every Z is
// checked against one kCompiledSerial reference computed before timing,
// within the ulp class DESIGN.md gives the default (atomic) backend.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gee/embedding.hpp"
#include "gee/gee.hpp"
#include "graph/csr.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

constexpr int kScale = 20;
constexpr int kEdgeFactor = 16;
/// Embeds per requested second (p50 about 0.14 s on the reference host);
/// fixed, so every run of a given length does the same work. A 16-second
/// run makes 120 embeds, 12 of them beyond p90.
constexpr double kEmbedsPerSecond = 7.5;
constexpr int kWarmupEmbeds = 2;
constexpr int kZInitRepeats = 5;
/// Reassociation-only class of the atomic backends versus the serial
/// reference (backend_conformance_test's kUlpTol).
constexpr double kUlpTol = 1e-10;

struct Pass {
  std::vector<double> wall;
  std::vector<double> gaps;  ///< previous embed's return -> next call
  double summed_wall = 0;
  Usage before;
  Usage after;
};

Pass measure(Run& run, Watchdog& dog, const gee::graph::Graph& g,
             const std::vector<std::int32_t>& labels,
             const gee::core::Embedding& reference, int count, SpanLog* log) {
  Pass pass;
  pass.before = usage_now();
  std::int64_t previous_end = 0;
  for (int i = 0; i < count; ++i) {
    dog.beat();
    run.tally.attempted.fetch_add(1);
    const std::int64_t t0 = now_ns();
    if (i > 0) pass.gaps.push_back(seconds_between(previous_end, t0));
    gee::core::Result r = gee::core::embed(g, labels);
    const std::int64_t t1 = now_ns();
    const double diff = gee::core::max_abs_diff(r.z, reference);
    const std::int64_t t2 = now_ns();
    if (diff < kUlpTol) {
      run.tally.ok.fetch_add(1);
    } else {
      run.tally.check_failed.fetch_add(1);
      run.correct = false;
      run.note("embed " + std::to_string(i) + ": max |Z - Z_serial| = " +
               std::to_string(diff) + " exceeds the ulp class");
    }
    const double wall = seconds_between(t0, t1);
    pass.wall.push_back(wall);
    pass.summed_wall += wall;
    if (log != nullptr) {
      // embed() reports its phases as durations (core::Timings), in this
      // order: projection first, edge pass and postprocess last. The
      // child spans are laid out that way; the rest of the call (Z
      // allocation and zero-fill, thread scope) is the embed span's self
      // time.
      const auto request = static_cast<std::uint64_t>(i + 1);
      const std::int32_t op = log->add("op", t0, t2, -1, request);
      const std::int32_t e = log->add("gee.embed", t0, t1, op, request);
      const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
      const std::int64_t post0 = t1 - ns(r.timings.postprocess);
      const std::int64_t edge0 = post0 - ns(r.timings.edge_pass);
      log->add("gee.projection", t0, t0 + ns(r.timings.projection), e, request);
      log->add("gee.edge_pass", edge0, post0, e, request);
      log->add("gee.postprocess", post0, t1, e, request);
      log->add("check", t1, t2, op, request);
    }
    // Z is released here, outside the timed call: the next embed pays for
    // a fresh allocation, as every caller of embed() does.
    r = gee::core::Result{};
    previous_end = t1;
  }
  pass.after = usage_now();
  return pass;
}

}  // namespace

void run_embed_rmat(Run& run, Watchdog& dog) {
  const auto& cfg = run.config;
  GraphInputs in = make_graph(kScale, kEdgeFactor, cfg.seed);
  const auto n = in.edges.num_vertices();
  const double m = static_cast<double>(in.edges.num_edges());
  dog.beat();

  // Set-up: Graph::build, timed kSetupRepeats times; the last graph is kept.
  gee::graph::Graph g;
  std::vector<double> builds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    g = gee::graph::Graph{};
    const std::int64_t t0 = now_ns();
    auto built = gee::graph::Graph::build(in.edges, gee::graph::GraphKind::kUndirected);
    builds.push_back(seconds_between(t0, now_ns()));
    g = std::move(built);
    dog.beat();
  }
  in.edges = gee::graph::EdgeList{};
  run.set("setup_s", median(builds));

  // The reference, once and outside timing; its wall time is the serial
  // baseline of the paper's Fig. 3.
  const std::int64_t s0 = now_ns();
  const gee::core::Result reference = gee::core::embed(
      g, in.labels, gee::core::Options{.backend = gee::core::Backend::kCompiledSerial});
  const double serial_s = seconds_between(s0, now_ns());
  dog.beat();
  for (int i = 0; i < kWarmupEmbeds; ++i) {
    (void)gee::core::embed(g, in.labels);
    dog.beat();
  }

  const int count = std::max(1, static_cast<int>(std::lround(kEmbedsPerSecond * cfg.seconds)));
  const Pass plain = measure(run, dog, g, in.labels, reference.z, count, nullptr);
  const double p50 = median(plain.wall);
  run.note_distribution("embed() wall", plain.wall);
  run.set("peak_rss_mb", usage_now().max_rss_mib);
  run.set("p50_s", p50);
  run.set("p90_s", quantile(plain.wall, 0.9));
  run.set("work_per_s", m * static_cast<double>(count) / plain.summed_wall);
  run.set("ok_share", run.tally.ok_share());
  run.note("work_per_s = edges embedded per second of embed() wall time (m = " +
           std::to_string(static_cast<long long>(m)) + ")");
  if (!cfg.trace) return;

  // ---- traced run: the same embeds again, with spans.
  SpanLog log;
  log.reserve(static_cast<std::size_t>(count) * 6 + kZInitRepeats);
  const Pass traced = measure(run, dog, g, in.labels, reference.z, count, &log);
  std::vector<double> z_init;
  for (int i = 0; i < kZInitRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    auto z = std::make_unique<gee::core::Embedding>(n, kNumClasses);
    const std::int64_t t1 = now_ns();
    z.reset();  // allocation plus parallel zero-fill; the free is not timed
    log.add("gee.z_init", t0, t1);
    z_init.push_back(seconds_between(t0, t1));
    dog.beat();
  }
  const double traced_p50 = median(traced.wall);
  const double proj = median(log.durations("gee.projection"));
  const double edge = median(log.durations("gee.edge_pass"));
  const double post = median(log.durations("gee.postprocess"));
  const double zi = median(z_init);
  const double unattributed = traced_p50 - (proj + zi + edge + post);
  run.set("graph.build_s", median(builds));
  run.set("gee.projection_s", proj);
  run.set("gee.z_init_s", zi);
  run.set("gee.edge_pass_s", edge);
  run.set("gee.postprocess_s", post);
  run.set("gee.unattributed_s", unattributed);
  run.set("gee.parts_gap_pct", 100.0 * unattributed / traced_p50);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "embed parts: projection %.6f + z_init %.6f + edge_pass %.6f + "
                "postprocess %.6f + unattributed %.6f = p50 %.6f s",
                proj, zi, edge, post, unattributed, traced_p50);
  run.note(buf);
  run.note_distribution("gee.embed self time (span minus its Timings children)",
                        log.self_seconds("gee.embed"));

  // Computed (not measured) traffic of the default dense-forward pass on
  // an undirected graph: every vertex reads its CSR offset, label and
  // class weight; every arc reads its target; every arc out of a labelled
  // source adds W(u) * w into one Z cell (8-byte read + 8-byte write, one
  // multiply and one add).
  const auto& csr = g.out();
  double contributing = 0;
  for (gee::graph::VertexId u = 0; u < n; ++u) {
    if (in.labels[u] >= 0) contributing += static_cast<double>(csr.degree(u));
  }
  const double arcs = static_cast<double>(g.num_arcs());
  const double bytes = static_cast<double>(n) * (8 + 4 + 8) +
                       arcs * (4 + (g.weighted() ? 4 : 0)) + contributing * 16;
  run.set("gee.edge_pass.arcs", arcs);
  run.set("gee.edge_pass.bytes_computed", bytes);
  run.set("gee.edge_pass.ops_per_byte", 2 * contributing / bytes);
  run.set("gee.serial_embed_s", serial_s);
  run.set("gee.parallel_speedup", serial_s / traced_p50);

  run.set("proc.cpu_s", traced.after.cpu_s - traced.before.cpu_s);
  run.set("proc.minflt", traced.after.minflt - traced.before.minflt);
  run.set("gen.late_p99_s", quantile(traced.gaps, 0.99));
  run.set("trace.overhead_pct", 100.0 * (traced_p50 - p50) / p50);
  write_trace_file(cfg.work_dir + "/trace-embed-rmat.json", log, 200000);
}

}  // namespace perfbench
