// ingest-churn: a stream::DynamicGee seeded with an R-MAT graph (scale 20,
// edge factor 8) takes 16,384-op batches back to back on one thread, in a
// closed loop. Each batch is half adds of fresh R-MAT edges and half
// removals of the oldest live edges (FIFO), so the live edge count stays
// flat. Batches are above Options::stream_parallel_threshold (8192), so
// coalescing, build_delta_plan, the owned-row delta pass and the epoch
// publish do the work; a full edge pass runs only for drift rebuilds,
// whose number per run is fixed by the fixed batch count.
//
// Check: the final published Z against core::embed_edges of the live edge
// set, within the drift class stream_test asserts at bench scale.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gee/gee.hpp"
#include "partition/partitioner.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

using gee::graph::EdgeList;
using gee::graph::VertexId;
using gee::stream::DynamicGee;
using gee::stream::UpdateBatch;

constexpr int kScale = 18;
constexpr int kEdgeFactor = 8;
constexpr std::size_t kBatchOps = 16384;
constexpr std::size_t kAddsPerBatch = kBatchOps / 2;
/// Batches per measured second on the reference host (apply p50 about
/// 15 ms plus batch assembly); fixed, so every run does the same work.
constexpr double kBatchesPerSecond = 50;
/// Drift class of removal residue at this scale (stream_test's bound).
constexpr double kDriftTol = 1e-5;
/// Writer threads: one fewer than the 4-CPU host has. The apply path is a
/// chain of short parallel regions, and with all 4 CPUs in every barrier
/// a CPU held by another tenant stalls each one: over 5 alternating pairs
/// the apply p50 spread (IQR/median) was 0.20 with 4 threads, 0.10 with 3.
constexpr int kThreads = 3;

/// The edge stream: the seed graph followed by the fresh edges. Batch k
/// adds the k-th slice of fresh edges and removes the k-th slice of the
/// stream, so the live set after k batches is one contiguous window.
struct EdgeStream {
  const EdgeList* seed;
  const EdgeList* fresh;
  [[nodiscard]] std::pair<VertexId, VertexId> at(std::size_t i) const {
    const std::size_t s = seed->num_edges();
    return i < s ? std::pair{seed->src(i), seed->dst(i)}
                 : std::pair{fresh->src(i - s), fresh->dst(i - s)};
  }
};

struct Pass {
  std::vector<double> apply;
  std::vector<double> gaps;
  double summed_apply = 0;
  std::uint64_t raw_ops = 0;
  DynamicGee::Stats stats_before;
  DynamicGee::Stats stats_after;
  Usage before;
  Usage after;
};

Pass measure(Run& run, Watchdog& dog, DynamicGee& dg, const EdgeStream& stream,
             std::size_t first_batch, std::size_t count, SpanLog* log) {
  Pass pass;
  pass.stats_before = dg.stats();
  pass.before = usage_now();
  const std::size_t seed_edges = stream.seed->num_edges();
  std::int64_t previous_end = 0;
  UpdateBatch batch;
  for (std::size_t b = first_batch; b < first_batch + count; ++b) {
    dog.beat();
    const std::int64_t g0 = now_ns();
    batch.clear();
    batch.reserve(kBatchOps);
    for (std::size_t j = 0; j < kAddsPerBatch; ++j) {
      const auto [au, av] = stream.at(seed_edges + b * kAddsPerBatch + j);
      batch.add(au, av);
      const auto [ru, rv] = stream.at(b * kAddsPerBatch + j);
      batch.remove(ru, rv);
    }
    run.tally.attempted.fetch_add(1);
    const std::uint64_t request = b + 1;
    std::int32_t op = -1;
    if (log != nullptr) {
      // The library's own first steps, called separately on the same batch
      // so each gets a span: apply() repeats them internally.
      op = log->add("op", g0, g0, -1, request);
      std::int64_t t = now_ns();
      const auto deltas = batch.coalesce();
      std::int64_t u = now_ns();
      log->add("stream.coalesce", t, u, op, request);
      t = now_ns();
      batch.validate(dg.num_vertices());
      u = now_ns();
      log->add("stream.validate", t, u, op, request);
      t = now_ns();
      EdgeList delta_edges(dg.num_vertices());
      delta_edges.reserve(deltas.size());
      for (const auto& d : deltas) delta_edges.add(d.u, d.v, d.weight);
      const auto plan = gee::partition::build_delta_plan(
          delta_edges, gee::partition::resolve_num_blocks(0));
      u = now_ns();
      log->add("partition.delta_plan", t, u, op, request);
    }
    const std::int64_t t0 = now_ns();
    if (previous_end != 0) pass.gaps.push_back(seconds_between(previous_end, t0));
    try {
      const auto report = dg.apply(batch);
      pass.raw_ops += report.raw_ops;
      run.tally.ok.fetch_add(1);
    } catch (const std::exception& e) {
      run.tally.errors.fetch_add(1);
      run.correct = false;
      run.note(std::string("apply threw: ") + e.what());
    }
    const std::int64_t t1 = now_ns();
    previous_end = t1;
    const double wall = seconds_between(t0, t1);
    pass.apply.push_back(wall);
    pass.summed_apply += wall;
    if (log != nullptr) {
      log->add("stream.apply", t0, t1, op, request);
      log->set_end(op, t1);
    }
  }
  pass.after = usage_now();
  pass.stats_after = dg.stats();
  return pass;
}

/// The live edge set after `batches` batches: one window of the stream.
EdgeList live_edges(const EdgeStream& stream, VertexId n, std::size_t batches) {
  const std::size_t lo = batches * kAddsPerBatch;
  const std::size_t hi = lo + stream.seed->num_edges();
  EdgeList live(n);
  live.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    const auto [u, v] = stream.at(i);
    live.add(u, v);
  }
  return live;
}

}  // namespace

void run_ingest_churn(Run& run, Watchdog& dog) {
  const auto& cfg = run.config;
  const GraphInputs in = make_graph(kScale, kEdgeFactor, cfg.seed);
  const VertexId n = in.edges.num_vertices();
  const auto count = static_cast<std::size_t>(
      std::max(1L, std::lround(kBatchesPerSecond * cfg.seconds)));
  const std::size_t passes = cfg.trace ? 2 : 1;
  const std::size_t fresh_needed = passes * count * kAddsPerBatch;
  const auto fresh_factor = static_cast<int>(
      (fresh_needed + (std::size_t{1} << kScale) - 1) >> kScale);
  const EdgeList fresh =
      gee::gen::rmat(kScale, fresh_factor, sub_seed(cfg.seed, Stream::kFresh));
  const EdgeStream stream{&in.edges, &fresh};
  dog.beat();

  // Set-up: the DynamicGee constructor (seed embed + live multiset), timed
  // kSetupRepeats times; the last engine is kept.
  std::unique_ptr<DynamicGee> dg;
  std::vector<double> seeds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    dg.reset();
    const std::int64_t t0 = now_ns();
    auto built = std::make_unique<DynamicGee>(in.edges, in.labels,
                                              gee::core::Options{.num_threads = kThreads});
    seeds.push_back(seconds_between(t0, now_ns()));
    dg = std::move(built);
    dog.beat();
  }
  run.set("setup_s", median(seeds));

  const Pass plain = measure(run, dog, *dg, stream, 0, count, nullptr);
  run.note_distribution("apply() wall", plain.apply);
  run.set("p50_s", median(plain.apply));
  run.set("p90_s", quantile(plain.apply, 0.9));
  run.set("work_per_s", static_cast<double>(plain.raw_ops) / plain.summed_apply);
  run.note("work_per_s = raw update ops per second of apply() wall time; " +
           std::to_string(plain.stats_after.rebuilds - plain.stats_before.rebuilds) +
           " drift rebuilds in " + std::to_string(count) + " batches");

  Pass traced;
  SpanLog log;
  if (cfg.trace) {
    log.reserve(count * 5 + 2);
    traced = measure(run, dog, *dg, stream, count, count, &log);
  }

  // Check the final state against a from-scratch embed of the live set.
  {
    const EdgeList live = live_edges(stream, n, passes * count);
    const auto reference = gee::core::embed_edges(live, in.labels);
    const double diff = gee::core::max_abs_diff(*dg->snapshot().z, reference.z);
    dog.beat();
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "final Z vs embed_edges(live set, %zu edges): max abs diff %.3g "
                  "(class bound %.0e)",
                  static_cast<std::size_t>(live.num_edges()), diff, kDriftTol);
    run.note(buf);
    if (!(diff < kDriftTol)) {
      run.correct = false;
      run.tally.fail_checked(run.tally.ok.load());
    }
  }
  run.set("peak_rss_mb", usage_now().max_rss_mib);
  run.set("ok_share", run.tally.ok_share());
  if (!cfg.trace) return;

  // ---- per-layer numbers from the traced pass.
  const double apply_p50 = median(traced.apply);
  const double coalesce = median(log.durations("stream.coalesce"));
  const double validate = median(log.durations("stream.validate"));
  const double plan = median(log.durations("partition.delta_plan"));
  const auto& s0 = traced.stats_before;
  const auto& s1 = traced.stats_after;
  run.set("stream.seed_s", median(seeds));
  run.set("stream.apply_s", apply_p50);
  run.set("stream.coalesce_s", coalesce);
  run.set("stream.validate_s", validate);
  run.set("partition.delta_plan_s", plan);
  run.set("stream.apply_rest_s", apply_p50 - (coalesce + validate + plan));
  run.set("stream.deltas_per_op",
          static_cast<double>(s1.deltas_applied - s0.deltas_applied) /
              static_cast<double>(traced.raw_ops));
  run.set("stream.parallel_batches",
          static_cast<double>(s1.parallel_batches - s0.parallel_batches));
  run.set("stream.rebuilds", static_cast<double>(s1.rebuilds - s0.rebuilds));
  run.set("stream.buffer_copies",
          static_cast<double>(s1.buffer_copies - s0.buffer_copies));
  run.set("stream.buffer_promotions",
          static_cast<double>(s1.buffer_promotions - s0.buffer_promotions));
  run.note_distribution("op self time (batch assembly outside the library)",
                        log.self_seconds("op"));

  // One forced rebuild, timed on its own (after the check, which it would
  // otherwise make trivially true).
  const std::int64_t r0 = now_ns();
  dg->rebuild();
  const std::int64_t r1 = now_ns();
  log.add("stream.rebuild", r0, r1);
  run.set("stream.rebuild_s", seconds_between(r0, r1));

  run.set("proc.cpu_s", traced.after.cpu_s - traced.before.cpu_s);
  run.set("proc.minflt", traced.after.minflt - traced.before.minflt);
  run.set("gen.late_p99_s", quantile(traced.gaps, 0.99));
  const double plain_p50 = median(plain.apply);
  run.set("trace.overhead_pct", 100.0 * (apply_p50 - plain_p50) / plain_p50);
  write_trace_file(cfg.work_dir + "/trace-ingest-churn.json", log, 200000);
}

}  // namespace perfbench
