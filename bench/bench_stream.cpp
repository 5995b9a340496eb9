// Streaming bench -- updates/sec of DynamicGee's update paths versus the
// full-rebuild baseline, across batch sizes and traffic shape.
//
// The question this answers: at what batch size -- and under what update
// TRAFFIC -- does each path win? The engine columns (--strategies names):
//  * serial -- kDelta with a threshold above every batch: two plain adds
//    per coalesced pair; no setup cost at all. On add-only traffic this is
//    a floor no recompute-based strategy can beat: a delta applies only
//    the change, while re-embedding a row replays its entire incident
//    history.
//  * delta -- kDelta with threshold 0: O(b log b) bucketing through
//    build_delta_plan, then owned-row plain adds across threads. Setup
//    must amortize. Reported as "partitioned".
//  * khop -- kKHop: recompute exactly the changed endpoints' rows from the
//    live adjacency (DESIGN.md section 10). EXACT under removals: the
//    delta paths accumulate cancellation drift and must amortize an
//    O(nK + m) full rebuild every `stream_rebuild_drift` fraction of
//    removed mass, a cost independent of how few edges are live. k-hop
//    never rebuilds.
//  * full rebuild -- the engine's own rebuild() per batch (live-set sort,
//    kPartitioned embed, publish): the paper's "single pass is cheap"
//    degenerate strategy, which wins only when a batch rewrites a large
//    fraction of the graph.
//
// Traffic modes:
//  * "spread": uniform add-only endpoints over a dense base (the classic
//    delta regime; serial wins, khop pays a full row replay per endpoint).
//  * "churn": batches confined to a small vertex window (~0.1% of n) where
//    half of each batch removes the previous batch's additions -- a hot
//    subgraph being rewritten in place. The base graph is sparse (m/16),
//    so the delta paths' drift rebuilds fire within the measured stream
//    and their O(nK) floor dominates; the k-hop path re-embeds only the
//    window. This is the regime the strategy was built for.
// The winner column reports the crossover per (batch, mode) row.
//
// Scaling contract (DESIGN.md section 4): GEE_BENCH_SCALE divides the base
// graph; --batch-sizes overrides the sweep; --strategies filters the
// engine columns (the rebuild baseline always runs).
#include "bench/common.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using gee::core::UpdateStrategy;
using gee::graph::EdgeId;
using gee::graph::VertexId;
using gee::stream::DynamicGee;
using gee::stream::UpdateBatch;

std::vector<UpdateBatch> spread_batches(VertexId n, EdgeId batch_size,
                                        EdgeId total,
                                        gee::util::Xoshiro256& rng) {
  std::vector<UpdateBatch> batches;
  for (EdgeId applied = 0; applied < total; applied += batch_size) {
    UpdateBatch batch;
    batch.reserve(batch_size);
    for (EdgeId i = 0; i < batch_size; ++i) {
      batch.add(static_cast<VertexId>(rng.next_below(n)),
                static_cast<VertexId>(rng.next_below(n)));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Window-confined churn: each batch picks a random `window`-vertex span,
/// removes up to half a batch of the PREVIOUS batch's additions (exact
/// mirrors, so every removal is valid), and fills the rest with fresh
/// in-window adds. Live-edge count stays roughly flat while removal mass
/// accumulates -- the traffic that forces drift rebuilds on the delta
/// paths. The k-hop frontier is at most two windows of seeds per batch.
std::vector<UpdateBatch> churn_batches(VertexId n, EdgeId batch_size,
                                       EdgeId total, VertexId window,
                                       gee::util::Xoshiro256& rng) {
  std::vector<UpdateBatch> batches;
  std::vector<std::pair<VertexId, VertexId>> prev;
  for (EdgeId applied = 0; applied < total; applied += batch_size) {
    UpdateBatch batch;
    batch.reserve(batch_size);
    const EdgeId removes =
        std::min<EdgeId>(static_cast<EdgeId>(prev.size()), batch_size / 2);
    for (EdgeId i = 0; i < removes; ++i) {
      batch.remove(prev[i].first, prev[i].second);
    }
    const VertexId base = static_cast<VertexId>(
        rng.next_below(std::max<VertexId>(1, n - window)));
    std::vector<std::pair<VertexId, VertexId>> adds;
    adds.reserve(batch_size - removes);
    for (EdgeId i = removes; i < batch_size; ++i) {
      const auto u = base + static_cast<VertexId>(rng.next_below(window));
      const auto v = base + static_cast<VertexId>(rng.next_below(window));
      batch.add(u, v);
      adds.emplace_back(u, v);
    }
    prev = std::move(adds);
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Updates/sec applying `batches` through a DynamicGee under `options`.
/// Batches are pregenerated by the caller: the timer covers application
/// only, matching the rebuild column (which likewise excludes input
/// construction) so the crossover compares like with like.
double stream_rate(const gee::graph::EdgeList& base,
                   const std::vector<std::int32_t>& labels,
                   const std::vector<UpdateBatch>& batches,
                   const gee::core::Options& options,
                   DynamicGee::Stats* stats_out = nullptr) {
  DynamicGee dg(base, labels, options);

  EdgeId applied = 0;
  gee::util::Timer timer;
  for (const auto& batch : batches) {
    dg.apply(batch);
    applied += batch.size();
  }
  const double rate = static_cast<double>(applied) / timer.seconds();
  if (stats_out != nullptr) *stats_out = dg.stats();
  return rate;
}

void log_stats(const std::string& tag, const DynamicGee::Stats& s) {
  gee::util::log_info(
      tag + ": batches=" + std::to_string(s.batches) +
      " rebuilds=" + std::to_string(s.rebuilds) +
      " khop_batches=" + std::to_string(s.khop_batches) +
      " khop_rows=" + std::to_string(s.khop_rows) +
      " buffer_copies=" + std::to_string(s.buffer_copies) +
      " buffer_promotions=" + std::to_string(s.buffer_promotions));
}

}  // namespace

int main(int argc, char** argv) {
  namespace bench = gee::bench;

  gee::util::ArgParser args("bench_stream",
                            "DynamicGee updates/sec vs full-rebuild "
                            "crossover, by batch size and traffic shape");
  args.add_option("batch-sizes", "comma-separated batch sizes to sweep",
                  "1,100,10000,1000000");
  args.add_option("edge-factor", "base-graph edges per vertex", "8");
  args.add_option("strategies",
                  "comma-separated engine columns to run (serial = kDelta's "
                  "serial loop, delta = kDelta's partitioned path, khop = "
                  "kKHop)",
                  "serial,delta,khop");
  args.add_option("window",
                  "churn-traffic vertex window (0 = n/1000, min 16)", "0");
  args.add_flag("stats", "log per-column DynamicGee counters after each row");
  if (!args.parse(argc, argv)) return 1;
  const bool want_stats = args.get_flag("stats");

  const auto columns = gee::util::split_csv(args.get("strategies"));
  for (const auto& name : columns) {
    if (name != "serial" && name != "delta" && name != "khop") {
      gee::util::log_error("unknown strategy '" + name +
                           "' (choices: serial, delta, khop)");
      return 1;
    }
  }

  const auto d = bench::scale_denominator();
  const auto n = static_cast<VertexId>(4e6 / static_cast<double>(d));
  const auto m = n * static_cast<EdgeId>(args.get_int("edge-factor"));
  VertexId window = static_cast<VertexId>(args.get_int("window"));
  if (window == 0) window = std::max<VertexId>(16, n / 1000);

  gee::util::log_info("stream bench: R-MAT base graph n=" +
                      std::to_string(n) + " m=" + std::to_string(m) +
                      " window=" + std::to_string(window));
  const auto base = gee::gen::rmat_approx(n, m, 5);
  // Churn runs against a sparse base (same n): the point of selective
  // re-embedding is that a full rebuild costs O(nK + m) no matter how few
  // edges are live, so the sparse regime is where drift rebuilds hurt the
  // delta paths most -- and it is the regime dynamic-graph streams live in.
  const auto base_churn = gee::gen::rmat_approx(n, std::max<EdgeId>(1, m / 16), 7);
  const auto labels = gee::gen::semi_supervised_labels(
      n, bench::kNumClasses, bench::kLabelFraction, 17);

  bench::JsonReport report("stream");
  report.context("scale", d);
  report.context("n", static_cast<std::int64_t>(n));
  report.context("m", static_cast<std::int64_t>(m));
  report.context("window", static_cast<std::int64_t>(window));
  report.context("repeats", bench::repeats());

  gee::util::TextTable table(
      "streaming -- updates/sec by batch size and traffic (higher is "
      "better)");
  table.set_header({"batch", "traffic", "serial upd/s", "partitioned upd/s",
                    "khop upd/s", "rebuild upd/s", "winner"});

  for (const std::int64_t b : args.get_int_list("batch-sizes")) {
    const auto batch_size = static_cast<EdgeId>(std::max<std::int64_t>(1, b));

    for (const bool churn : {false, true}) {
      const auto& mode_base = churn ? base_churn : base;
      // Spread: enough updates to time reliably, not minutes of batch-1
      // applies. Churn: additionally long enough that the removal mass can
      // reach the delta paths' drift-rebuild horizon (0.5x the live edge
      // count at batch/2 removals per batch) -- a short sample would
      // silently exclude the rebuilds the stream must eventually pay.
      const EdgeId total =
          churn ? std::max(batch_size,
                           std::max<EdgeId>(
                               std::min<EdgeId>(64 * batch_size, m / 4),
                               20'000))
                : std::min<EdgeId>(std::max<EdgeId>(batch_size, 20'000),
                                   4 * m);

      std::vector<UpdateBatch> batches;
      {
        gee::util::Xoshiro256 rng(123);
        batches = churn
                      ? churn_batches(n, batch_size, total, window, rng)
                      : spread_batches(n, batch_size, total, rng);
      }

      // Full rebuild: the engine's own rebuild() after one applied batch,
      // amortized over the batch -- live-set sort + batch embed + publish,
      // the same pipeline the rebuild strategy would pay per batch (NOT an
      // idealized bare embed, which would undercount it by the sort and
      // the publish copy). Best-of-N like bench::time_backend.
      double rebuild_seconds = 1e300;
      {
        DynamicGee dg(mode_base, labels, {});
        dg.apply(batches.front());
        for (int r = 0; r < bench::repeats(); ++r) {
          gee::util::Timer timer;
          dg.rebuild();
          rebuild_seconds = std::min(rebuild_seconds, timer.seconds());
        }
      }
      const double rebuild = static_cast<double>(batch_size) / rebuild_seconds;

      // Updates/sec of one engine column; 0 when --strategies skips it.
      auto rate = [&](const std::string& column) {
        if (std::find(columns.begin(), columns.end(), column) ==
            columns.end()) {
          return 0.0;
        }
        gee::core::Options options;
        if (column == "khop") {
          options.stream_update_strategy = UpdateStrategy::kKHop;
        } else {
          // kDelta pinned to one sub-path: the serial loop never reaches
          // the threshold, the partitioned path always does.
          options.stream_parallel_threshold =
              column == "serial" ? INT64_MAX : 0;
        }
        DynamicGee::Stats stats;
        const double r = stream_rate(mode_base, labels, batches, options,
                                     want_stats ? &stats : nullptr);
        if (want_stats) {
          log_stats("b" + std::to_string(batch_size) +
                        (churn ? "/churn/" : "/spread/") + column,
                    stats);
        }
        return r;
      };
      const double serial = rate("serial");
      const double partitioned = rate("delta");
      const double khop = rate("khop");

      const char* mode = churn ? "churn" : "spread";
      const double best = std::max({serial, partitioned, khop, rebuild});
      table.begin_row();
      table.cell(static_cast<long long>(batch_size));
      table.cell(mode);
      table.cell(serial, 0);
      table.cell(partitioned, 0);
      table.cell(khop, 0);
      table.cell(rebuild, 0);
      table.cell(best == rebuild       ? "rebuild"
                 : best == khop        ? "khop"
                 : best == partitioned ? "partitioned"
                                       : "serial");

      report.begin_case("stream/b" + std::to_string(batch_size) + "/" + mode);
      if (serial > 0) report.metric("serial_upd_per_sec", serial);
      if (partitioned > 0) {
        report.metric("partitioned_upd_per_sec", partitioned);
      }
      if (khop > 0) {
        report.metric("khop_upd_per_sec", khop);
        report.metric("khop_vs_rebuild_speedup", khop / rebuild);
      }
      report.metric("rebuild_upd_per_sec", rebuild);
    }
  }

  bench::emit(table, "stream_updates.csv");
  report.write();
  return 0;
}
