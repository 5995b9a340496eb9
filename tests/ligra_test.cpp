// Tests for the Ligra-like engine: VertexSubset representations, edgeMap
// mode selection and equivalence (sparse == dense == dense-forward), and
// the BFS / connected-components / PageRank validation algorithms against
// serial oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <numeric>
#include <set>

#include "graph/builder.hpp"
#include "graph/transform.hpp"
#include "graph/validation.hpp"
#include "ligra/algorithms/bfs.hpp"
#include "ligra/algorithms/connected_components.hpp"
#include "ligra/algorithms/pagerank.hpp"
#include "ligra/edge_map.hpp"
#include "ligra/vertex_subset.hpp"
#include "parallel/atomics.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee::graph;
using namespace gee::ligra;
using gee::util::Xoshiro256;

EdgeList random_edges(VertexId n, EdgeId m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  EdgeList el(n);
  for (EdgeId e = 0; e < m; ++e) {
    el.add(static_cast<VertexId>(rng.next_below(n)),
           static_cast<VertexId>(rng.next_below(n)));
  }
  return el;
}

// -------------------------------------------------------------- VertexSubset

TEST(VertexSubset, FactoriesAndCounts) {
  const auto e = VertexSubset::empty(10);
  EXPECT_EQ(e.size(), 0u);
  EXPECT_TRUE(e.is_empty());
  EXPECT_EQ(e.universe(), 10u);

  const auto a = VertexSubset::all(10);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_TRUE(a.is_dense());
  EXPECT_TRUE(a.contains(0));
  EXPECT_TRUE(a.contains(9));

  const auto s = VertexSubset::single(10, 3);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
}

TEST(VertexSubset, SparseMembersSorted) {
  const auto s = VertexSubset::from_sparse(10, {7, 1, 4});
  const auto members = s.sparse_members();
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(s.size(), 3u);
}

TEST(VertexSubset, DenseSparseRoundTrip) {
  auto s = VertexSubset::from_sparse(100, {5, 50, 99});
  s.to_dense();
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(50));
  EXPECT_FALSE(s.contains(51));
  s.to_sparse();
  EXPECT_FALSE(s.is_dense());
  const auto members = s.sparse_members();
  EXPECT_EQ(std::vector<VertexId>(members.begin(), members.end()),
            (std::vector<VertexId>{5, 50, 99}));
}

TEST(VertexSubset, FromDenseCountsFlags) {
  std::vector<std::uint8_t> flags(50, 0);
  flags[2] = flags[30] = 1;
  const auto s = VertexSubset::from_dense(std::move(flags));
  EXPECT_EQ(s.size(), 2u);
}

TEST(VertexSubset, ForEachVisitsExactlyMembers) {
  auto s = VertexSubset::from_sparse(1000, {1, 10, 100});
  std::set<VertexId> seen;
  s.for_each([&](VertexId v) { seen.insert(v); });
  EXPECT_EQ(seen, (std::set<VertexId>{1, 10, 100}));
  s.to_dense();
  std::vector<std::uint8_t> hits(1000, 0);
  s.for_each([&](VertexId v) { hits[v] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(VertexSubset, ConversionIsIdempotent) {
  auto s = VertexSubset::all(20);
  s.to_dense();  // already dense: no-op
  EXPECT_EQ(s.size(), 20u);
  s.to_sparse();
  s.to_sparse();
  EXPECT_EQ(s.size(), 20u);
}

// ------------------------------------------------------------------ edgeMap

/// Counts per-target activations; update returns true always.
struct CountFunctor {
  double* acc;
  bool update(VertexId /*u*/, VertexId v, Weight w) {
    acc[v] += w;
    return true;
  }
  bool update_atomic(VertexId /*u*/, VertexId v, Weight w) {
    gee::par::write_add(acc[v], static_cast<double>(w));
    return true;
  }
  static bool cond(VertexId /*v*/) { return true; }
};

class EdgeMapModeTest : public ::testing::TestWithParam<EdgeMapMode> {};

TEST_P(EdgeMapModeTest, AllModesMatchSerialOracle) {
  const VertexId n = 500;
  const auto el = random_edges(n, 5000, 3);
  const Graph g = Graph::build(el, GraphKind::kDirected);

  // Frontier: every third vertex.
  std::vector<VertexId> members;
  for (VertexId v = 0; v < n; v += 3) members.push_back(v);
  VertexSubset frontier = VertexSubset::from_sparse(n, members);

  std::vector<double> acc(n, 0.0);
  EdgeMapStats stats;
  VertexSubset out = edge_map(g, frontier, CountFunctor{acc.data()},
                              {.mode = GetParam()}, &stats);
  EXPECT_EQ(stats.mode_used, GetParam());

  // Serial oracle over the raw edge list.
  std::vector<double> expected(n, 0.0);
  std::vector<std::uint8_t> active(n, 0);
  std::set<VertexId> fset(members.begin(), members.end());
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    if (fset.count(el.src(e)) != 0) {
      expected[el.dst(e)] += 1.0;
      active[el.dst(e)] = 1;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_DOUBLE_EQ(acc[v], expected[v]) << "vertex " << v;
    ASSERT_EQ(out.contains(v), active[v] != 0) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, EdgeMapModeTest,
                         ::testing::Values(EdgeMapMode::kSparse,
                                           EdgeMapMode::kDense,
                                           EdgeMapMode::kDenseForward));

TEST(EdgeMap, AutoPicksSparseForTinyFrontier) {
  const auto el = random_edges(1000, 20000, 9);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  VertexSubset frontier = VertexSubset::single(1000, 0);
  std::vector<double> acc(1000, 0.0);
  EdgeMapStats stats;
  edge_map(g, frontier, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kSparse);
}

TEST(EdgeMap, AutoPicksDenseForFullFrontier) {
  const auto el = random_edges(1000, 20000, 10);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  VertexSubset frontier = VertexSubset::all(1000);
  std::vector<double> acc(1000, 0.0);
  EdgeMapStats stats;
  edge_map(g, frontier, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kDense);
  EXPECT_EQ(stats.frontier_degree, 20000u);
}

TEST(EdgeMap, AutoFallsBackToPushWithoutInCsr) {
  const auto el = random_edges(1000, 20000, 11);
  const Graph g =
      Graph::build(el, GraphKind::kDirected, {.build_in_csr = false});
  VertexSubset frontier = VertexSubset::all(1000);
  std::vector<double> acc(1000, 0.0);
  EdgeMapStats stats;
  edge_map(g, frontier, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kDenseForward);
}

TEST(EdgeMap, ProduceOutputFalseSkipsFrontier) {
  const auto el = random_edges(100, 1000, 12);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  VertexSubset frontier = VertexSubset::all(100);
  std::vector<double> acc(100, 0.0), acc2(100, 0.0);
  const VertexSubset out = edge_map(g, frontier, CountFunctor{acc.data()},
                                    {.produce_output = false});
  EXPECT_TRUE(out.is_empty());
  // Accumulation must still happen.
  edge_map(g, frontier, CountFunctor{acc2.data()}, {});
  EXPECT_EQ(acc, acc2);
}

TEST(EdgeMap, CondShortCircuitsDensePull) {
  // cond(v) false => v receives no updates in any mode.
  struct CondFunctor {
    double* acc;
    bool update(VertexId, VertexId v, Weight w) {
      acc[v] += w;
      return true;
    }
    bool update_atomic(VertexId u, VertexId v, Weight w) {
      return update(u, v, w);
    }
    static bool cond(VertexId v) { return v % 2 == 0; }
  };
  const auto el = random_edges(200, 4000, 13);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  for (auto mode :
       {EdgeMapMode::kSparse, EdgeMapMode::kDense, EdgeMapMode::kDenseForward}) {
    VertexSubset frontier = VertexSubset::all(200);
    std::vector<double> acc(200, 0.0);
    edge_map(g, frontier, CondFunctor{acc.data()}, {.mode = mode});
    for (VertexId v = 1; v < 200; v += 2) {
      ASSERT_EQ(acc[v], 0.0) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(EdgeMap, WeightsReachFunctor) {
  EdgeList el(3);
  el.add(0, 1, 2.5f);
  el.add(0, 2, 0.5f);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  VertexSubset frontier = VertexSubset::single(3, 0);
  std::vector<double> acc(3, 0.0);
  edge_map(g, frontier, CountFunctor{acc.data()},
           {.mode = EdgeMapMode::kSparse});
  EXPECT_DOUBLE_EQ(acc[1], 2.5);
  EXPECT_DOUBLE_EQ(acc[2], 0.5);
}

TEST(VertexMapAndFilter, Basics) {
  auto s = VertexSubset::from_sparse(10, {1, 2, 3, 8});
  std::vector<int> hits(10, 0);
  vertex_map(s, [&](VertexId v) { hits[v] = 1; });
  EXPECT_EQ(hits[1] + hits[2] + hits[3] + hits[8], 4);

  const auto f = vertex_filter(s, [](VertexId v) { return v % 2 == 0; });
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(f.contains(2));
  EXPECT_TRUE(f.contains(8));
  EXPECT_FALSE(f.contains(1));
}

TEST(EdgeMap, ThresholdBoundarySelectsCorrectMode) {
  // m = 20000, threshold m/20 = 1000: a frontier whose size+degree is just
  // below stays sparse; just above goes dense.
  const auto el = random_edges(2000, 20000, 31);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  std::vector<double> acc(2000, 0.0);

  // Collect vertices until out-degree sum + count crosses the threshold.
  std::vector<VertexId> below, above;
  EdgeId degree_sum = 0;
  for (VertexId v = 0; v < 2000; ++v) {
    const EdgeId next = degree_sum + g.out().degree(v) + 1;
    if (next + 50 < 1000) {  // margin keeps the test robust
      below.push_back(v);
      degree_sum = next;
    }
  }
  VertexSubset small = VertexSubset::from_sparse(2000, below);
  EdgeMapStats stats;
  edge_map(g, small, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kSparse);

  VertexSubset big = VertexSubset::all(2000);
  edge_map(g, big, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kDense);
}

TEST(EdgeMap, EmptyFrontierIsNoOpInEveryMode) {
  const auto el = random_edges(100, 1000, 41);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  for (auto mode : {EdgeMapMode::kSparse, EdgeMapMode::kDense,
                    EdgeMapMode::kDenseForward, EdgeMapMode::kAuto}) {
    VertexSubset frontier = VertexSubset::empty(100);
    std::vector<double> acc(100, 0.0);
    const VertexSubset out =
        edge_map(g, frontier, CountFunctor{acc.data()}, {.mode = mode});
    EXPECT_TRUE(out.is_empty()) << "mode " << static_cast<int>(mode);
    for (VertexId v = 0; v < 100; ++v) {
      ASSERT_EQ(acc[v], 0.0) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(EdgeMap, OutputDeduplicatesMultiplePredecessors) {
  // Ten frontier sources all point at vertex 10; the output frontier must
  // carry it once, in every mode, even though update fires ten times.
  EdgeList el(11);
  for (VertexId u = 0; u < 10; ++u) el.add(u, 10);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  for (auto mode :
       {EdgeMapMode::kSparse, EdgeMapMode::kDense, EdgeMapMode::kDenseForward}) {
    VertexSubset frontier = VertexSubset::from_sparse(11, {0, 1, 2, 3, 4, 5,
                                                           6, 7, 8, 9});
    std::vector<double> acc(11, 0.0);
    VertexSubset out =
        edge_map(g, frontier, CountFunctor{acc.data()}, {.mode = mode});
    EXPECT_EQ(out.size(), 1u) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(out.contains(10));
    out.to_sparse();
    const auto members = out.sparse_members();
    ASSERT_EQ(members.size(), 1u);
    EXPECT_EQ(members[0], 10u);
    EXPECT_DOUBLE_EQ(acc[10], 10.0);  // all updates ran; output still deduped
  }
}

TEST(Bfs, GridGraphHasManhattanDistances) {
  // 16x16 grid: BFS distance from corner (0,0) is x + y exactly.
  constexpr VertexId kSide = 16;
  EdgeList el(kSide * kSide);
  auto id = [](VertexId x, VertexId y) { return y * kSide + x; };
  for (VertexId y = 0; y < kSide; ++y) {
    for (VertexId x = 0; x < kSide; ++x) {
      if (x + 1 < kSide) el.add(id(x, y), id(x + 1, y));
      if (y + 1 < kSide) el.add(id(x, y), id(x, y + 1));
    }
  }
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto r = bfs(g, 0);
  for (VertexId y = 0; y < kSide; ++y) {
    for (VertexId x = 0; x < kSide; ++x) {
      ASSERT_EQ(r.dist[id(x, y)], x + y) << "(" << x << "," << y << ")";
    }
  }
  EXPECT_EQ(r.rounds, 2 * (kSide - 1) + 1);  // last round finds nothing new
}

// ---------------------------------------------------------------------- BFS

std::vector<VertexId> serial_bfs_dist(const Graph& g, VertexId root) {
  std::vector<VertexId> dist(g.num_vertices(), kInvalidVertex);
  std::deque<VertexId> queue{root};
  dist[root] = 0;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    for (VertexId v : g.out().neighbors(u)) {
      if (dist[v] == kInvalidVertex) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

TEST(Bfs, MatchesSerialOracleOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto el = random_edges(2000, 10000, seed);
    const Graph g = Graph::build(el, GraphKind::kUndirected);
    const auto result = bfs(g, 0);
    const auto expected = serial_bfs_dist(g, 0);
    ASSERT_EQ(result.dist, expected) << "seed " << seed;
  }
}

TEST(Bfs, ParentsFormValidTree) {
  const auto el = random_edges(500, 3000, 7);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto r = bfs(g, 5);
  EXPECT_EQ(r.parent[5], 5u);
  for (VertexId v = 0; v < 500; ++v) {
    if (v == 5 || r.parent[v] == kInvalidVertex) continue;
    // Parent is one hop closer and is an actual in-neighbor.
    ASSERT_EQ(r.dist[v], r.dist[r.parent[v]] + 1);
    ASSERT_TRUE(has_edge(g.out(), r.parent[v], v));
  }
}

TEST(Bfs, DisconnectedVerticesUnreached) {
  EdgeList el(5);
  el.add(0, 1);
  el.add(1, 2);
  // vertices 3, 4 isolated
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.dist[2], 2u);
  EXPECT_EQ(r.dist[3], kInvalidVertex);
  EXPECT_EQ(r.parent[4], kInvalidVertex);
}

TEST(Bfs, DirectedRespectsEdgeDirection) {
  EdgeList el(3);
  el.add(0, 1);
  el.add(2, 1);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.dist[1], 1u);
  EXPECT_EQ(r.dist[2], kInvalidVertex);  // no path 0 -> 2
}

// ------------------------------------------------------ ConnectedComponents

std::vector<VertexId> union_find_components(const EdgeList& el, VertexId n) {
  std::vector<VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), VertexId{0});
  std::function<VertexId(VertexId)> find = [&](VertexId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    const VertexId a = find(el.src(e)), b = find(el.dst(e));
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Normalize every vertex to its root's minimum id.
  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = find(v);
  return label;
}

TEST(ConnectedComponents, MatchesUnionFind) {
  for (std::uint64_t seed : {4u, 5u}) {
    // Sparse graph => several components.
    const auto el = random_edges(3000, 2500, seed);
    const Graph g = Graph::build(el, GraphKind::kUndirected);
    const auto result = connected_components(g);
    const auto expected = union_find_components(el, 3000);
    // Same partition: labels must match exactly because both use min-id.
    ASSERT_EQ(result.component, expected) << "seed " << seed;
  }
}

TEST(ConnectedComponents, SingleComponentPath) {
  EdgeList el(4);
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto r = connected_components(g);
  EXPECT_EQ(r.component, (std::vector<VertexId>{0, 0, 0, 0}));
}

TEST(ConnectedComponents, IsolatedVerticesOwnComponents) {
  const Graph g = Graph::build(EdgeList(3), GraphKind::kUndirected, {}, 3);
  const auto r = connected_components(g);
  EXPECT_EQ(r.component, (std::vector<VertexId>{0, 1, 2}));
}

// ----------------------------------------------------------------- PageRank

TEST(PageRank, SumsToOne) {
  const auto el = random_edges(1000, 10000, 17);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto r = pagerank(g);
  const double total = std::accumulate(r.rank.begin(), r.rank.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_GT(r.iterations, 1);
}

TEST(PageRank, UniformOnRegularRing) {
  // Directed ring: every vertex has in/out degree 1 => uniform stationary.
  EdgeList el(100);
  for (VertexId v = 0; v < 100; ++v) el.add(v, (v + 1) % 100);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto r = pagerank(g);
  for (double x : r.rank) EXPECT_NEAR(x, 0.01, 1e-9);
}

TEST(PageRank, HubOutranksLeaves) {
  // Star: all leaves point to the hub.
  EdgeList el(10);
  for (VertexId v = 1; v < 10; ++v) el.add(v, 0);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto r = pagerank(g);
  for (VertexId v = 1; v < 10; ++v) EXPECT_GT(r.rank[0], r.rank[v]);
}

TEST(PageRank, DanglingMassRedistributed) {
  // 0 -> 1, 1 dangles. Ranks must still sum to 1.
  EdgeList el(2);
  el.add(0, 1);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto r = pagerank(g);
  EXPECT_NEAR(r.rank[0] + r.rank[1], 1.0, 1e-9);
  EXPECT_GT(r.rank[1], r.rank[0]);
}

TEST(PageRank, MatchesDensePowerIterationOracle) {
  const VertexId n = 50;
  const auto el = random_edges(n, 400, 23);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto r = pagerank(g, {.damping = 0.85, .max_iterations = 200,
                              .tolerance = 1e-12});

  // Dense oracle.
  std::vector<double> rank(n, 1.0 / n), next(n);
  for (int it = 0; it < 200; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0;
    for (VertexId u = 0; u < n; ++u) {
      const auto deg = g.out().degree(u);
      if (deg == 0) {
        dangling += rank[u];
        continue;
      }
      for (VertexId v : g.out().neighbors(u)) {
        next[v] += rank[u] / static_cast<double>(deg);
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      next[v] = (1.0 - 0.85) / n + 0.85 * (next[v] + dangling / n);
    }
    rank.swap(next);
  }
  for (VertexId v = 0; v < n; ++v) EXPECT_NEAR(r.rank[v], rank[v], 1e-8);
}

}  // namespace
