// Workload inputs, all derived from the run's --seed: R-MAT graphs with
// Graph500 quadrant probabilities, 50 classes, 10% of vertices labelled
// (the paper's constants, as in bench/common.hpp). The program under test
// only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "graph/edge_list.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline constexpr int kNumClasses = 50;
inline constexpr double kLabelFraction = 0.10;

/// Independent sub-seeds of the run seed, one per input stream.
enum class Stream : std::uint64_t { kGraph = 1, kLabels, kFresh, kRequests, kSample };

inline std::uint64_t sub_seed(std::uint64_t seed, Stream s) {
  return gee::util::hash_combine(seed, static_cast<std::uint64_t>(s));
}

struct GraphInputs {
  gee::graph::EdgeList edges;
  std::vector<std::int32_t> labels;
};

inline GraphInputs make_graph(int scale, int edge_factor, std::uint64_t seed) {
  GraphInputs in;
  in.edges = gee::gen::rmat(scale, edge_factor, sub_seed(seed, Stream::kGraph));
  in.labels = gee::gen::semi_supervised_labels(
      in.edges.num_vertices(), kNumClasses, kLabelFraction,
      sub_seed(seed, Stream::kLabels));
  return in;
}

}  // namespace perfbench
