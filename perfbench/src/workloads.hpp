// The four workloads and the helpers they share. Each workload fills the
// run's Report with the four end-to-end metrics every workload has
// (setup_s, op_ms, peak_rss_mb, label_bytes_per_node), the per-layer
// metrics of a traced run, and its own figures as ledger lines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/oracle.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "reference.hpp"
#include "sketch/hierarchy.hpp"

namespace perfbench {

void run_ship(RunContext& ctx);
void run_congest(RunContext& ctx);
void run_serve(RunContext& ctx);
void run_churn(RunContext& ctx);

/// Inputs of one workload: an Erdős–Rényi-style graph and the TZ depth.
struct GraphSpec {
  std::uint32_t n;
  double avg_degree = 8.0;  ///< random pairs per node x 2, beside the path
  std::uint32_t wmin = 1;
  std::uint32_t wmax = 12;
  std::uint32_t k = 4;
};

/// Times each of `reps` runs of `fn` (a set-up) and returns the seconds.
template <typename Fn>
std::vector<double> time_setups(int reps, Fn&& fn) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    out.push_back(seconds_since(t0));
  }
  return out;
}

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

dsketch::Graph to_graph(std::uint32_t n, const std::vector<RefEdge>& edges);

/// A workload's input graph and TZ hierarchy. Each graph size has one
/// fixed base graph and one fixed base hierarchy; the run seed draws a
/// random relabeling of the node ids, and the hierarchy moves with it.
/// Every seed therefore does the same work on an isomorphic input, with
/// its own node numbering, edge order, query pairs and checked samples.
struct Input {
  std::vector<RefEdge> edges;         ///< edge list in relabeled ids
  std::vector<std::uint32_t> levels;  ///< hierarchy level of each node
};
/// `relabel_seed` 0 keeps the base ids (the churn workload, whose
/// dynamic sketch samples the base hierarchy itself).
Input make_input(const GraphSpec& spec, std::uint64_t relabel_seed);
/// The Hierarchy::sample seed of the base hierarchy of `spec`.
std::uint64_t base_hierarchy_seed(const GraphSpec& spec);
/// The input's hierarchy with node v renamed to_id[v] (identity if empty).
dsketch::Hierarchy hierarchy_of(const Input& in, std::uint32_t k,
                                const std::vector<std::uint32_t>& to_id = {});

/// The first seed, in a sequence derived from `seed`, for which
/// Hierarchy::sample(n, k, .) gives every level i >= 1 a size within 5%
/// (at least one node) of its expectation n^{1-i/k}. At n = 100k and
/// k = 4 the top level expects 18 nodes, so its size alone would move
/// label size, build time and memory by a quarter from seed to seed.
std::uint64_t typical_hierarchy_seed(std::uint32_t n, std::uint32_t k,
                                     std::uint64_t seed);

/// Exact reference distances from a few sampled sources, with the
/// sampled targets each one is checked against.
struct ReferenceRows {
  std::vector<std::uint32_t> sources;
  std::vector<std::vector<std::uint64_t>> dist;  ///< dist[i][t]
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint64_t> pair_dist;  ///< exact d of pairs[j]
};
ReferenceRows reference_rows(const RefGraph& ref, int sources, int targets,
                             std::uint64_t seed);

/// Uniform random (u, v) pairs, u and v drawn independently.
std::vector<std::pair<std::uint32_t, std::uint32_t>> uniform_pairs(
    Rand& rng, std::uint32_t n, std::size_t count);

/// Percentage change of traced over untraced batch time when serving
/// `oracle` through a one-lane QueryService with the program's
/// obs::TraceSession on versus off (alternating blocks, cache off so
/// every query reaches the oracle).
double program_trace_overhead_pct(
    std::shared_ptr<const dsketch::DistanceOracle> oracle, std::uint32_t n,
    std::uint64_t seed);

/// Reports what every workload reports: the four end-to-end metrics and,
/// when tracing, the per-layer busy shares and the two tracing overheads.
void report_common(RunContext& ctx, const std::vector<double>& setups,
                   double timed_s, double op_ms, double bytes_per_node,
                   std::uint64_t label_entries,
                   std::shared_ptr<const dsketch::DistanceOracle> obs_oracle,
                   std::uint32_t n);

}  // namespace perfbench
