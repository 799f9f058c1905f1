// The benchmark's own references, made apart from dsketch: its input
// graphs, a plain binary-heap Dijkstra, a lower bound on the
// shortest-path diameter S, and the Theorem 1.1 round and message bounds.
// No function here calls graph/sp_kernel or graph/shortest_paths.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"

namespace perfbench {

inline constexpr std::uint64_t kUnreached = std::numeric_limits<std::uint64_t>::max();
inline constexpr std::uint32_t kNoId = std::numeric_limits<std::uint32_t>::max();

struct RefEdge {
  std::uint32_t u, v, w;
};

/// An undirected weighted graph in the benchmark's own adjacency form.
class RefGraph {
 public:
  RefGraph(std::uint32_t n, const std::vector<RefEdge>& edges);

  std::uint32_t n() const { return n_; }
  /// Single-source distances, plain binary-heap Dijkstra.
  std::vector<std::uint64_t> dijkstra(std::uint32_t source) const;
  /// Hops of a fewest-hop shortest path from `source` to every node
  /// (Dijkstra on (distance, hops) keys); its maximum is a lower bound on
  /// the shortest-path diameter S.
  std::uint32_t max_shortest_path_hops(std::uint32_t source) const;

 private:
  struct Arc {
    std::uint32_t to, w;
  };
  std::uint32_t n_;
  std::vector<std::size_t> off_;
  std::vector<Arc> arcs_;
};

/// Connected Erdős–Rényi-style graph: a random Hamiltonian path plus
/// avg_degree·n/2 uniform random pairs, weights uniform in [wmin, wmax],
/// one edge per pair (the smallest weight wins).
std::vector<RefEdge> random_graph(std::uint32_t n, double avg_degree,
                                  std::uint32_t wmin, std::uint32_t wmax,
                                  std::uint64_t seed);

/// Writes the edges as a SNAP edge list ("u v w" lines, '#' comment) and
/// returns the id each node gets when read back: SNAP ingestion numbers
/// nodes in first-seen order, endpoint u before v on every line.
std::vector<std::uint32_t> write_snap(const std::string& path, std::uint32_t n,
                                      const std::vector<RefEdge>& edges);

/// The edge set under churn, mirrored from the updates the program
/// reports, so reference distances never read the program's graph.
class EdgeMirror {
 public:
  EdgeMirror(std::uint32_t n, const std::vector<RefEdge>& edges);
  void set(std::uint32_t u, std::uint32_t v, std::uint32_t w);
  void erase(std::uint32_t u, std::uint32_t v);
  RefGraph graph() const;

 private:
  static std::uint64_t key(std::uint32_t u, std::uint32_t v);
  std::uint32_t n_;
  std::unordered_map<std::uint64_t, std::uint32_t> w_;
};

/// Theorem 1.1 bounds as E15 states them, with the known-S deadline:
///   rounds   <= k (3 n^{1/k} ln n S + 2S + 16)
///   messages <= 2|E| k 4 n^{1/k} ln n
double round_bound(std::uint32_t n, std::uint32_t k, std::uint32_t S);
double message_bound(std::uint32_t n, std::size_t m, std::uint32_t k);

/// Checks one sketch answer against the exact distance d: it must lie in
/// [d, (2k-1) d]. The planted kinds kUnderestimate / kStretch corrupt it.
void check_stretch(Checker& check, std::uint64_t answer, std::uint64_t d,
                   std::uint32_t k);
/// Checks only the one-sided half: answer >= d.
void check_no_underestimate(Checker& check, std::uint64_t answer,
                            std::uint64_t d);

}  // namespace perfbench
