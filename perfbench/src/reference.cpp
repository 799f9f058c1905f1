#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <numeric>
#include <queue>
#include <tuple>
#include <stdexcept>
#include <utility>

namespace perfbench {

RefGraph::RefGraph(std::uint32_t n, const std::vector<RefEdge>& edges)
    : n_(n), off_(n + 1, 0), arcs_(2 * edges.size()) {
  for (const RefEdge& e : edges) {
    ++off_[e.u + 1];
    ++off_[e.v + 1];
  }
  std::partial_sum(off_.begin(), off_.end(), off_.begin());
  std::vector<std::size_t> fill(off_.begin(), off_.end() - 1);
  for (const RefEdge& e : edges) {
    arcs_[fill[e.u]++] = {e.v, e.w};
    arcs_[fill[e.v]++] = {e.u, e.w};
  }
}

std::vector<std::uint64_t> RefGraph::dijkstra(std::uint32_t source) const {
  using Item = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<std::uint64_t> dist(n_, kUnreached);
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;
    for (std::size_t i = off_[u]; i < off_[u + 1]; ++i) {
      const std::uint64_t nd = d + arcs_[i].w;
      if (nd < dist[arcs_[i].to]) {
        dist[arcs_[i].to] = nd;
        heap.push({nd, arcs_[i].to});
      }
    }
  }
  return dist;
}

std::uint32_t RefGraph::max_shortest_path_hops(std::uint32_t source) const {
  // Lexicographic (distance, hops) keys: the settled hops of a node are
  // those of its fewest-hop shortest path.
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  using Item = std::pair<Key, std::uint32_t>;
  std::vector<Key> best(n_, {kUnreached, 0});
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  best[source] = {0, 0};
  heap.push({best[source], source});
  std::uint32_t max_hops = 0;
  while (!heap.empty()) {
    const auto [key, u] = heap.top();
    heap.pop();
    if (key != best[u]) continue;
    max_hops = std::max(max_hops, key.second);
    for (std::size_t i = off_[u]; i < off_[u + 1]; ++i) {
      const Key nk{key.first + arcs_[i].w, key.second + 1};
      if (nk < best[arcs_[i].to]) {
        best[arcs_[i].to] = nk;
        heap.push({nk, arcs_[i].to});
      }
    }
  }
  return max_hops;
}

std::vector<RefEdge> random_graph(std::uint32_t n, double avg_degree,
                                  std::uint32_t wmin, std::uint32_t wmax,
                                  std::uint64_t seed) {
  Rand rng(seed);
  auto weight = [&] {
    return static_cast<std::uint32_t>(wmin + rng.below(wmax - wmin + 1));
  };
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<RefEdge> edges;
  const auto extra = static_cast<std::size_t>(avg_degree * n / 2.0);
  edges.reserve(n + extra);
  for (std::uint32_t i = 1; i < n; ++i) {
    edges.push_back({order[i - 1], order[i], weight()});
  }
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.below(n));
    const auto v = static_cast<std::uint32_t>(rng.below(n));
    if (u != v) edges.push_back({u, v, weight()});
  }
  for (RefEdge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const RefEdge& a, const RefEdge& b) {
    return std::tie(a.u, a.v, a.w) < std::tie(b.u, b.v, b.w);
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const RefEdge& a, const RefEdge& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
  return edges;
}

std::vector<std::uint32_t> write_snap(const std::string& path, std::uint32_t n,
                                      const std::vector<RefEdge>& edges) {
  std::ofstream out(path);
  out << "# perfbench input: " << n << " nodes, " << edges.size() << " edges\n";
  std::vector<std::uint32_t> id(n, kNoId);
  std::uint32_t next = 0;
  for (const RefEdge& e : edges) {
    out << e.u << " " << e.v << " " << e.w << "\n";
    if (id[e.u] == kNoId) id[e.u] = next++;
    if (id[e.v] == kNoId) id[e.v] = next++;
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  if (next != n) throw std::runtime_error("edge list leaves a node isolated");
  return id;
}

EdgeMirror::EdgeMirror(std::uint32_t n, const std::vector<RefEdge>& edges)
    : n_(n) {
  w_.reserve(edges.size() * 2);
  for (const RefEdge& e : edges) set(e.u, e.v, e.w);
}

std::uint64_t EdgeMirror::key(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

void EdgeMirror::set(std::uint32_t u, std::uint32_t v, std::uint32_t w) {
  w_[key(u, v)] = w;
}

void EdgeMirror::erase(std::uint32_t u, std::uint32_t v) { w_.erase(key(u, v)); }

RefGraph EdgeMirror::graph() const {
  std::vector<RefEdge> edges;
  edges.reserve(w_.size());
  for (const auto& [k, w] : w_) {
    edges.push_back({static_cast<std::uint32_t>(k >> 32),
                     static_cast<std::uint32_t>(k), w});
  }
  return RefGraph(n_, edges);
}

double round_bound(std::uint32_t n, std::uint32_t k, std::uint32_t S) {
  const double nk = std::pow(static_cast<double>(n), 1.0 / k);
  const double ln_n = std::log(static_cast<double>(n));
  return k * (3.0 * nk * ln_n * S + 2.0 * S + 16.0);
}

double message_bound(std::uint32_t n, std::size_t m, std::uint32_t k) {
  const double nk = std::pow(static_cast<double>(n), 1.0 / k);
  const double ln_n = std::log(static_cast<double>(n));
  return 2.0 * static_cast<double>(m) * k * 4.0 * nk * ln_n;
}

void check_stretch(Checker& check, std::uint64_t answer, std::uint64_t d,
                   std::uint32_t k) {
  if (d > 0 && check.plant(Plant::kUnderestimate)) answer = d - 1;
  if (d > 0 && check.plant(Plant::kStretch)) answer = (2ULL * k - 1) * d + 1;
  check.expect(d != kUnreached && answer >= d && answer <= (2ULL * k - 1) * d,
               "sketch answer outside [d, (2k-1)d]");
}

void check_no_underestimate(Checker& check, std::uint64_t answer,
                            std::uint64_t d) {
  if (d > 0 && check.plant(Plant::kUnderestimate)) answer = d - 1;
  check.expect(d != kUnreached && answer >= d, "sketch answer below d");
}

}  // namespace perfbench
