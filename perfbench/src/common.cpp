#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "serve/query_service.hpp"
#include "workloads.hpp"

namespace perfbench {

using dsketch::Dist;

dsketch::Graph to_graph(std::uint32_t n, const std::vector<RefEdge>& edges) {
  std::vector<dsketch::Edge> out;
  out.reserve(edges.size());
  for (const RefEdge& e : edges) out.push_back({e.u, e.v, e.w});
  return dsketch::Graph::from_edges(n, out);
}

std::uint64_t typical_hierarchy_seed(std::uint32_t n, std::uint32_t k,
                                     std::uint64_t seed) {
  Rand candidates(seed);
  for (;;) {
    const std::uint64_t s = candidates.next();
    const dsketch::Hierarchy h = dsketch::Hierarchy::sample(n, k, s);
    std::vector<std::uint32_t> size(k, 0);
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t i = 1; i < k && h.in_level(u, i); ++i) ++size[i];
    }
    bool typical = true;
    for (std::uint32_t i = 1; i < k; ++i) {
      const double expected = std::pow(static_cast<double>(n), 1.0 - double(i) / k);
      typical = typical &&
                std::abs(size[i] - expected) <= std::max(0.05 * expected, 1.0);
    }
    if (typical) return s;
  }
}

namespace {
constexpr std::uint64_t kBaseGraphSeed = 42;
constexpr std::uint64_t kBaseHierarchySeed = 43;
}  // namespace

std::uint64_t base_hierarchy_seed(const GraphSpec& spec) {
  return typical_hierarchy_seed(spec.n, spec.k, kBaseHierarchySeed);
}

Input make_input(const GraphSpec& spec, std::uint64_t relabel_seed) {
  const std::vector<RefEdge> base = random_graph(
      spec.n, spec.avg_degree, spec.wmin, spec.wmax, kBaseGraphSeed + spec.n);
  const dsketch::Hierarchy h =
      dsketch::Hierarchy::sample(spec.n, spec.k, base_hierarchy_seed(spec));
  std::vector<std::uint32_t> perm(spec.n);
  for (std::uint32_t v = 0; v < spec.n; ++v) perm[v] = v;
  if (relabel_seed != 0) {
    Rand rng(relabel_seed);
    for (std::uint32_t i = spec.n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
  }
  Input in;
  in.edges.reserve(base.size());
  for (const RefEdge& e : base) {
    const std::uint32_t u = perm[e.u];
    const std::uint32_t v = perm[e.v];
    in.edges.push_back({std::min(u, v), std::max(u, v), e.w});
  }
  std::sort(in.edges.begin(), in.edges.end(), [](const RefEdge& a, const RefEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  in.levels.resize(spec.n);
  for (std::uint32_t v = 0; v < spec.n; ++v) in.levels[perm[v]] = h.level_of(v);
  return in;
}

dsketch::Hierarchy hierarchy_of(const Input& in, std::uint32_t k,
                                const std::vector<std::uint32_t>& to_id) {
  if (to_id.empty()) return dsketch::Hierarchy(k, in.levels);
  std::vector<std::uint32_t> levels(in.levels.size());
  for (std::size_t v = 0; v < levels.size(); ++v) levels[to_id[v]] = in.levels[v];
  return dsketch::Hierarchy(k, std::move(levels));
}

ReferenceRows reference_rows(const RefGraph& ref, int sources, int targets,
                             std::uint64_t seed) {
  ReferenceRows rows;
  Rand rng(seed);
  for (int i = 0; i < sources; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.below(ref.n()));
    rows.sources.push_back(s);
    rows.dist.push_back(ref.dijkstra(s));
    for (int j = 0; j < targets; ++j) {
      const auto t = static_cast<std::uint32_t>(rng.below(ref.n()));
      rows.pairs.emplace_back(s, t);
      rows.pair_dist.push_back(rows.dist.back()[t]);
    }
  }
  return rows;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> uniform_pairs(
    Rand& rng, std::uint32_t n, std::size_t count) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(count);
  for (auto& p : pairs) {
    p.first = static_cast<std::uint32_t>(rng.below(n));
    p.second = static_cast<std::uint32_t>(rng.below(n));
  }
  return pairs;
}

double program_trace_overhead_pct(
    std::shared_ptr<const dsketch::DistanceOracle> oracle, std::uint32_t n,
    std::uint64_t seed) {
  dsketch::QueryServiceConfig cfg;
  cfg.shards = 8;
  cfg.threads = 1;
  cfg.cache_capacity = 0;
  dsketch::QueryService service(std::move(oracle), cfg);
  constexpr int kBlockPairs = 8;  // each pair: one untraced, one traced block
  constexpr int kBatches = 16;
  constexpr std::size_t kBatch = 256;
  Rand rng(seed);
  std::vector<Dist> out(kBatch);
  double on_s = 0;
  double off_s = 0;
  for (int block = -1; block < kBlockPairs; ++block) {  // block -1 warms up
    const auto pairs = uniform_pairs(rng, n, kBatch * kBatches);
    for (const bool traced : {false, true}) {
      if (traced) dsketch::obs::TraceSession::start();
      const auto t0 = Clock::now();
      for (int b = 0; b < kBatches; ++b) {
        service.query_batch({pairs.data() + b * kBatch, kBatch}, out);
      }
      const double s = seconds_since(t0);
      if (traced) dsketch::obs::TraceSession::stop();
      if (block >= 0) (traced ? on_s : off_s) += s;
    }
  }
  return 100.0 * (on_s / off_s - 1.0);
}

void report_common(RunContext& ctx, const std::vector<double>& setups,
                   double timed_s, double op_ms, double bytes_per_node,
                   std::uint64_t label_entries,
                   std::shared_ptr<const dsketch::DistanceOracle> obs_oracle,
                   std::uint32_t n) {
  Report& r = ctx.report;
  r.end_to_end("setup_s", median(setups), "s");
  r.end_to_end("op_ms", op_ms, "ms");
  r.end_to_end("peak_rss_mb", peak_rss_mb(), "MiB");
  r.end_to_end("label_bytes_per_node", bytes_per_node, "bytes");
  r.ledger("setup_s.max", *std::max_element(setups.begin(), setups.end()), "s");
  r.ledger("timed_s", timed_s, "s");
  if (!ctx.tracer.on()) return;
  static constexpr const char* kLayerNames[] = {"graph", "sketch", "congest",
                                                "serve", "dynamics"};
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    r.per_layer(std::string(kLayerNames[l]) + ".busy_pct",
                100.0 * ctx.tracer.layer_s(static_cast<Layer>(l)) / timed_s, "%");
  }
  r.per_layer("sketch.label_entries", static_cast<double>(label_entries), "count");
  r.per_layer("obs.trace_overhead_pct",
              program_trace_overhead_pct(std::move(obs_oracle), n,
                                         derive_seed(ctx.opt.seed, 99)),
              "%");
  r.per_layer("obs.bench_trace_overhead_pct",
              100.0 * static_cast<double>(ctx.tracer.spans()) *
                  Tracer::span_cost_s() / timed_s,
              "%");
}

}  // namespace perfbench
