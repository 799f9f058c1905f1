// churn-zipf-er20k: writes beside reads. An equal insert / delete /
// reweight UpdateStream is applied one update at a time with
// TzDynamicSketch::apply; RebuildPolicy's budget of unrepaired updates
// triggers rebuild(); every few updates a snapshot is published with
// QueryService::swap; one zipf batch is served per update. A run covers
// whole rebuild rounds.
#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "dynamics/incremental.hpp"
#include "dynamics/update_stream.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dsketch;

namespace {

constexpr std::size_t kBatch = 256;
constexpr std::size_t kUnrepairedBudget = 64;
constexpr std::uint64_t kSnapshotEvery = 10;
constexpr std::size_t kHotPairs = 4096;
constexpr double kZipfS = 1.2;
constexpr int kNoDebtChecksPerRound = 2;

/// Zipf(s) draws from a fixed universe of distinct non-self pairs.
class ZipfPairs {
 public:
  ZipfPairs(std::uint32_t n, std::size_t universe, double s, std::uint64_t seed)
      : rng_(seed) {
    std::unordered_set<std::uint64_t> seen;
    while (pairs_.size() < universe) {
      const auto u = static_cast<std::uint32_t>(rng_.below(n));
      const auto v = static_cast<std::uint32_t>(rng_.below(n));
      if (u != v && seen.insert((std::uint64_t{u} << 32) | v).second) {
        pairs_.emplace_back(u, v);
      }
    }
    double total = 0;
    for (std::size_t r = 0; r < universe; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::vector<QueryPair> batch(std::size_t count) {
    std::vector<QueryPair> out(count);
    for (auto& p : out) {
      const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform());
      p = pairs_[std::min<std::size_t>(it - cdf_.begin(), pairs_.size() - 1)];
    }
    return out;
  }

 private:
  Rand rng_;
  std::vector<QueryPair> pairs_;
  std::vector<double> cdf_;
};

void mirror_update(EdgeMirror& mirror, const EdgeUpdate& up) {
  if (up.kind == UpdateKind::kDelete) {
    mirror.erase(up.u, up.v);
  } else {
    mirror.set(up.u, up.v, up.weight);
  }
}

}  // namespace

void run_churn(RunContext& ctx) {
  const GraphSpec spec{ctx.opt.small ? 1500u : 20000u};
  Tracer& tr = ctx.tracer;
  ThreadPool pool(ctx.opt.lanes);
  QueryServiceConfig qcfg;
  qcfg.shards = 8;
  qcfg.threads = ctx.opt.lanes;
  qcfg.cache_capacity = 512;  // per shard: 4096 answers in all

  Input in;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<TzDynamicSketch> sketch;
  std::unique_ptr<UpdateStream> stream;
  std::optional<ZipfPairs> zipf;
  std::shared_ptr<const DistanceOracle> published;
  const auto setups = time_setups(kSetupReps, [&] {
    service.reset();
    published.reset();
    sketch.reset();
    stream.reset();
    in = make_input(spec, 0);
    const Graph g = to_graph(spec.n, in.edges);
    sketch = std::make_unique<TzDynamicSketch>(g, spec.k, base_hierarchy_seed(spec),
                                               &pool);
    UpdateStreamConfig ucfg;
    ucfg.wmin = spec.wmin;
    ucfg.wmax = spec.wmax;
    ucfg.seed = derive_seed(ctx.opt.seed, 6);
    stream = std::make_unique<UpdateStream>(g, ucfg);
    published = sketch->snapshot();
    service = std::make_unique<QueryService>(published, qcfg);
    zipf.emplace(spec.n, kHotPairs, kZipfS, derive_seed(ctx.opt.seed, 7));
  });

  EdgeMirror mirror(spec.n, in.edges);
  std::uint64_t check_seed = derive_seed(ctx.opt.seed, 2);
  // Exact distances on the mirrored graph from `sources` sampled sources;
  // `answer` is the sketch answer to check, `full` asks for the whole
  // [d, (2k-1)d] window rather than only answer >= d.
  auto check_against_dijkstra = [&](auto&& answer, bool full, int sources,
                                    int targets) {
    const ReferenceRows rows =
        reference_rows(mirror.graph(), sources, targets, check_seed++);
    for (std::size_t j = 0; j < rows.pairs.size(); ++j) {
      const Dist a = answer(rows.pairs[j].first, rows.pairs[j].second);
      if (full) {
        check_stretch(ctx.check, a, rows.pair_dist[j], spec.k);
      } else {
        check_no_underestimate(ctx.check, a, rows.pair_dist[j]);
      }
    }
  };
  auto published_answer = [&](NodeId u, NodeId v) { return published->query(u, v); };
  check_against_dijkstra(published_answer, true, 2, 500);

  RebuildPolicyConfig pcfg;
  pcfg.max_unrepaired = kUnrepairedBudget;
  RebuildPolicy policy(pcfg);
  // Rebuilds keep the base hierarchy, so their cost tracks the churned
  // graph rather than the luck of a fresh draw.
  const std::uint64_t rebuild_seed = base_hierarchy_seed(spec);
  std::uint64_t updates = 0, queries = 0, rebuilds = 0, swaps = 0;
  double timed = 0, serve_s = 0;
  int no_debt_checks = 0;
  std::vector<double> round_ms;  // per-update time of each rebuild round
  double round_start_s = 0;
  std::uint64_t round_start_updates = 0;
  std::vector<Dist> answers(kBatch);
  tr.open();
  for (bool round_done = false; !(round_done && timed >= ctx.opt.seconds);) {
    round_done = false;
    const auto pairs = zipf->batch(kBatch);
    const auto t0 = Clock::now();
    EdgeUpdate up;
    {
      Tracer::Span s(tr, Layer::kGraph, "graph.update");
      up = stream->next();
    }
    bool repaired = false;
    bool rebuild = false;
    {
      Tracer::Span s(tr, Layer::kDynamics, "dynamics.repair");
      repaired = sketch->apply(stream->graph(), up);
      rebuild = policy.note_update(stream->graph(), *published, repaired);
    }
    if (rebuild) {
      Tracer::Span s(tr, Layer::kDynamics, "dynamics.rebuild");
      sketch->rebuild(stream->graph(), rebuild_seed, &pool);
      policy.note_rebuilt();
      ++rebuilds;
    }
    ++updates;
    if (rebuild || updates % kSnapshotEvery == 0) {
      {
        Tracer::Span s(tr, Layer::kDynamics, "dynamics.snapshot");
        published = sketch->snapshot();
      }
      Tracer::Span s(tr, Layer::kServe, "serve.swap");
      service->swap(published);
      ++swaps;
    }
    const auto tq = Clock::now();
    {
      Tracer::Span s(tr, Layer::kServe, "serve.query");
      service->query_batch(pairs, answers);
    }
    serve_s += seconds_since(tq);
    timed += seconds_since(t0);
    queries += kBatch;

    // Checks, outside the timed window.
    mirror_update(mirror, up);
    if (ctx.check.plant(Plant::kService)) answers[0] += 1;
    for (std::size_t i = 0; i < kBatch; ++i) {
      ctx.check.expect(answers[i] != kInfDist &&
                           answers[i] == published->query(pairs[i].first,
                                                          pairs[i].second),
                       "service answer differs from its pinned snapshot");
    }
    if (rebuild) {
      check_against_dijkstra(published_answer, true, 2, 500);
      no_debt_checks = 0;
      round_done = true;
      round_ms.push_back(1e3 * (timed - round_start_s) /
                         static_cast<double>(updates - round_start_updates));
      round_start_s = timed;
      round_start_updates = updates;
    } else if (repaired && sketch->unrepaired_since_rebuild() == 0 &&
               no_debt_checks < kNoDebtChecksPerRound) {
      ++no_debt_checks;
      const LabelArena& live = sketch->labels();
      check_against_dijkstra(
          [&](NodeId u, NodeId v) { return tz_query(live.view(u), live.view(v)); },
          false, 1, 200);
    }
  }
  tr.close();

  const QueryServiceStats st = service->stats();
  const RepairStats& rs = sketch->stats();
  Report& r = ctx.report;
  r.ledger("qps", static_cast<double>(queries) / serve_s, "queries/s");
  r.ledger("updates_per_s", static_cast<double>(updates) / (timed - serve_s),
           "updates/s");
  r.ledger("updates", static_cast<double>(updates), "count");
  r.ledger("rebuilds", static_cast<double>(rebuilds), "count");
  r.ledger("swaps", static_cast<double>(swaps), "count");
  r.ledger("hit_rate", st.hit_rate, "ratio");
  if (tr.on()) {
    r.ledger("graph.update_ms", 1e3 * tr.mean_s("graph.update"), "ms");
    r.ledger("dynamics.repair_ms", 1e3 * tr.mean_s("dynamics.repair"), "ms");
    r.ledger("dynamics.explored_per_update",
             static_cast<double>(rs.nodes_explored) / rs.updates_seen, "count");
    r.ledger("dynamics.entries_improved", static_cast<double>(rs.entries_improved),
             "count");
    r.ledger("dynamics.rebuilds", static_cast<double>(rs.rebuilds), "count");
    r.ledger("dynamics.rebuild_s", tr.mean_s("dynamics.rebuild"), "s");
    r.ledger("dynamics.snapshot_ms", 1e3 * tr.mean_s("dynamics.snapshot"), "ms");
    const LabelArena& live = sketch->labels();
    const auto probe = zipf->batch(100000);
    Dist sink = 0;
    const auto t0 = Clock::now();
    for (const auto& [u, v] : probe) sink += tz_query(live.view(u), live.view(v));
    r.ledger("serve.label_query_ns", 1e9 * seconds_since(t0) / probe.size(), "ns");
    volatile Dist keep = sink;
    (void)keep;
    r.ledger("serve.query_service.hit_rate", st.hit_rate, "ratio");
    r.ledger("serve.query_service.cache_invalidations",
             static_cast<double>(st.cache_invalidations), "count");
    r.ledger("serve.query_service.swap_us", 1e6 * tr.mean_s("serve.swap"), "us");
  }
  // The run ends right after a rebuild: this is the rebuilt sketch.
  const double bytes_per_node =
      static_cast<double>(64 + SketchStore::from_oracle(*published).encoded_bytes()) /
      spec.n;
  const std::uint64_t entries = sketch->labels().total_entries() +
                                static_cast<std::uint64_t>(spec.n) * spec.k;
  r.ledger("rounds", static_cast<double>(round_ms.size()), "count");
  report_common(ctx, setups, timed, median(round_ms),
                bytes_per_node, entries, published, spec.n);
}

}  // namespace perfbench
