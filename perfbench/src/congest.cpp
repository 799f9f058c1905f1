// congest-er20k: the paper's own algorithm. One operation is the
// in-network TZ build (build_tz_distributed, oracle termination) in the
// CONGEST simulator; its rounds and messages are the Theorem 1.1
// quantities.
#include <algorithm>
#include <limits>
#include <optional>

#include "dynamics/incremental.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dsketch;

namespace {

/// Checks label L(s) against the exact row d(s, .): every bunch entry
/// carries d(s, w), and every pivot p_i(s) is a nearest node of A_i.
bool label_matches_row(const LabelView& label, const Hierarchy& h,
                       const std::vector<std::uint64_t>& row) {
  for (std::uint32_t e = 0; e < label.count; ++e) {
    if (label.bunch[e].dist != row[label.bunch[e].node]) return false;
  }
  for (std::uint32_t i = 0; i < h.k(); ++i) {
    std::uint64_t nearest = std::numeric_limits<std::uint64_t>::max();
    for (NodeId w = 0; w < h.n(); ++w) {
      if (h.in_level(w, i)) nearest = std::min(nearest, row[w]);
    }
    const DistKey& p = label.pivot(i);
    if (p.dist != nearest || row[p.id] != p.dist) return false;
  }
  return true;
}

}  // namespace

void run_congest(RunContext& ctx) {
  const GraphSpec spec{ctx.opt.small ? 1500u : 20000u};
  Tracer& tr = ctx.tracer;

  Input in;
  Graph g;
  std::optional<Hierarchy> hier;
  const auto setups = time_setups(kSetupReps, [&] {
    in = make_input(spec, derive_seed(ctx.opt.seed, 1));
    g = to_graph(spec.n, in.edges);
    hier = hierarchy_of(in, spec.k);
  });
  const Hierarchy& h = *hier;

  // References, outside the timed window: the centralized labels on the
  // same hierarchy, exact rows, and a lower bound on S.
  ThreadPool pool(ctx.opt.lanes);
  const LabelArena central = build_tz_centralized(g, h, &pool);
  const RefGraph ref(spec.n, in.edges);
  const ReferenceRows rows = reference_rows(ref, 4, 1000,
                                            derive_seed(ctx.opt.seed, 2));
  std::uint32_t S = 0;
  for (const std::uint32_t s : rows.sources) {
    S = std::max(S, ref.max_shortest_path_hops(s));
  }
  const double rounds_max = round_bound(spec.n, spec.k, S);
  const double messages_max = message_bound(spec.n, in.edges.size(), spec.k);

  SimConfig cfg;
  cfg.threads = ctx.opt.lanes;
  std::vector<double> build_s;
  std::shared_ptr<const TzLabelOracle> last;
  SimStats stats;
  double timed = 0;
  while (timed < ctx.opt.seconds) {
    tr.open();
    const auto t0 = Clock::now();
    TzDistributedResult result;
    {
      Tracer::Span s(tr, Layer::kCongest, "congest.build");
      result = build_tz_distributed(g, h, TerminationMode::kOracle, cfg);
    }
    build_s.push_back(seconds_since(t0));
    tr.close();
    timed += build_s.back();

    // Checks, outside the timed window.
    ctx.check.expect(result.completed, "in-network build did not complete");
    ctx.check.expect(result.total_rounds() <= rounds_max,
                     "rounds above the Theorem 1.1 bound");
    ctx.check.expect(result.total_messages() <= messages_max,
                     "messages above the Theorem 1.1 bound");
    for (NodeId u = 0; u < spec.n && result.completed; ++u) {
      if (u == 0 && ctx.check.plant(Plant::kLabel)) {
        TzLabelBuilder wrong = TzLabelBuilder::from_view(result.labels.view(u));
        wrong.set_pivot(0, {wrong.pivot(0).dist + 1, wrong.pivot(0).id});
        ctx.check.expect(wrong.view() == central.view(u),
                         "in-network label differs from centralized");
        continue;
      }
      ctx.check.expect(result.labels.view(u) == central.view(u),
                       "in-network label differs from centralized");
    }
    for (std::size_t i = 0; i < rows.sources.size() && result.completed; ++i) {
      ctx.check.expect(
          label_matches_row(result.labels.view(rows.sources[i]), h, rows.dist[i]),
          "label distances differ from Dijkstra");
    }
    for (std::size_t j = 0; j < rows.pairs.size() && result.completed; ++j) {
      const auto [u, v] = rows.pairs[j];
      check_stretch(ctx.check,
                    tz_query(result.labels.view(u), result.labels.view(v)),
                    rows.pair_dist[j], spec.k);
    }
    stats = result.stats;
    stats += result.tree_stats;
    last = std::make_shared<const TzLabelOracle>(std::move(result.labels), spec.k);
  }

  const SketchStore packed = SketchStore::from_oracle(*last);
  const double bytes_per_node =
      static_cast<double>(64 + packed.encoded_bytes()) / spec.n;
  Report& r = ctx.report;
  r.ledger("congest_build_s", median(build_s), "s");
  r.ledger("congest_build_s.min", *std::min_element(build_s.begin(), build_s.end()), "s");
  r.ledger("congest_build_s.max", *std::max_element(build_s.begin(), build_s.end()), "s");
  r.ledger("rounds", static_cast<double>(stats.rounds), "rounds");
  r.ledger("messages", static_cast<double>(stats.messages), "messages");
  r.ledger("round_bound", rounds_max, "rounds");
  r.ledger("message_bound", messages_max, "messages");
  r.ledger("S_lower_bound", S, "hops");
  if (tr.on()) {
    r.ledger("congest.node_steps", static_cast<double>(stats.node_steps), "count");
    r.ledger("congest.words", static_cast<double>(stats.words), "words");
    r.ledger("congest.ns_per_message",
             1e9 * median(build_s) / static_cast<double>(stats.messages), "ns");
    r.ledger("congest.max_outbox", static_cast<double>(stats.max_outbox), "messages");
    const auto phases = stats.breakdown();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const std::string p = "congest.phase" + std::to_string(i);
      r.ledger(p + ".rounds", static_cast<double>(phases[i].rounds), "rounds");
      r.ledger(p + ".messages", static_cast<double>(phases[i].messages), "messages");
    }
  }
  const std::uint64_t entries =
      last->labels().total_entries() + static_cast<std::uint64_t>(spec.n) * spec.k;
  report_common(ctx, setups, timed, 1e3 * median(build_s),
                bytes_per_node, entries, last, spec.n);
}

}  // namespace perfbench
