// serve-uniform-er100k: read-only serving. Uniform random pairs go
// through a one-lane QueryService over the saved v3 store, in alternating
// blocks from the heap store and from the mmap store. The store dwarfs the service's
// LRU and the CPU caches, so this is the case every cache change bypasses.
#include <algorithm>
#include <filesystem>
#include <numeric>

#include "dynamics/incremental.hpp"
#include "serve/mmap_store.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/tz_centralized.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dsketch;

namespace {

constexpr std::size_t kBatch = 256;
constexpr std::size_t kVerifyEvery = 4;  ///< every 4th batch is re-queried

QueryServiceConfig service_config(unsigned lanes) {
  QueryServiceConfig cfg;
  cfg.shards = 8;
  cfg.threads = lanes;
  cfg.cache_capacity = 1024;  // per shard: 8192 answers in all
  return cfg;
}

constexpr double kBlockSeconds = 0.5;  ///< batch time per alternating block

/// One store served through its own QueryService. Blocks of batches
/// alternate between the heap and the mmap lane, so both see the same
/// host conditions; each block yields one time per query.
struct Lane {
  Lane(RunContext& ctx, std::shared_ptr<const DistanceOracle> oracle,
       const char* span)
      : ctx(ctx), service(std::move(oracle), service_config(ctx.opt.lanes)),
        span(span) {}

  /// Warm-up: one query per node touches every record once.
  void warm(std::uint32_t n, Rand& rng) {
    std::vector<Dist> answers(kBatch);
    for (std::uint32_t base = 0; base < n; base += kBatch) {
      std::vector<QueryPair> pairs;
      for (std::uint32_t u = base; u < std::min<std::uint32_t>(n, base + kBatch); ++u) {
        pairs.emplace_back(u, static_cast<std::uint32_t>(rng.below(n)));
      }
      service.query_batch(pairs, {answers.data(), pairs.size()});
    }
    service.reset_stats();
  }

  /// Serves uniform batches for kBlockSeconds of batch time; checks every
  /// answer for kInfDist, then re-queries every kVerifyEvery-th batch
  /// directly against the pinned oracle once the block's clock stopped.
  void block(std::uint32_t n, Rand& rng) {
    std::vector<Dist> answers(kBatch);
    double block_s = 0;
    std::uint64_t block_queries = 0;
    while (block_s < kBlockSeconds) {
      const auto pairs = uniform_pairs(rng, n, kBatch);
      const auto t0 = Clock::now();
      {
        Tracer::Span s(ctx.tracer, Layer::kServe, span);
        service.query_batch(pairs, answers);
      }
      const double dt = seconds_since(t0);
      block_s += dt;
      block_queries += kBatch;
      batch_us.push_back(1e6 * dt);
      for (const Dist a : answers) {
        ctx.check.expect(a != kInfDist, "service answered kInfDist");
      }
      if (batch_us.size() % kVerifyEvery == 0) {
        verify_pairs.insert(verify_pairs.end(), pairs.begin(), pairs.end());
        verify_answers.insert(verify_answers.end(), answers.begin(), answers.end());
      }
    }
    busy_s += block_s;
    queries += block_queries;
    block_ms_per_query.push_back(1e3 * block_s / static_cast<double>(block_queries));

    const OracleSnapshot pinned = service.snapshot();
    if (!verify_answers.empty() && ctx.check.plant(Plant::kService)) {
      verify_answers[0] += 1;
    }
    for (std::size_t i = 0; i < verify_pairs.size(); ++i) {
      const auto [u, v] = verify_pairs[i];
      ctx.check.expect(verify_answers[i] == pinned.oracle->query(u, v),
                       "service answer differs from its pinned oracle");
    }
    verify_pairs.clear();
    verify_answers.clear();
  }

  RunContext& ctx;
  QueryService service;
  const char* span;
  double busy_s = 0;
  std::uint64_t queries = 0;
  std::vector<double> batch_us;
  std::vector<double> block_ms_per_query;
  std::vector<QueryPair> verify_pairs;
  std::vector<Dist> verify_answers;
};

/// Mean ns of one direct single-thread query over `pairs`.
double direct_query_ns(const DistanceOracle& oracle,
                       const std::vector<QueryPair>& pairs) {
  Dist sink = 0;
  const auto t0 = Clock::now();
  for (const auto& [u, v] : pairs) sink += oracle.query(u, v);
  const double s = seconds_since(t0);
  volatile Dist keep = sink;  // keeps the loop from being optimized away
  (void)keep;
  return 1e9 * s / static_cast<double>(pairs.size());
}

double shard_imbalance(const QueryServiceStats& st) {
  if (st.shard_queries.empty()) return 0;
  const double total = std::accumulate(st.shard_queries.begin(),
                                       st.shard_queries.end(), 0.0);
  const double most = static_cast<double>(
      *std::max_element(st.shard_queries.begin(), st.shard_queries.end()));
  return most * static_cast<double>(st.shard_queries.size()) / total;
}

}  // namespace

void run_serve(RunContext& ctx) {
  const GraphSpec spec{ctx.opt.small ? 3000u : 100000u};
  const std::string store_path = ctx.dir + "/sketch.store";
  ThreadPool pool(ctx.opt.lanes);

  Input in;
  std::shared_ptr<const SketchStore> heap;
  std::shared_ptr<const MmapSketchStore> mapped;
  std::uint64_t entries = 0;
  const auto setups = time_setups(kSetupReps, [&] {
    heap.reset();
    mapped.reset();
    in = make_input(spec, derive_seed(ctx.opt.seed, 1));
    const Graph g = to_graph(spec.n, in.edges);
    const Hierarchy h = hierarchy_of(in, spec.k);
    {
      LabelArena labels = build_tz_centralized(g, h, &pool);
      entries = labels.total_entries() + static_cast<std::uint64_t>(spec.n) * spec.k;
      const TzLabelOracle oracle(std::move(labels), spec.k);
      SketchStore::from_oracle(oracle).save_file(store_path);
    }
    heap = std::make_shared<const SketchStore>(SketchStore::load_file(store_path));
    mapped = MmapSketchStore::open(store_path);
  });
  const ReferenceRows ref = reference_rows(RefGraph(spec.n, in.edges), 8, 1000,
                                           derive_seed(ctx.opt.seed, 2));

  Rand rng(derive_seed(ctx.opt.seed, 4));
  Lane hp(ctx, heap, "serve.heap_batch");
  Lane mp(ctx, mapped, "serve.mmap_batch");
  hp.warm(spec.n, rng);
  mp.warm(spec.n, rng);
  ctx.tracer.open();
  while (hp.busy_s + mp.busy_s < ctx.opt.seconds) {
    hp.block(spec.n, rng);
    mp.block(spec.n, rng);
  }
  ctx.tracer.close();
  const QueryServiceStats heap_stats = hp.service.stats();
  const QueryServiceStats mmap_stats = mp.service.stats();

  // Reference checks: Dijkstra stretch, heap = mmap, service = direct.
  {
    QueryService service(heap, service_config(ctx.opt.lanes));
    std::vector<QueryPair> pairs(ref.pairs.begin(), ref.pairs.end());
    std::vector<Dist> answers(pairs.size());
    service.query_batch(pairs, answers);
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      const auto [u, v] = pairs[j];
      const Dist h = heap->query(u, v);
      Dist m = mapped->query(u, v);
      if (ctx.check.plant(Plant::kHeapMmap)) m += 1;
      ctx.check.expect(h == m, "heap and mmap stores disagree");
      ctx.check.expect(answers[j] == h, "service answer differs from the store");
      check_stretch(ctx.check, h, ref.pair_dist[j], spec.k);
    }
  }

  const double heap_qps = static_cast<double>(hp.queries) / hp.busy_s;
  const double mmap_qps = static_cast<double>(mp.queries) / mp.busy_s;
  const double timed = hp.busy_s + mp.busy_s;
  const double bytes_per_node =
      static_cast<double>(std::filesystem::file_size(store_path)) / spec.n;
  Report& r = ctx.report;
  r.ledger("heap_qps", heap_qps, "queries/s");
  r.ledger("mmap_qps", mmap_qps, "queries/s");
  r.ledger("heap_p50_us", quantile(hp.batch_us, 0.5), "us");
  r.ledger("heap_p99_us", quantile(hp.batch_us, 0.99), "us");
  r.ledger("mmap_p50_us", quantile(mp.batch_us, 0.5), "us");
  r.ledger("mmap_p99_us", quantile(mp.batch_us, 0.99), "us");
  r.ledger("batches", static_cast<double>(hp.batch_us.size() + mp.batch_us.size()),
           "count");
  r.ledger("batch_size", kBatch, "queries");
  if (ctx.tracer.on()) {
    Rand prng(derive_seed(ctx.opt.seed, 5));
    const auto probe = uniform_pairs(prng, spec.n, 200000);
    const double heap_ns = direct_query_ns(*heap, probe);
    const double mmap_ns = direct_query_ns(*mapped, probe);
    std::vector<double> cold;
    for (int i = 0; i < 5; ++i) {
      mapped->drop_pages();
      cold.push_back(direct_query_ns(
          *mapped, std::vector<QueryPair>(probe.begin() + i * 2000,
                                          probe.begin() + (i + 1) * 2000)));
    }
    r.ledger("serve.heap_query_ns", heap_ns, "ns");
    r.ledger("serve.mmap_query_ns", mmap_ns, "ns");
    r.ledger("serve.mmap_cold_query_ns", median(cold), "ns");
    r.ledger("serve.query_service.heap_overhead_ns", 1e9 / heap_qps - heap_ns, "ns");
    r.ledger("serve.query_service.mmap_overhead_ns", 1e9 / mmap_qps - mmap_ns, "ns");
    r.ledger("serve.query_service.heap_slice_p99_us", heap_stats.p99_shard_batch_us, "us");
    r.ledger("serve.query_service.mmap_slice_p99_us", mmap_stats.p99_shard_batch_us, "us");
    r.ledger("serve.query_service.shard_imbalance", shard_imbalance(heap_stats), "ratio");
    r.ledger("serve.query_service.hit_rate", heap_stats.hit_rate, "ratio");
  }
  const double op_ms =
      0.5 * (median(hp.block_ms_per_query) + median(mp.block_ms_per_query));
  report_common(ctx, setups, timed, op_ms,
                bytes_per_node, entries, heap, spec.n);
}

}  // namespace perfbench
