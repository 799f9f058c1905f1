// ship-er100k: the offline job of build-once, query-many. One operation
// goes from an edge-list file to a saved v3 store reopened both ways:
// ingest, hierarchy, centralized TZ build, pack, save, heap load, mmap open.
#include <filesystem>

#include "dynamics/incremental.hpp"
#include "graph/graph_io.hpp"
#include "serve/mmap_store.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/tz_centralized.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dsketch;

void run_ship(RunContext& ctx) {
  const GraphSpec spec{ctx.opt.small ? 3000u : 100000u};
  const std::string edge_path = ctx.dir + "/input.gr";
  const std::string store_path = ctx.dir + "/sketch.store";
  Tracer& tr = ctx.tracer;

  Input in;
  std::vector<std::uint32_t> graph_id;  // file node id -> ingested node id
  const auto setups = time_setups(kSetupReps, [&] {
    in = make_input(spec, derive_seed(ctx.opt.seed, 1));
    graph_id = write_snap(edge_path, spec.n, in.edges);
  });
  const Hierarchy h = hierarchy_of(in, spec.k, graph_id);
  const ReferenceRows ref = reference_rows(RefGraph(spec.n, in.edges), 8, 1000,
                                           derive_seed(ctx.opt.seed, 2));
  ThreadPool pool(ctx.opt.lanes);

  std::vector<double> pass_s, build_s, load_s;
  std::uint64_t entries = 0;
  std::uintmax_t file_bytes = 0;
  std::shared_ptr<const SketchStore> last_heap;
  double timed = 0;
  while (timed < ctx.opt.seconds) {
    tr.open();
    const auto t0 = Clock::now();
    Graph g;
    {
      Tracer::Span s(tr, Layer::kGraph, "graph.ingest");
      g = ingest_edge_list_file(edge_path, IngestFormat::kSnap);
    }
    LabelArena labels;
    {
      Tracer::Span s(tr, Layer::kSketch, "sketch.build_labels");
      labels = build_tz_centralized(g, h, &pool);
    }
    entries = labels.total_entries() +
              static_cast<std::uint64_t>(spec.n) * spec.k;
    {
      SketchStore store;
      {
        Tracer::Span s(tr, Layer::kServe, "serve.pack");
        const TzLabelOracle oracle(std::move(labels), spec.k);
        store = SketchStore::from_oracle(oracle);
      }
      Tracer::Span s(tr, Layer::kServe, "serve.save");
      store.save_file(store_path);
    }
    build_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    auto heap = std::make_shared<SketchStore>();
    {
      Tracer::Span s(tr, Layer::kServe, "serve.heap_load");
      *heap = SketchStore::load_file(store_path);
    }
    std::unique_ptr<MmapSketchStore> mapped;
    {
      Tracer::Span s(tr, Layer::kServe, "serve.mmap_open");
      mapped = MmapSketchStore::open(store_path);
    }
    load_s.push_back(seconds_since(t1));
    pass_s.push_back(seconds_since(t0));
    tr.close();
    timed += pass_s.back();

    // Checks, outside the timed window.
    file_bytes = std::filesystem::file_size(store_path);
    for (std::size_t j = 0; j < ref.pairs.size(); ++j) {
      const NodeId u = graph_id[ref.pairs[j].first];
      const NodeId v = graph_id[ref.pairs[j].second];
      const Dist h = heap->query(u, v);
      Dist m = mapped->query(u, v);
      if (ctx.check.plant(Plant::kHeapMmap)) m += 1;
      ctx.check.expect(h == m, "heap and mmap stores disagree");
      check_stretch(ctx.check, h, ref.pair_dist[j], spec.k);
    }
    last_heap = std::move(heap);
  }

  Report& r = ctx.report;
  r.ledger("build_s", median(build_s), "s");
  r.ledger("load_s", median(load_s), "s");
  r.ledger("store_bytes_per_node",
           static_cast<double>(file_bytes) / spec.n, "bytes");
  r.ledger("passes", static_cast<double>(pass_s.size()), "count");
  if (tr.on()) {
    r.ledger("graph.ingest_s", tr.mean_s("graph.ingest"), "s");
    r.ledger("sketch.build_labels_s", tr.mean_s("sketch.build_labels"), "s");
    r.ledger("sketch.label_entries", static_cast<double>(entries), "count");
    r.ledger("serve.pack_s", tr.mean_s("serve.pack"), "s");
    r.ledger("serve.save_s", tr.mean_s("serve.save"), "s");
    r.ledger("serve.encoded_bytes", static_cast<double>(last_heap->encoded_bytes()),
             "bytes");
    r.ledger("serve.heap_load_s", tr.mean_s("serve.heap_load"), "s");
    r.ledger("serve.mmap_open_ms", 1e3 * tr.mean_s("serve.mmap_open"), "ms");
  }
  report_common(ctx, setups, timed, 1e3 * median(pass_s),
                static_cast<double>(file_bytes) / spec.n, entries, last_heap,
                spec.n);
}

}  // namespace perfbench
