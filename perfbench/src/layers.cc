#include "layers.h"

#include <algorithm>
#include <memory>

namespace perfbench {

void AddRunStats(const tetris::EngineResult& r, LayerTotals* t) {
  const tetris::RunStats& s = r.stats;
  const auto max_into = [](int64_t* into, size_t v) {
    *into = std::max(*into, static_cast<int64_t>(v));
  };
  t->output_tuples += static_cast<int64_t>(s.output_tuples);
  t->resolutions += s.tetris.resolutions;
  t->kb_inserts += s.tetris.kb_inserts;
  t->boxes_loaded += s.tetris.boxes_loaded;
  t->skeleton_nodes += s.tetris.skeleton_nodes;
  t->oracle_probes += s.oracle_probes;
  max_into(&t->kb_peak_bytes, s.memory.kb_bytes);
  max_into(&t->gap_boxes, s.input_gap_boxes);
  max_into(&t->index_bytes, s.memory.index_bytes);
  max_into(&t->shard_count, s.shards);
  max_into(&t->shard_max_peak_bytes, s.max_shard_peak_bytes);
  std::vector<double> walls;
  double sum = 0.0;
  for (const tetris::ShardRunInfo& sh : r.shard_runs) {
    if (sh.skipped_empty) continue;
    walls.push_back(sh.stats.wall_ms);
    sum += sh.stats.wall_ms;
  }
  if (!walls.empty() && s.wall_ms > 0) {
    t->parallelism.push_back(sum / s.wall_ms);
    const double med = Median(walls);
    if (med > 0) {
      t->skew.push_back(*std::max_element(walls.begin(), walls.end()) / med);
    }
  }
}

double ProbeTetris(Tracer* tr, uint64_t op, const tetris::JoinQuery& query,
                   const std::vector<int>& sao, int depth,
                   tetris::JoinAlgorithm algo,
                   const std::vector<const tetris::Index*>* prebuilt) {
  std::vector<std::unique_ptr<tetris::Index>> owned;
  std::vector<const tetris::Index*> ptrs;
  if (prebuilt != nullptr) {
    ptrs = *prebuilt;
  } else {
    owned = Probe(tr, "index.build", op, [&] {
      return tetris::MakeSaoConsistentIndexes(query, sao, depth);
    });
    ptrs = tetris::IndexPtrs(owned);
  }
  const Clock::time_point t0 = Clock::now();
  (void)tetris::RunTetrisJoin(query, ptrs, depth, algo, sao);
  const Clock::time_point t1 = Clock::now();
  if (tr != nullptr) tr->Record("tetris.run", op, t0, t1);
  return MsBetween(t0, t1);
}

bool IsOpSpan(const std::string& name) {
  return name == "engine.run_join" || name == "server.execute" ||
         name == "server.append" || name == "server.delete" ||
         name == "server.replace";
}

namespace {

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

std::vector<Metric> LayerMetrics(const Tracer& tr, const LayerTotals& t,
                                 double trace_overhead_pct) {
  const auto med = [&](const char* name, const char* tag = nullptr) {
    return Median(tr.DurationsMs(name, tag));
  };
  const auto count = [](int64_t v) { return static_cast<double>(v); };

  std::vector<double> writes = tr.DurationsMs("server.append");
  const std::vector<double> deletes = tr.DurationsMs("server.delete");
  writes.insert(writes.end(), deletes.begin(), deletes.end());

  return {
      {"query.min_depth_ms", med("query.min_depth"), "ms"},
      {"engine.run_join_ms", med("engine.run_join"), "ms"},
      {"engine.facade_ms", Median(t.facade_ms), "ms"},
      {"engine.output_tuples", count(t.output_tuples), "count"},
      {"shard.plan_ms", med("shard.plan"), "ms"},
      {"shard.count", count(t.shard_count), "count"},
      {"shard.max_peak_bytes", count(t.shard_max_peak_bytes), "bytes"},
      {"executor.parallelism", Median(t.parallelism), "ratio"},
      {"executor.skew", Median(t.skew), "ratio"},
      {"tetris.run_ms", med("tetris.run"), "ms"},
      {"tetris.resolutions", count(t.resolutions), "count"},
      {"tetris.kb_inserts", count(t.kb_inserts), "count"},
      {"tetris.boxes_loaded", count(t.boxes_loaded), "count"},
      {"tetris.skeleton_nodes", count(t.skeleton_nodes), "count"},
      {"tetris.oracle_probes", count(t.oracle_probes), "count"},
      {"kb.peak_bytes", count(t.kb_peak_bytes), "bytes"},
      {"index.build_ms", med("index.build"), "ms"},
      {"index.gap_boxes", count(t.gap_boxes), "count"},
      {"index.bytes", count(t.index_bytes), "bytes"},
      {"server.hit_ms", med("server.execute", "hit"), "ms"},
      {"server.patched_ms", med("server.execute", "patched"), "ms"},
      {"server.cold_ms", med("server.execute", "cold"), "ms"},
      {"server.append_ms", med("server.append"), "ms"},
      {"server.delete_ms", med("server.delete"), "ms"},
      {"server.write_tail_ms", TailOf(writes).value, "ms"},
      {"server.replace_ms", med("server.replace"), "ms"},
      {"server.hit_ratio", Ratio(t.cache_hits, t.cache_hits + t.cache_misses),
       "ratio"},
      {"server.survival_ratio",
       Ratio(t.cache_survivals, t.cache_survivals + t.cache_invalidations),
       "ratio"},
      {"server.cache_bytes", count(t.cache_bytes), "bytes"},
      {"registry.snap_ms", med("registry.snap"), "ms"},
      {"incremental.rerun_ratio", Ratio(t.shards_rerun, t.shards_total),
       "ratio"},
      {"index_cache.builds", count(t.index_builds), "count"},
      {"index_cache.hit_ratio",
       Ratio(t.index_hits, t.index_hits + t.index_builds), "ratio"},
      {"index_cache.promotes", count(t.index_promotes), "count"},
      {"index_cache.compactions", count(t.index_compactions), "count"},
      {"index_cache.bytes", count(t.index_cache_bytes), "bytes"},
      {"trace.overhead_pct", trace_overhead_pct, "%"},
  };
}

std::vector<std::pair<std::string, int64_t>> DeterministicCounters(
    const LayerTotals& t) {
  return {
      {"output_tuples", t.output_tuples},
      {"resolutions", t.resolutions},
      {"kb_inserts", t.kb_inserts},
      {"boxes_loaded", t.boxes_loaded},
      {"skeleton_nodes", t.skeleton_nodes},
      {"oracle_probes", t.oracle_probes},
      {"reads_hit", t.reads_hit},
      {"reads_patched", t.reads_patched},
      {"reads_cold", t.reads_cold},
      {"cache_hits", t.cache_hits},
      {"cache_misses", t.cache_misses},
      {"cache_insertions", t.cache_insertions},
      {"cache_evictions", t.cache_evictions},
      {"cache_invalidations", t.cache_invalidations},
      {"cache_survivals", t.cache_survivals},
      {"patched_reads", t.patched_reads},
      {"shards_rerun", t.shards_rerun},
      {"shards_total", t.shards_total},
      {"index_builds", t.index_builds},
      {"index_hits", t.index_hits},
      {"index_promotes", t.index_promotes},
      {"index_compactions", t.index_compactions},
  };
}

}  // namespace perfbench
