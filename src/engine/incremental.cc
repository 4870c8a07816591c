#include "engine/incremental.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "engine/batch_runner.h"
#include "engine/parallel_executor.h"

namespace tetris {

TupleTouch TouchedBoxOfTuple(const std::vector<int>& var_ids, int num_attrs,
                             int depth, const Tuple& t, DyadicBox* out) {
  DyadicBox box = DyadicBox::Universal(num_attrs);
  for (size_t c = 0; c < var_ids.size(); ++c) {
    const uint64_t v = t[c];
    if (depth > kMaxDepth || (v >> depth) != 0) {
      // A value off the depth-`depth` grid: the delta changes which
      // depth the query is even servable at, so nothing is provably
      // untouched.
      return TupleTouch::kEverything;
    }
    const DyadicInterval unit = DyadicInterval::Unit(v, depth);
    DyadicInterval& dim = box[var_ids[c]];
    if (dim.IsLambda()) {
      dim = unit;
    } else if (dim != unit) {
      // The atom binds two of its columns to the same query attribute
      // and this tuple disagrees on them: it can never project onto an
      // output point, so it touches nothing.
      return TupleTouch::kNone;
    }
  }
  *out = box;
  return TupleTouch::kBox;
}

std::vector<DyadicBox> TouchedOutputBoxes(const JoinQuery& query, int depth,
                                          const std::string& rel_name,
                                          const std::vector<Tuple>& changed) {
  std::vector<DyadicBox> boxes;
  std::unordered_set<DyadicBox, DyadicBoxHash> seen;
  const int n = query.num_attrs();
  for (const Atom& atom : query.atoms()) {
    if (atom.rel == nullptr || atom.rel->name() != rel_name) continue;
    for (const Tuple& t : changed) {
      DyadicBox box;
      switch (TouchedBoxOfTuple(atom.var_ids, n, depth, t, &box)) {
        case TupleTouch::kNone:
          break;
        case TupleTouch::kEverything:
          return {DyadicBox::Universal(n)};
        case TupleTouch::kBox:
          if (seen.insert(box).second) boxes.push_back(box);
          break;
      }
    }
  }
  return boxes;
}

PatchResult SplicePatch(EngineResult fresh,
                        const std::vector<DyadicBox>& rerun,
                        const std::vector<Tuple>& old_tuples, int depth) {
  PatchResult out;
  out.shards_total = fresh.stats.shards;
  out.shards_rerun = rerun.size();
  out.tuples_patched = fresh.tuples.size();
  // Keep old tuples outside every re-run box (unchanged by
  // construction), replace everything inside with the fresh outputs.
  // Each re-run box lies in its own shard, so the fresh outputs are
  // disjoint from the kept tuples, and both runs are sorted: a merge,
  // not a re-sort of the union.
  std::vector<std::vector<Tuple>> runs(2);
  std::vector<Tuple>& kept = runs[0];
  kept.reserve(old_tuples.size());
  for (const Tuple& t : old_tuples) {
    if (std::none_of(rerun.begin(), rerun.end(), [&](const DyadicBox& box) {
          return box.ContainsPoint(t, depth);
        })) {
      kept.push_back(t);
    }
  }
  out.tuples_kept = kept.size();
  runs[1] = std::move(fresh.tuples);
  out.result = std::move(fresh);
  EngineResult& res = out.result;
  res.tuples = MergeSortedRuns(std::move(runs));
  res.stats.output_tuples = res.tuples.size();
  res.stats.memory.output_bytes = TupleBytes(res.tuples);
  return out;
}

PatchResult PatchJoin(const JoinQuery& query, EngineKind kind,
                      const EngineOptions& options,
                      const std::vector<Tuple>& old_tuples,
                      const std::vector<DyadicBox>& touched) {
  const auto t0 = std::chrono::steady_clock::now();
  PatchResult out;
  auto finish = [&t0, &out]() -> PatchResult {
    const auto t1 = std::chrono::steady_clock::now();
    out.result.stats.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return std::move(out);
  };

  // A patch fails exactly where a fresh sharded run would.
  EngineResult& res = out.result;
  res.stats.engine = kind;
  int depth = 0;
  res.error = ValidateEngineOptions(query, kind, options,
                                    /*plans_shards=*/true, &depth);
  if (!res.error.empty()) return finish();

  // Nothing touched: the old result is the new result, no planning.
  if (touched.empty()) {
    res.ok = true;
    res.tuples = old_tuples;
    res.stats.output_tuples = old_tuples.size();
    res.stats.memory.output_bytes = TupleBytes(res.tuples);
    out.tuples_kept = old_tuples.size();
    return finish();
  }

  // One pipeline run, as a served patched read: filtered to the touched
  // boxes (ShardQuery::touched), or unfiltered when one covers the whole
  // output space (an off-grid value, a write to a 0-ary relation).
  out.full_recompute =
      std::any_of(touched.begin(), touched.end(),
                  [](const DyadicBox& b) { return b.Support().empty(); });
  BatchOptions batch;
  batch.depth = depth;
  batch.shards = options.shards;
  batch.threads = options.threads;
  batch.memory_budget_bytes = options.memory_budget_bytes;
  batch.executor = options.executor;
  ShardPipelineResult run = RunShardPipeline(
      {{&query, options.order, options.indexes,
        out.full_recompute ? nullptr : &touched}},
      kind, batch);
  EngineResult& fresh = run.batch.results[0];
  if (out.full_recompute || !fresh.ok) {
    res = std::move(fresh);
    out.tuples_patched = res.tuples.size();
    if (out.full_recompute) {
      // Every shard meets the universal box, so every shard re-ran.
      out.shards_total = out.shards_rerun = res.stats.shards;
    }
    return finish();
  }
  out = SplicePatch(std::move(fresh), run.rerun_boxes[0], old_tuples, depth);
  return finish();
}

}  // namespace tetris
