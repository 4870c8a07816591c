#include "engine/incremental.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "engine/parallel_executor.h"
#include "engine/shard_planner.h"
#include "geometry/box_restrict.h"

namespace tetris {

namespace {

EngineResult Failed(EngineKind kind, std::string error) {
  EngineResult r;
  r.stats.engine = kind;
  r.error = std::move(error);
  return r;
}

}  // namespace

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

  // Validation mirrors RunJoin so a patch fails exactly where a fresh
  // run would — delegating to RunJoin for unsupported shapes keeps the
  // rejection message canonical (e.g. "yannakakis: query is not
  // alpha-acyclic").
  if (!EngineSupports(kind, query)) {
    out.result = RunJoin(query, kind, options);
    out.full_recompute = true;
    return finish();
  }
  const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind);
  if (!options.order.empty()) {
    if (algo.has_value() && ChoosesOwnSao(*algo)) {
      out.result =
          Failed(kind, "order: Balance-lifted variants choose their own SAO");
      return finish();
    }
    if (!IsPermutation(options.order, query.num_attrs())) {
      out.result =
          Failed(kind, "order: not a permutation of the query attribute ids");
      return finish();
    }
  }
  const int depth = options.depth > 0 ? options.depth : query.MinDepth();
  if (algo.has_value() && depth > kMaxDepth) {
    out.result = Failed(kind, kGridTooDeepError);
    return finish();
  }

  // Nothing touched: the old result is the new result, no planning.
  if (touched.empty()) {
    out.result.ok = true;
    out.result.stats.engine = kind;
    out.result.tuples = old_tuples;
    out.result.stats.output_tuples = old_tuples.size();
    out.tuples_kept = old_tuples.size();
    out.note = "empty delta: result unchanged, 0 shards re-run";
    AppendNote(&out.result.shard_note, out.note);
    return finish();
  }

  auto full_run = [&](const std::string& why) -> PatchResult {
    out.result = RunJoin(query, kind, options);
    out.full_recompute = true;
    out.note = "full recompute: " + why;
    AppendNote(&out.result.shard_note, out.note);
    out.tuples_patched = out.result.tuples.size();
    return finish();
  };
  for (const DyadicBox& b : touched) {
    if (b.Support().empty()) {
      return full_run("a touched box covers the whole output space");
    }
  }

  WorkStealingPool& pool = options.executor != nullptr
                               ? *options.executor
                               : WorkStealingPool::Global();
  ShardPlanOptions popts;
  popts.shards = options.shards;
  popts.threads_hint = pool.threads();
  popts.memory_budget_bytes = options.memory_budget_bytes;
  popts.depth = depth;
  const ShardPlan plan = PlanShards(query, popts);
  out.shards_total = plan.shards.size();

  // Re-run exactly the shards whose subcube meets a touched box; a
  // shard disjoint from every touched box is provably unchanged. Inside
  // a met shard only the touched boxes can change, so the Tetris family
  // re-runs just their hull clipped to the shard (IndexViews restrict to
  // any dyadic box); the baselines re-run the whole shard.
  std::vector<int> rerun;
  std::vector<DyadicBox> rerun_box;
  for (const Shard& shard : plan.shards) {
    bool met = false;
    DyadicBox hull;
    DyadicBox clipped = DyadicBox::Universal(shard.box.dims());
    for (const DyadicBox& b : touched) {
      if (!IntersectBoxes(b, shard.box, &clipped)) continue;
      hull = met ? DyadicHull(hull, clipped) : clipped;
      met = true;
    }
    if (!met) continue;
    rerun.push_back(shard.id);
    rerun_box.push_back(algo.has_value() ? hull : shard.box);
  }
  out.shards_rerun = rerun.size();

  // Fresh evaluation of the re-run shards, exactly the way a full
  // sharded run evaluates all of them: zero-copy IndexViews for the
  // Tetris family, lazily materialized copies for the baselines.
  TetrisShardContext tctx;
  if (algo.has_value()) {
    std::vector<const Index*> shared_base;
    if (options.indexes.size() == query.atoms().size()) {
      shared_base = options.indexes;
    }
    tctx = MakeTetrisShardContext(query, *algo, depth, options.order,
                                  std::move(shared_base));
  }
  EngineOptions shard_opts;
  shard_opts.order = options.order;
  shard_opts.depth = depth;
  std::vector<EngineResult> fresh(rerun.size());
  ParallelFor(&pool, options.threads, static_cast<int>(rerun.size()),
              [&](int i) {
                const Shard& shard = plan.shards[rerun[i]];
                if (shard.empty) {
                  // Some atom restricted to ∅ under the new data: the
                  // box's output is empty without touching the engine.
                  fresh[i].ok = true;
                  fresh[i].stats.engine = kind;
                  return;
                }
                fresh[i] = algo.has_value()
                               ? RunTetrisViewShard(tctx, rerun_box[i], kind)
                               : RunMaterializedShard(query, plan, rerun[i],
                                                      kind, shard_opts);
              });
  for (const EngineResult& r : fresh) {
    if (!r.ok) return full_run("shard failed (" + r.error + ")");
  }

  // Splice: keep old tuples outside every re-run box (unchanged by
  // construction), replace everything inside with the fresh outputs.
  // Each re-run box lies in its own shard, so the fresh outputs are
  // disjoint from each other and from the kept tuples, and every one of
  // these runs is sorted: a merge, not a re-sort of the union.
  std::vector<std::vector<Tuple>> runs(1);
  std::vector<Tuple>& kept = runs[0];
  for (const Tuple& t : old_tuples) {
    bool in_rerun = false;
    for (const DyadicBox& box : rerun_box) {
      if (box.ContainsPoint(t, depth)) {
        in_rerun = true;
        break;
      }
    }
    if (!in_rerun) kept.push_back(t);
  }
  out.tuples_kept = kept.size();
  EngineResult& res = out.result;
  res.ok = true;
  res.stats.engine = kind;
  for (EngineResult& r : fresh) {
    out.tuples_patched += r.tuples.size();
    AccumulateShardStats(&res.stats, r.stats);
    runs.push_back(std::move(r.tuples));
  }
  res.tuples = MergeSortedRuns(std::move(runs));
  res.stats.output_tuples = res.tuples.size();
  res.stats.shards = plan.shards.size();
  res.stats.threads = static_cast<size_t>(pool.threads());
  res.stats.plan_bytes = plan.PlanningBytes();
  res.stats.memory.index_bytes =
      std::max(res.stats.memory.index_bytes, tctx.base_index_bytes);
  out.note = "patched " + std::to_string(out.shards_rerun) + "/" +
             std::to_string(out.shards_total) + " shards from " +
             std::to_string(touched.size()) + " touched box(es); kept " +
             std::to_string(out.tuples_kept) + " tuples";
  AppendNote(&res.shard_note, out.note);
  return finish();
}

}  // namespace tetris
