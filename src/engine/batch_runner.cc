#include "engine/batch_runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "engine/cost_model.h"
#include "engine/index_cache.h"
#include "engine/parallel_executor.h"
#include "engine/shard_planner.h"
#include "geometry/box_restrict.h"
#include "index/index_view.h"
#include "index/sorted_index.h"

namespace tetris {

namespace {

// The pipeline's plan-sharing signature: depth, attribute count and per
// atom its relation's address and binding, all that planning reads.
// Address identity is right within one call (the caller pins every
// relation), not across calls; the ResultCache keys by relation name.
std::string PlanSignature(const JoinQuery& query, int depth) {
  std::string sig =
      std::to_string(depth) + "|" + std::to_string(query.num_attrs());
  char buf[32];
  for (const Atom& atom : query.atoms()) {
    std::snprintf(buf, sizeof(buf), "|%p:",
                  static_cast<const void*>(atom.rel));
    sig += buf;
    for (int v : atom.var_ids) sig += std::to_string(v) + ",";
  }
  return sig;
}

constexpr const char kDeadlineError[] =
    "deadline exceeded: task abandoned before it started";

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One query on its way through the pipeline.
struct QueryRun {
  const ShardQuery* in = nullptr;
  /// Plain per-shard options: the grid depth, and the order every shard
  /// runs under (the resolved SAO for the Tetris family).
  EngineOptions opts;
  std::vector<const Index*> base;  // Tetris family: one per atom
  size_t base_index_bytes = 0;
  const ShardPlan* plan = nullptr;
  const ShardRowGroups* groups = nullptr;  // empty but for split baselines
  std::vector<EngineResult> shards;  // by shard id
};

// Merges one shard's counters into the run total. Work counters add up;
// the memory fields keep the per-shard *peak* — shards build and release
// their resident structures independently, and the peak is what the
// budget constrains.
void AccumulateShardStats(RunStats* into, const RunStats& s) {
  into->tetris.Accumulate(s.tetris);
  into->input_gap_boxes += s.input_gap_boxes;
  into->oracle_probes += s.oracle_probes;
  into->probes += s.probes;
  into->seeks += s.seeks;
  into->baseline.max_intermediate =
      std::max(into->baseline.max_intermediate, s.baseline.max_intermediate);
  into->baseline.total_intermediate += s.baseline.total_intermediate;
  into->baseline.max_intermediate_bytes =
      std::max(into->baseline.max_intermediate_bytes,
               s.baseline.max_intermediate_bytes);
  into->memory.kb_bytes = std::max(into->memory.kb_bytes, s.memory.kb_bytes);
  into->memory.index_bytes =
      std::max(into->memory.index_bytes, s.memory.index_bytes);
  into->memory.intermediate_bytes =
      std::max(into->memory.intermediate_bytes, s.memory.intermediate_bytes);
  into->max_shard_peak_bytes =
      std::max(into->max_shard_peak_bytes, s.memory.PeakBytes());
}

// One Tetris-family shard: per-atom IndexViews confine every probe and
// gap scan to `box` — no tuple is copied, no index rebuilt. `box` may be
// any dyadic box (a patch passes a touched-box hull inside the shard),
// and the run returns exactly the join's tuples inside it. The
// universal box (a plain run) probes the base indexes themselves.
EngineResult RunViewShard(const QueryRun& q, JoinAlgorithm algo,
                          const DyadicBox& box, EngineKind kind) {
  EngineResult result;
  result.stats.engine = kind;
  const auto start = std::chrono::steady_clock::now();
  const JoinQuery& query = *q.in->query;
  const std::vector<Atom>& atoms = query.atoms();
  const bool universal = box.SupportMask() == 0;
  std::vector<IndexView> views;
  std::vector<const Index*> ptrs;
  if (!universal) {
    views.reserve(atoms.size());
    for (size_t a = 0; a < atoms.size(); ++a) {
      const Atom& atom = atoms[a];
      DyadicBox abox =
          DyadicBox::Universal(static_cast<int>(atom.var_ids.size()));
      for (size_t c = 0; c < atom.var_ids.size(); ++c) {
        abox[static_cast<int>(c)] = box[atom.var_ids[c]];
      }
      views.emplace_back(q.base[a], abox);
      ptrs.push_back(&views.back());
    }
  }
  JoinRunResult run = RunTetrisJoin(query, universal ? q.base : ptrs,
                                    q.opts.depth, algo, q.opts.order);
  result.tuples = std::move(run.tuples);
  CanonicalizeTuples(&result.tuples);
  result.stats.tetris = run.stats;
  result.stats.input_gap_boxes = run.input_gap_boxes;
  result.stats.oracle_probes = run.oracle_probes;
  result.stats.memory.kb_bytes = static_cast<size_t>(run.stats.kb_peak_bytes);
  result.stats.memory.index_bytes = run.index_bytes;  // views: a few words
  result.stats.output_tuples = result.tuples.size();
  result.stats.memory.output_bytes = TupleBytes(result.tuples);
  result.ok = true;
  result.stats.wall_ms = MsSince(start);
  return result;
}

// Shard `shard` of `plan`, over `box` (the shard's, or a patch's hull
// inside it): zero-copy views for the Tetris family. A baseline runs a
// one-shard plan on the original relations, and any other shard on a
// restricted copy that exists only inside this call — materialized when
// the worker picks the shard up (from the run's row groups; a probe plan
// has none), dropped when it finishes — so at most `threads` copies are
// resident at once.
EngineResult RunShard(const QueryRun& q, EngineKind kind,
                      const ShardPlan& plan, int shard,
                      const DyadicBox& box) {
  if (const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind)) {
    return RunViewShard(q, *algo, box, kind);
  }
  if (plan.split_bits == 0) {
    return RunBaselineJoin(*q.in->query, kind, q.opts.order);
  }
  MaterializedShard ms = MaterializeShard(*q.in->query, plan, shard,
                                          &plan == q.plan ? q.groups : nullptr);
  EngineResult r = RunBaselineJoin(ms.query, kind, q.opts.order);
  // The copy is this shard's resident input for the whole run — count
  // it, or the budget check would certify shards whose input copy alone
  // dwarfs the budget.
  r.stats.memory.index_bytes = std::max(r.stats.memory.index_bytes,
                                        plan.shards[shard].payload_bytes);
  return r;
}

// One probe-shard run kept for reuse: probe shards are real shards of
// the output space, so when a final plan has the same subcube the
// probe's result IS that shard's result.
struct ProbeRun {
  DyadicBox box;
  EngineResult result;
};

// Calibrates the per-engine-family cost model from up to two probe
// passes — a ~1/8-scale and a ~1/4-scale shard, each run exactly the way
// the real shards will run — and appends every successful probe to
// `probes`. A probe is skipped when the domain cannot split or skew
// concentrates (almost) everything in one subcube: a hidden near-full
// run would double wall time without teaching the model anything. With
// one usable probe the fit degrades to one-point, with none to the
// payload proxy.
ShardCostModel Calibrate(const QueryRun& q, EngineKind kind,
                         std::vector<ProbeRun>* probes) {
  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  struct Point {
    size_t payload = 0;
    RunStats stats;
  };
  std::vector<Point> points;
  // Two points of the curve the real shards lie on, so superlinear
  // growth shows up as a steeper secant.
  for (int scale_shards : {8, 4}) {
    ShardPlanOptions probe_opts;
    probe_opts.shards = scale_shards;
    probe_opts.depth = q.opts.depth;
    ShardPlan probe = PlanShards(*q.in->query, probe_opts);
    int pick = -1;
    size_t best = 0;
    size_t total_payload = 0;
    for (const Shard& s : probe.shards) {
      total_payload += s.payload_bytes;
      if (!s.empty && s.payload_bytes > best) {
        best = s.payload_bytes;
        pick = s.id;
      }
    }
    if (probe.split_bits == 0 || best * 2 > total_payload) continue;
    // Two clamped plans can degenerate to the same split; a repeated
    // point teaches nothing.
    const DyadicBox& box = probe.shards[pick].box;
    if (std::any_of(probes->begin(), probes->end(),
                    [&box](const ProbeRun& pr) { return pr.box == box; })) {
      continue;
    }
    EngineResult pr = RunShard(q, kind, probe, pick, box);
    if (!pr.ok) continue;
    points.push_back({probe.shards[pick].payload_bytes, pr.stats});
    probes->push_back({box, std::move(pr)});
  }
  if (points.size() >= 2) {
    model = FitShardCostModelAffine(kind, points[0].payload, points[0].stats,
                                    points[1].payload, points[1].stats);
  } else if (points.size() == 1) {
    model = FitShardCostModel(kind, points[0].payload, points[0].stats);
  }
  return model;
}

// Deterministic by-shard-id merge of one query's shard results into one
// EngineResult: merges the shards' canonical tuple runs, accumulates
// RunStats, fills the estimator fields from `plan` and, with
// `report_shards`, shard_runs, and surfaces `shared_index_bytes` (the
// always-resident base indexes of a zero-copy run) in the merged memory
// counters. A failed shard fails the merge.
EngineResult MergeShardRuns(EngineKind kind, const ShardPlan& plan,
                            std::vector<EngineResult> shard_results,
                            size_t shared_index_bytes, bool report_shards) {
  EngineResult result;
  result.stats.engine = kind;
  const size_t m = plan.shards.size();
  result.stats.shards = m;
  result.stats.estimated_max_shard_peak_bytes = plan.max_estimated_peak_bytes;
  result.stats.plan_bytes = plan.PlanningBytes();
  std::vector<std::vector<Tuple>> runs;
  runs.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    ShardRunInfo info;
    info.shard_id = static_cast<int>(i);
    info.skipped_empty = plan.shards[i].empty;
    EngineResult& r = shard_results[i];
    if (!info.skipped_empty) {
      if (!r.ok) {
        result.error = "shard " + std::to_string(i) + ": " + r.error;
        result.shard_runs.clear();
        return result;
      }
      AccumulateShardStats(&result.stats, r.stats);
      info.output_tuples = r.tuples.size();
      info.stats = r.stats;
      runs.push_back(std::move(r.tuples));
    }
    if (report_shards) {
      info.box = plan.shards[i].box.ToString();
      result.shard_runs.push_back(std::move(info));
    }
  }
  // The shared base indexes of a zero-copy run stay resident for the
  // whole run (the per-shard views are a few words each): surface them
  // in the run-level counter so the unsharded/sharded numbers compare.
  result.stats.memory.index_bytes =
      std::max(result.stats.memory.index_bytes, shared_index_bytes);

  // Every shard run is canonical and shards are disjoint subcubes, so
  // merging the runs gives the canonical facade order, duplicate-free.
  result.tuples = MergeSortedRuns(std::move(runs));
  assert(std::adjacent_find(result.tuples.begin(), result.tuples.end(),
                            std::greater_equal<Tuple>()) ==
         result.tuples.end());
  result.ok = true;
  result.stats.output_tuples = result.tuples.size();
  result.stats.memory.intermediate_bytes =
      std::max(result.stats.memory.intermediate_bytes,
               result.stats.baseline.max_intermediate_bytes);
  result.stats.memory.output_bytes = TupleBytes(result.tuples);
  return result;
}

}  // namespace

ShardPipelineResult RunShardPipeline(const std::vector<ShardQuery>& queries,
                                     EngineKind kind,
                                     const BatchOptions& options) {
  ShardPipelineResult out;
  BatchResult& batch = out.batch;
  BatchStats& stats = batch.stats;
  batch.ok = true;
  batch.results.resize(queries.size());
  out.rerun_boxes.resize(queries.size());
  const int depth = options.depth;
  const size_t budget = options.memory_budget_bytes;
  const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind);
  // Read only for threads = 0 or when more than one worker may run, so
  // a sequential run never creates the global executor.
  auto pool_width = [&options] {
    return (options.executor != nullptr ? *options.executor
                                        : WorkStealingPool::Global())
        .threads();
  };
  const int requested = options.threads == 0 ? pool_width() : options.threads;

  // (a) Base indexes through the (relation, layout) cache: one build per
  // distinct layout the run touches, however many (query, atom) slots
  // want it, and none when the caller's long-lived cache is warm. Only
  // the Tetris family probes indexes; the baselines scan relations.
  IndexCache local_cache;
  IndexCache& cache =
      options.index_cache != nullptr ? *options.index_cache : local_cache;
  std::vector<std::shared_ptr<const SortedIndex>> pinned;  // keep alive
  std::unordered_set<const SortedIndex*> counted;
  std::vector<QueryRun> runs(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryRun& run = runs[q];
    const JoinQuery& query = *queries[q].query;
    run.in = &queries[q];
    run.opts.depth = depth;
    run.opts.order = queries[q].order;
    if (!algo.has_value()) continue;
    if (run.opts.order.empty()) run.opts.order = DefaultSao(query, *algo);
    run.base = queries[q].indexes;
    if (run.base.empty()) {
      for (const Atom& atom : query.atoms()) {
        bool built = false;
        std::shared_ptr<const SortedIndex> ix = cache.Get(
            atom.rel, LayoutFor(atom, run.opts.order, depth), &built);
        ++(built ? stats.indexes_built : stats.index_cache_hits);
        if (counted.insert(ix.get()).second) {
          stats.index_bytes += ix->MemoryBytes();
        }
        run.base.push_back(ix.get());
        pinned.push_back(std::move(ix));
      }
    }
    for (const Index* ix : run.base) {
      run.base_index_bytes += ix->MemoryBytes();
    }
  }

  // (b) One calibration for the whole run, on the first query; the fit
  // is shared by every plan and the probe outputs become that query's
  // shard results.
  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  std::vector<ProbeRun> probes;
  if (budget > 0 && !runs.empty()) {
    model = Calibrate(runs[0], kind, &probes);
  }

  // (c) One ShardPlan per distinct output-space signature. Order hints
  // don't enter the signature: they steer traversal, not the output
  // space. Auto mode sizes each plan so the whole run has at least one
  // task per worker; with many queries, query-level parallelism already
  // covers the machine and plans stay single-shard.
  ShardPlanOptions popt;
  popt.shards = options.shards;
  popt.threads_hint = static_cast<int>(
      (static_cast<size_t>(requested) + runs.size() - 1) /
      std::max<size_t>(1, runs.size()));
  popt.memory_budget_bytes = budget;
  popt.depth = depth;
  popt.cost_model = &model;
  // A baseline shard runs on a copy of its rows: a split plan's rows,
  // grouped by shard once, let the copies read each row once.
  std::map<std::string, std::pair<ShardPlan, ShardRowGroups>> plans;
  for (QueryRun& run : runs) {
    const JoinQuery& query = *run.in->query;
    // A lone query shares its plan with no one: skip its signature.
    auto [it, fresh] = plans.try_emplace(
        runs.size() == 1 ? std::string() : PlanSignature(query, depth));
    auto& [plan, groups] = it->second;
    if (fresh) {
      plan = PlanShards(query, popt);
      if (!algo.has_value() && plan.split_bits > 0) {
        groups = GroupShardRows(query, plan);
      }
      stats.plan_bytes += plan.PlanningBytes() + groups.bytes;
    }
    run.plan = &plan;
    run.groups = &groups;
  }
  stats.plans = plans.size();

  // (d) The task set: every non-empty (query, shard) pair a filter keeps
  // is one executor task. Probe results pre-fill the first query's
  // shards run over the same box.
  struct Task {
    size_t q = 0;
    int shard = 0;
    DyadicBox box;
  };
  std::vector<Task> tasks;
  std::map<std::string, EngineResult*> probe_by_box;
  for (ProbeRun& p : probes) {
    probe_by_box.emplace(p.box.ToString(), &p.result);
  }
  for (size_t q = 0; q < runs.size(); ++q) {
    QueryRun& run = runs[q];
    run.shards.resize(run.plan->shards.size());
    for (const Shard& shard : run.plan->shards) {
      EngineResult& slot = run.shards[static_cast<size_t>(shard.id)];
      DyadicBox box = shard.box;
      if (const std::vector<DyadicBox>* touched = run.in->touched) {
        // Only the touched boxes can change: a shard meeting none of
        // them keeps its old output and counts as an empty run. Inside
        // a met shard the Tetris family re-runs the hull of what it
        // meets (views restrict to any dyadic box); a baseline re-runs
        // the whole shard.
        bool met = false;
        DyadicBox clipped = DyadicBox::Universal(shard.box.dims());
        for (const DyadicBox& b : *touched) {
          if (!IntersectBoxes(b, shard.box, &clipped)) continue;
          box = met ? DyadicHull(box, clipped) : clipped;
          met = true;
        }
        if (!met) {
          slot.ok = true;
          slot.stats.engine = kind;
          continue;
        }
        if (!algo.has_value()) box = shard.box;
        out.rerun_boxes[q].push_back(box);
      }
      if (shard.empty) continue;
      auto it = q == 0 && !probe_by_box.empty()
                    ? probe_by_box.find(box.ToString())
                    : probe_by_box.end();
      if (it != probe_by_box.end()) {
        slot = std::move(*it->second);
        probe_by_box.erase(it);
        continue;
      }
      tasks.push_back({q, shard.id, box});
    }
  }
  stats.tasks = tasks.size();

  int workers = std::min(requested, static_cast<int>(tasks.size()));
  workers = workers > 1 ? std::min(workers, pool_width()) : 1;
  stats.threads = static_cast<size_t>(workers);
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point{};
  const auto exec_start = std::chrono::steady_clock::now();
  auto run_task = [&](int t) {
    const Task& task = tasks[static_cast<size_t>(t)];
    const QueryRun& run = runs[task.q];
    EngineResult& slot =
        runs[task.q].shards[static_cast<size_t>(task.shard)];
    // Cooperative deadline, checked at task granularity: an unstarted
    // task is abandoned and fails its query; a running task completes.
    if (has_deadline &&
        std::chrono::steady_clock::now() >= options.deadline) {
      slot.stats.engine = kind;
      slot.error = kDeadlineError;
      return;
    }
    slot = RunShard(run, kind, *run.plan, task.shard, task.box);
  };
  ParallelFor(options.executor, workers, static_cast<int>(tasks.size()),
              run_task);
  const double exec_ms = MsSince(exec_start);

  // Wall-time attribution. Shard tasks of different queries ran
  // concurrently, so summing a query's shard walls could let one query's
  // "time" exceed the whole run. Instead the summed task time is the
  // run's occupancy (cpu_ms), and each query is attributed the execution
  // wall split by its share of it: attributed times compare, and their
  // sum never exceeds the wall.
  std::vector<double> task_ms(runs.size(), 0.0);
  std::vector<size_t> abandoned(runs.size(), 0);
  for (size_t q = 0; q < runs.size(); ++q) {
    for (const EngineResult& r : runs[q].shards) {
      if (!r.ok && r.error == kDeadlineError) {
        ++abandoned[q];
      } else {
        task_ms[q] += r.stats.wall_ms;
      }
    }
    stats.cpu_ms += task_ms[q];
  }

  // (e) Deterministic per-query merge, in input order.
  for (size_t q = 0; q < runs.size(); ++q) {
    QueryRun& run = runs[q];
    EngineResult& merged = batch.results[q];
    if (abandoned[q] > 0) {
      merged.stats.engine = kind;
      merged.error = "deadline exceeded: " + std::to_string(abandoned[q]) +
                     " of " + std::to_string(run.shards.size()) +
                     " shard tasks abandoned";
      continue;
    }
    // A patch's result lists no shards: most of them did not re-run.
    merged = MergeShardRuns(kind, *run.plan, std::move(run.shards),
                            run.base_index_bytes,
                            /*report_shards=*/run.in->touched == nullptr);
    merged.stats.plan_bytes += run.groups->bytes;
    merged.stats.threads = static_cast<size_t>(workers);
    merged.stats.wall_ms =
        stats.cpu_ms > 0.0
            ? exec_ms * (task_ms[q] / stats.cpu_ms)
            : exec_ms / static_cast<double>(runs.size());
    stats.sum_query_ms += merged.stats.wall_ms;
  }
  return out;
}

BatchResult RunBatch(const std::vector<const Relation*>& relations,
                     const std::vector<JoinQuery>& queries, EngineKind kind,
                     const BatchOptions& options) {
  BatchResult batch;
  const auto start = std::chrono::steady_clock::now();
  auto finish = [&start, &batch]() -> BatchResult {
    batch.stats.wall_ms = MsSince(start);
    return std::move(batch);
  };

  batch.results.resize(queries.size());
  batch.stats.queries = queries.size();
  for (EngineResult& r : batch.results) r.stats.engine = kind;
  batch.error = ValidateParallelism(options.shards, options.threads);
  if (!batch.error.empty()) return finish();
  if (!options.orders.empty() && options.orders.size() != queries.size()) {
    batch.error = "orders: want one entry per query (or none)";
    return finish();
  }
  if (queries.empty()) {
    batch.ok = true;
    return finish();
  }

  // The relation universe: every atom must reference a declared pool
  // relation (that identity is what makes index/plan sharing sound). An
  // empty pool infers the universe from the queries themselves.
  std::unordered_set<const Relation*> pool(relations.begin(),
                                           relations.end());
  std::unordered_set<const Relation*> distinct;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const Atom& atom : queries[q].atoms()) {
      if (!relations.empty() && pool.count(atom.rel) == 0) {
        batch.error = "query " + std::to_string(q) + ": atom relation '" +
                      atom.rel->name() +
                      "' is not in the batch's relation pool";
        return finish();
      }
      distinct.insert(atom.rel);
    }
  }
  const size_t relation_count = distinct.size();

  // One grid depth for the whole batch, so one index per relation can
  // serve every query.
  int depth = options.depth;
  for (const JoinQuery& q : queries) {
    if (options.depth > 0 && q.MinDepth() > options.depth) {
      batch.error = "depth: too small for the batch "
                    "(need at least every query's MinDepth())";
      return finish();
    }
    depth = std::max(depth, q.MinDepth());
  }
  if (TetrisAlgorithmOf(kind).has_value() && depth > kMaxDepth) {
    batch.error = kGridTooDeepError;
    return finish();
  }

  // Per-query checks through the validator every entry point shares: a
  // query it rejects fails alone, and the rest of the batch still runs.
  std::vector<ShardQuery> valid;
  std::vector<size_t> slot;
  for (size_t q = 0; q < queries.size(); ++q) {
    EngineOptions opts;
    opts.depth = depth;
    opts.shards = options.shards;
    opts.threads = options.threads;
    if (!options.orders.empty()) opts.order = options.orders[q];
    batch.results[q].error =
        ValidateEngineOptions(queries[q], kind, opts, /*plans_shards=*/true);
    if (!batch.results[q].error.empty()) continue;
    valid.push_back({&queries[q], std::move(opts.order), {}, nullptr});
    slot.push_back(q);
  }
  batch.ok = true;
  if (valid.empty()) return finish();  // every result carries its reason

  BatchOptions resolved = options;
  resolved.depth = depth;
  ShardPipelineResult run = RunShardPipeline(valid, kind, resolved);
  for (size_t i = 0; i < valid.size(); ++i) {
    batch.results[slot[i]] = std::move(run.batch.results[i]);
  }
  batch.stats = run.batch.stats;
  batch.stats.queries = queries.size();
  batch.stats.relations = relation_count;
  return finish();
}

}  // namespace tetris
