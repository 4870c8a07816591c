#include "engine/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/cost_model.h"
#include "engine/index_cache.h"
#include "engine/parallel_executor.h"
#include "engine/shard_planner.h"
#include "index/sorted_index.h"

namespace tetris {

std::string OutputSpaceSignature(
    const JoinQuery& query, int depth,
    const std::function<std::string(const Relation&)>& stamp) {
  std::string sig = std::to_string(depth) + "|" +
                    std::to_string(query.num_attrs());
  for (const Atom& atom : query.atoms()) {
    sig += "|" + stamp(*atom.rel) + ":";
    for (int v : atom.var_ids) sig += std::to_string(v) + ",";
  }
  return sig;
}

namespace {

// RunBatch's plan-sharing signature: OutputSpaceSignature with atoms
// stamped by Relation address. Address identity is exactly right within
// one call (the pool pins every relation) and deliberately NOT durable
// across calls — the server's ResultCache stamps by name@epoch instead.
std::string PlanSignature(const JoinQuery& query, int depth) {
  return OutputSpaceSignature(query, depth, [](const Relation& rel) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%p", static_cast<const void*>(&rel));
    return std::string(buf);
  });
}

constexpr const char kDeadlineError[] =
    "deadline exceeded: task abandoned before it started";

}  // namespace

BatchResult RunBatch(const std::vector<const Relation*>& relations,
                     const std::vector<JoinQuery>& queries, EngineKind kind,
                     const BatchOptions& options) {
  BatchResult batch;
  const auto start = std::chrono::steady_clock::now();
  auto finish = [&start, &batch]() -> BatchResult {
    const auto end = std::chrono::steady_clock::now();
    batch.stats.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    return std::move(batch);
  };
  auto append_note = [&batch](const std::string& s) {
    AppendNote(&batch.note, s);
  };

  batch.results.resize(queries.size());
  batch.stats.queries = queries.size();
  for (EngineResult& r : batch.results) r.stats.engine = kind;
  if (options.shards < kAutoShards) {
    batch.error = "shards: want -1 (auto), 0/1 (off), or >= 2";
    return finish();
  }
  if (options.threads < 0) {
    batch.error = "threads: want 0 (the executor's full width) or >= 1";
    return finish();
  }
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
  std::vector<const Relation*> distinct;  // first-appearance order
  std::unordered_set<const Relation*> seen;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const Atom& atom : queries[q].atoms()) {
      if (!relations.empty() && pool.count(atom.rel) == 0) {
        batch.error = "query " + std::to_string(q) + ": atom relation '" +
                      atom.rel->name() +
                      "' is not in the batch's relation pool";
        return finish();
      }
      if (seen.insert(atom.rel).second) distinct.push_back(atom.rel);
    }
  }
  batch.stats.relations = distinct.size();

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
  const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind);
  if (algo.has_value() && depth > kMaxDepth) {
    batch.error = kGridTooDeepError;
    return finish();
  }

  WorkStealingPool& pool_exec =
      options.executor != nullptr ? *options.executor
                                  : WorkStealingPool::Global();
  const int requested = options.threads == 0
                            ? pool_exec.threads()
                            : std::max(1, options.threads);

  // Per-query support + order-hint validation, with RunJoin's error
  // wording so a bad hint fails the same way batched or not. A bad hint
  // fails that query only; the rest of the batch still runs.
  std::vector<bool> supported(queries.size(), false);
  std::vector<EngineOptions> query_opts(queries.size());
  size_t supported_count = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!EngineSupports(kind, queries[q])) {
      batch.results[q].error = std::string(EngineKindName(kind)) +
                               ": engine does not support this query";
      continue;
    }
    query_opts[q].depth = depth;
    if (!options.orders.empty() && !options.orders[q].empty()) {
      if (algo.has_value() && ChoosesOwnSao(*algo)) {
        batch.results[q].error =
            "order: Balance-lifted variants choose their own SAO";
        continue;
      }
      if (!IsPermutation(options.orders[q], queries[q].num_attrs())) {
        batch.results[q].error =
            "order: not a permutation of the query attribute ids";
        continue;
      }
      query_opts[q].order = options.orders[q];
    }
    supported[q] = true;
    ++supported_count;
  }
  if (supported_count == 0) {
    batch.ok = true;  // every per-query result carries its reason
    return finish();
  }

  // (a) Shared base indexes through the (relation, layout) cache: one
  // build per distinct layout a batch touches, no matter how many
  // (query, atom) slots want it — and zero builds when the caller's
  // long-lived cache (BatchOptions::index_cache) is already warm. Only
  // the Tetris family probes indexes; the baselines scan relations.
  IndexCache local_cache;
  IndexCache& cache =
      options.index_cache != nullptr ? *options.index_cache : local_cache;
  std::vector<std::shared_ptr<const SortedIndex>> pinned;  // keep alive
  std::unordered_set<const SortedIndex*> counted;
  std::vector<TetrisShardContext> contexts(queries.size());
  if (algo.has_value()) {
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!supported[q]) continue;
      std::vector<int> sao = query_opts[q].order.empty()
                                 ? DefaultSao(queries[q], *algo)
                                 : query_opts[q].order;
      std::vector<const Index*> base;
      base.reserve(queries[q].atoms().size());
      for (const Atom& atom : queries[q].atoms()) {
        bool built = false;
        std::shared_ptr<const SortedIndex> ix =
            cache.Get(atom.rel, LayoutFor(atom, sao, depth), &built);
        if (built) ++batch.stats.indexes_built;
        else ++batch.stats.index_cache_hits;
        if (counted.insert(ix.get()).second) {
          batch.stats.index_bytes += ix->MemoryBytes();
        }
        base.push_back(ix.get());
        pinned.push_back(std::move(ix));
      }
      contexts[q] = MakeTetrisShardContext(queries[q], *algo, depth,
                                           std::move(sao), std::move(base));
    }
  }

  // (d) One calibration for the whole batch: probe on the first
  // supported query, share the fitted model with every plan, and keep
  // the probe outputs for reuse as that query's shard results.
  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  std::vector<ProbeRun> probes;
  size_t calib_query = queries.size();
  if (options.memory_budget_bytes > 0) {
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!supported[q]) continue;
      calib_query = q;
      model = CalibrateShardCostModel(
          queries[q], kind, algo.has_value() ? &contexts[q] : nullptr,
          query_opts[q], depth, &probes);
      break;
    }
    append_note("cost model calibrated once for the batch (" +
                std::string(EngineFamilyName(model.family)) + ", " +
                model.source + ")");
  }

  // (b) One ShardPlan per distinct output-space signature. The plan's
  // row buckets are the expensive part — queries sharing a signature
  // share them instead of re-bucketing every relation. (Order hints
  // don't enter the signature: they steer traversal, not the output
  // space.)
  ShardPlanOptions popt;
  // EngineOptions::shards semantics: 0/1 plan a single shard per
  // signature, kAutoShards (the BatchOptions default) lets the planner
  // choose, >= 2 is explicit.
  popt.shards = options.shards;
  // Auto mode sizes each plan so the whole batch has at least one task
  // per worker; with many queries, query-level parallelism already
  // covers the machine and plans stay single-shard.
  popt.threads_hint = std::max(
      1, static_cast<int>((static_cast<size_t>(requested) +
                           supported_count - 1) /
                          supported_count));
  popt.memory_budget_bytes = options.memory_budget_bytes;
  popt.depth = depth;
  popt.cost_model = &model;
  std::vector<std::unique_ptr<ShardPlan>> plans;
  std::map<std::string, size_t> plan_of_signature;
  std::vector<size_t> query_plan(queries.size(), 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!supported[q]) continue;
    const std::string sig = PlanSignature(queries[q], depth);
    auto it = plan_of_signature.find(sig);
    if (it == plan_of_signature.end()) {
      plans.push_back(
          std::make_unique<ShardPlan>(PlanShards(queries[q], popt)));
      batch.stats.plan_bytes += plans.back()->PlanningBytes();
      it = plan_of_signature.emplace(sig, plans.size() - 1).first;
    }
    query_plan[q] = it->second;
  }
  batch.stats.plans = plans.size();

  // (c) The cross-product task set: every non-empty (query, shard) pair
  // becomes one executor task — no per-query barrier anywhere. Probe
  // results pre-fill the calibration query's matching shards.
  struct TaskRef {
    size_t q = 0;
    int shard = 0;
  };
  std::vector<TaskRef> tasks;
  std::vector<std::vector<EngineResult>> shard_results(queries.size());
  std::map<std::string, size_t> probe_by_box;
  for (size_t p = 0; p < probes.size(); ++p) {
    probe_by_box.emplace(probes[p].box.ToString(), p);
  }
  size_t probes_reused = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!supported[q]) continue;
    const ShardPlan& plan = *plans[query_plan[q]];
    shard_results[q].resize(plan.shards.size());
    for (const Shard& shard : plan.shards) {
      if (shard.empty) continue;
      if (q == calib_query) {
        auto it = probe_by_box.find(shard.box.ToString());
        if (it != probe_by_box.end()) {
          shard_results[q][static_cast<size_t>(shard.id)] =
              std::move(probes[it->second].result);
          probe_by_box.erase(it);
          ++probes_reused;
          continue;
        }
      }
      tasks.push_back({q, shard.id});
    }
  }
  batch.stats.tasks = tasks.size();
  append_note(ProbeReuseNote(probes_reused));

  const int workers = std::max(
      1, std::min({requested, pool_exec.threads(),
                   static_cast<int>(tasks.size())}));
  batch.stats.threads = static_cast<size_t>(workers);
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point{};
  auto run_task = [&](int t) {
    const TaskRef& task = tasks[static_cast<size_t>(t)];
    const ShardPlan& plan = *plans[query_plan[task.q]];
    EngineResult& slot =
        shard_results[task.q][static_cast<size_t>(task.shard)];
    // Cooperative deadline, checked at task granularity: an unstarted
    // task is abandoned and fails its query; a running task completes.
    if (has_deadline &&
        std::chrono::steady_clock::now() >= options.deadline) {
      slot.stats.engine = kind;
      slot.error = kDeadlineError;
      return;
    }
    if (algo.has_value()) {
      slot = RunTetrisViewShard(contexts[task.q],
                                plan.shards[task.shard].box, kind);
    } else if (plan.split_bits == 0) {
      // A single-shard plan covers the whole output space: scan the
      // original relations directly instead of materializing a full
      // restricted copy that would equal them.
      slot = RunJoin(queries[task.q], kind, query_opts[task.q]);
    } else {
      slot = RunMaterializedShard(queries[task.q], plan, task.shard, kind,
                                  query_opts[task.q]);
    }
  };
  const auto exec_start = std::chrono::steady_clock::now();
  if (workers <= 1) {
    for (size_t t = 0; t < tasks.size(); ++t) {
      run_task(static_cast<int>(t));
    }
  } else {
    ParallelFor(&pool_exec, workers, static_cast<int>(tasks.size()),
                run_task);
  }
  const auto exec_end = std::chrono::steady_clock::now();
  const double exec_ms =
      std::chrono::duration<double, std::milli>(exec_end - exec_start)
          .count();

  // Wall-time attribution. The shard tasks of different queries ran
  // concurrently, so summing a query's shard walls would let one
  // query's "time" exceed the whole batch wall (the pre-fix bug this
  // replaces). Instead: the raw summed task time is the batch's
  // occupancy (stats.cpu_ms), and each query is attributed the
  // execution wall *split by its share of that occupancy* — attributed
  // times are comparable, and their sum can never exceed the batch
  // wall.
  std::vector<double> task_ms(queries.size(), 0.0);
  std::vector<size_t> abandoned(queries.size(), 0);
  double total_task_ms = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!supported[q]) continue;
    for (const EngineResult& r : shard_results[q]) {
      if (!r.ok && r.error == kDeadlineError) {
        ++abandoned[q];
        continue;
      }
      task_ms[q] += r.stats.wall_ms;
    }
    total_task_ms += task_ms[q];
  }
  batch.stats.cpu_ms = total_task_ms;

  // Deterministic per-query merge, in input order.
  size_t deadline_failures = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!supported[q]) continue;
    if (abandoned[q] > 0) {
      EngineResult failed;
      failed.stats.engine = kind;
      failed.error = "deadline exceeded: " + std::to_string(abandoned[q]) +
                     " of " + std::to_string(shard_results[q].size()) +
                     " shard tasks abandoned";
      batch.results[q] = std::move(failed);
      ++deadline_failures;
      continue;
    }
    const ShardPlan& plan = *plans[query_plan[q]];
    const double attributed_ms =
        total_task_ms > 0.0
            ? exec_ms * (task_ms[q] / total_task_ms)
            : exec_ms / static_cast<double>(supported_count);
    EngineResult merged = MergeShardRuns(
        queries[q], kind, plan, std::move(shard_results[q]),
        options.memory_budget_bytes,
        algo.has_value() ? contexts[q].base_index_bytes : 0);
    merged.stats.threads = static_cast<size_t>(workers);
    merged.stats.wall_ms = attributed_ms;
    std::string query_note = plan.note;
    AppendNote(&query_note, merged.shard_note);
    if (merged.ok && options.memory_budget_bytes > 0) {
      AppendNote(&query_note,
                 EstimatorAuditNote(model, plan.max_estimated_peak_bytes,
                                    merged.stats.max_shard_peak_bytes));
    }
    merged.shard_note = std::move(query_note);
    batch.stats.sum_query_ms += attributed_ms;
    batch.results[q] = std::move(merged);
  }
  std::string serve_note =
      std::to_string(batch.stats.plans) + " plan" +
      (batch.stats.plans == 1 ? "" : "s") + " and " +
      std::to_string(batch.stats.indexes_built) +
      " base index builds served " + std::to_string(supported_count) +
      (supported_count == 1 ? " query" : " queries");
  if (batch.stats.index_cache_hits > 0) {
    serve_note += " (" + std::to_string(batch.stats.index_cache_hits) +
                  " index cache hits)";
  }
  append_note(serve_note);
  if (deadline_failures > 0) {
    append_note(std::to_string(deadline_failures) +
                (deadline_failures == 1 ? " query" : " queries") +
                " failed on the deadline");
  }
  batch.ok = true;
  return finish();
}

}  // namespace tetris
