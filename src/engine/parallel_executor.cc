#include "engine/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "index/index_view.h"

namespace tetris {

namespace {

// Worker identity, for reentrant Run: a Run issued from a pool task must
// help its own pool instead of blocking a worker slot.
thread_local const WorkStealingPool* tls_pool = nullptr;
thread_local int tls_worker = 0;

}  // namespace

WorkStealingPool::WorkStealingPool(int threads) {
  const int n = std::max(1, std::min(threads, 256));
  queues_.resize(static_cast<size_t>(n));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int WorkStealingPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

WorkStealingPool& WorkStealingPool::Global() {
  static WorkStealingPool pool(HardwareThreads());
  return pool;
}

WorkStealingPool::Task WorkStealingPool::NextTask(int self) {
  if (!queues_[self].empty()) {
    Task task = std::move(queues_[self].back());
    queues_[self].pop_back();
    --unassigned_;
    return task;
  }
  const int n = static_cast<int>(queues_.size());
  for (int off = 1; off < n; ++off) {
    auto& victim = queues_[(self + off) % n];
    if (!victim.empty()) {
      Task task = std::move(victim.front());
      victim.pop_front();
      --unassigned_;
      return task;
    }
  }
  return Task{};
}

void WorkStealingPool::WorkerLoop(int self) {
  tls_pool = this;
  tls_worker = self;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (Task task = NextTask(self); task.fn) {
      lock.unlock();
      task.fn();
      lock.lock();
      if (--task.group->pending == 0) cv_.notify_all();
      continue;
    }
    if (stop_) return;
    cv_.wait(lock, [this] { return stop_ || unassigned_ > 0; });
  }
}

void WorkStealingPool::Run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  Group group;
  const bool nested = tls_pool == this;
  {
    std::lock_guard<std::mutex> lock(mu_);
    group.pending = tasks.size();
    // A nested Run seeds its own worker's deque first (popped from the
    // back before anyone steals); external Runs spread round-robin.
    const size_t base = nested ? static_cast<size_t>(tls_worker) : 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
      queues_[(base + i) % queues_.size()].push_back(
          {std::move(tasks[i]), &group});
    }
    unassigned_ += group.pending;
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  if (nested) {
    // Help: execute queued tasks (any group's — they all finish) until
    // this group drains. Waits only while every remaining task of the
    // group is already running on another worker.
    while (group.pending > 0) {
      if (Task task = NextTask(tls_worker); task.fn) {
        lock.unlock();
        task.fn();
        lock.lock();
        if (--task.group->pending == 0) cv_.notify_all();
      } else {
        cv_.wait(lock, [this, &group] {
          return group.pending == 0 || unassigned_ > 0;
        });
      }
    }
  } else {
    cv_.wait(lock, [&group] { return group.pending == 0; });
  }
}

void ParallelFor(WorkStealingPool* pool, int max_parallel, int n,
                 const std::function<void(int)>& fn) {
  if (n <= 0) return;
  WorkStealingPool& p = pool != nullptr ? *pool : WorkStealingPool::Global();
  int w = max_parallel <= 0 ? p.threads()
                            : std::min(max_parallel, p.threads());
  w = std::min(w, n);
  if (w <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Ticket loop: w pool tasks drain one shared counter, so the group
  // occupies at most w workers of the shared budget while stealing keeps
  // them balanced.
  std::atomic<int> next{0};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(w));
  for (int t = 0; t < w; ++t) {
    tasks.push_back([&next, n, &fn] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  p.Run(std::move(tasks));
}

void ParallelFor(int threads, int n, const std::function<void(int)>& fn) {
  ParallelFor(nullptr, threads, n, fn);
}

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

TetrisShardContext MakeTetrisShardContext(
    const JoinQuery& query, JoinAlgorithm algo, int depth,
    std::vector<int> order, std::vector<const Index*> shared_base) {
  TetrisShardContext ctx;
  ctx.query = &query;
  ctx.algo = algo;
  ctx.depth = depth;
  ctx.order = order.empty() ? DefaultSao(query, algo) : std::move(order);
  if (!shared_base.empty()) {
    ctx.base = std::move(shared_base);
  } else {
    ctx.owned = MakeSaoConsistentIndexes(query, ctx.order, depth);
    ctx.base = IndexPtrs(ctx.owned);
  }
  for (const Index* ix : ctx.base) {
    ctx.base_index_bytes += ix->MemoryBytes();
  }
  return ctx;
}

EngineResult RunTetrisViewShard(const TetrisShardContext& ctx,
                                const DyadicBox& shard_box,
                                EngineKind kind) {
  EngineResult result;
  result.stats.engine = kind;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Atom>& atoms = ctx.query->atoms();
  std::vector<IndexView> views;
  views.reserve(atoms.size());
  for (size_t a = 0; a < atoms.size(); ++a) {
    const Atom& atom = atoms[a];
    DyadicBox abox =
        DyadicBox::Universal(static_cast<int>(atom.var_ids.size()));
    for (size_t c = 0; c < atom.var_ids.size(); ++c) {
      abox[static_cast<int>(c)] = shard_box[atom.var_ids[c]];
    }
    views.emplace_back(ctx.base[a], abox);
  }
  std::vector<const Index*> ptrs;
  ptrs.reserve(views.size());
  for (const IndexView& v : views) ptrs.push_back(&v);
  JoinRunResult run =
      RunTetrisJoin(*ctx.query, ptrs, ctx.depth, ctx.algo, ctx.order);
  result.tuples = std::move(run.tuples);
  CanonicalizeTuples(&result.tuples);
  result.stats.tetris = run.stats;
  result.stats.input_gap_boxes = run.input_gap_boxes;
  result.stats.oracle_probes = run.oracle_probes;
  result.stats.memory.kb_bytes = static_cast<size_t>(run.stats.kb_peak_bytes);
  result.stats.memory.index_bytes = run.index_bytes;  // views: a few words
  result.stats.output_tuples = result.tuples.size();
  result.stats.memory.output_bytes =
      EstimateAtomBytes(result.tuples.size(), ctx.query->num_attrs());
  result.ok = true;
  const auto end = std::chrono::steady_clock::now();
  result.stats.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

EngineResult RunMaterializedShard(const JoinQuery& query,
                                  const ShardPlan& plan, int shard_id,
                                  EngineKind kind,
                                  const EngineOptions& shard_opts) {
  MaterializedShard ms = MaterializeShard(query, plan, shard_id);
  EngineResult r = RunJoin(ms.query, kind, shard_opts);
  // The materialized copy is this shard's resident input structure for
  // the whole run — count it, or the budget check would certify shards
  // whose input copy alone dwarfs the budget. (Unsharded baseline runs
  // scan the caller's relations and rightly report 0 here.)
  r.stats.memory.index_bytes = std::max(
      r.stats.memory.index_bytes, plan.shards[shard_id].payload_bytes);
  return r;
}

ShardCostModel CalibrateShardCostModel(const JoinQuery& query,
                                       EngineKind kind,
                                       const TetrisShardContext* tctx,
                                       const EngineOptions& shard_opts,
                                       int depth,
                                       std::vector<ProbeRun>* probe_runs) {
  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  struct Point {
    size_t payload = 0;
    RunStats stats;
  };
  std::vector<Point> points;
  // Two scales: an 8-way plan (~1/8-scale probe) and a 4-way plan
  // (~1/4-scale probe) — two points of the same curve the real shards
  // lie on, so superlinear growth shows up as a steeper secant.
  for (int scale_shards : {8, 4}) {
    ShardPlanOptions probe_opts;
    probe_opts.shards = scale_shards;
    probe_opts.depth = depth;
    ShardPlan probe = PlanShards(query, probe_opts);
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
    // A probe worth running must be a fraction of the data: when the
    // domain cannot split, or skew concentrates (almost) everything in
    // one subcube, the "probe" would be a hidden near-full run that
    // doubles wall time without teaching the model anything the real
    // run won't — skip this scale.
    if (probe.split_bits == 0 || best * 2 > total_payload) continue;
    // Two clamped plans can degenerate to the same split; a repeated
    // point teaches nothing.
    bool duplicate = false;
    for (const ProbeRun& pr : *probe_runs) {
      if (pr.box == probe.shards[pick].box) duplicate = true;
    }
    if (duplicate) continue;
    EngineResult pr =
        tctx != nullptr
            ? RunTetrisViewShard(*tctx, probe.shards[pick].box, kind)
            : RunMaterializedShard(query, probe, pick, kind, shard_opts);
    if (!pr.ok) continue;
    points.push_back({probe.shards[pick].payload_bytes, pr.stats});
    ProbeRun kept;
    kept.box = probe.shards[pick].box;
    kept.payload_bytes = probe.shards[pick].payload_bytes;
    kept.result = std::move(pr);
    probe_runs->push_back(std::move(kept));
  }
  if (points.size() >= 2) {
    model = FitShardCostModelAffine(kind, points[0].payload, points[0].stats,
                                    points[1].payload, points[1].stats);
  } else if (points.size() == 1) {
    model = FitShardCostModel(kind, points[0].payload, points[0].stats);
  }
  return model;
}

void AppendNote(std::string* note, const std::string& s) {
  if (s.empty()) return;
  if (!note->empty()) *note += "; ";
  *note += s;
}

std::string ProbeReuseNote(size_t probes_reused) {
  if (probes_reused == 0) return "";
  return "reused " + std::to_string(probes_reused) + " probe result" +
         (probes_reused == 1 ? "" : "s") + " as shard output";
}

std::string EstimatorAuditNote(const ShardCostModel& model,
                               size_t predicted_bytes, size_t actual_bytes) {
  return "estimator(" + std::string(EngineFamilyName(model.family)) + ", " +
         model.source + "): predicted max shard peak " +
         std::to_string(predicted_bytes) + "B, actual " +
         std::to_string(actual_bytes) + "B";
}

std::vector<Tuple> MergeSortedRuns(std::vector<std::vector<Tuple>> runs) {
  size_t total = 0;
  for (const std::vector<Tuple>& run : runs) total += run.size();
  std::vector<Tuple> out;
  out.reserve(total);
  // bounds[r] is where run r starts in `out`; the last entry is the end.
  std::vector<size_t> bounds = {0};
  for (std::vector<Tuple>& run : runs) {
    if (run.empty()) continue;
    out.insert(out.end(), std::make_move_iterator(run.begin()),
               std::make_move_iterator(run.end()));
    bounds.push_back(out.size());
  }
  // Pass w merges groups of w runs pairwise, so the group size doubles.
  const size_t k = bounds.size() - 1;
  for (size_t w = 1; w < k; w *= 2) {
    for (size_t r = 0; r + w < k; r += 2 * w) {
      const auto mid = out.begin() + bounds[r + w];
      // Two groups already in order (shards split on a leading
      // attribute) need no merge.
      if (*mid < *(mid - 1)) {
        std::inplace_merge(out.begin() + bounds[r], mid,
                           out.begin() + bounds[std::min(r + 2 * w, k)]);
      }
    }
  }
  return out;
}

EngineResult MergeShardRuns(const JoinQuery& query, EngineKind kind,
                            const ShardPlan& plan,
                            std::vector<EngineResult> shard_results,
                            size_t memory_budget_bytes,
                            size_t shared_index_bytes) {
  EngineResult result;
  result.stats.engine = kind;
  const size_t m = plan.shards.size();
  result.stats.shards = m;
  result.stats.estimated_max_shard_peak_bytes = plan.max_estimated_peak_bytes;
  result.stats.plan_bytes = plan.PlanningBytes();
  size_t over_budget = 0;
  size_t worst_peak = 0;
  size_t worst_shard = 0;
  std::vector<std::vector<Tuple>> runs;
  runs.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    ShardRunInfo info;
    info.shard_id = static_cast<int>(i);
    info.box = plan.shards[i].box.ToString();
    if (plan.shards[i].empty) {
      info.skipped_empty = true;
      result.shard_runs.push_back(std::move(info));
      continue;
    }
    EngineResult& r = shard_results[i];
    if (!r.ok) {
      result.error = "shard " + std::to_string(i) + ": " + r.error;
      result.shard_runs.clear();
      return result;
    }
    AccumulateShardStats(&result.stats, r.stats);
    info.output_tuples = r.tuples.size();
    info.stats = r.stats;
    runs.push_back(std::move(r.tuples));
    if (memory_budget_bytes > 0 &&
        r.stats.memory.PeakBytes() > memory_budget_bytes) {
      ++over_budget;
      if (r.stats.memory.PeakBytes() > worst_peak) {
        worst_peak = r.stats.memory.PeakBytes();
        worst_shard = i;
      }
    }
    result.shard_runs.push_back(std::move(info));
  }
  // The shared base indexes of a zero-copy run stay resident for the
  // whole run (the per-shard views are a few words each): surface them
  // in the run-level counter so the unsharded/sharded numbers compare.
  result.stats.memory.index_bytes =
      std::max(result.stats.memory.index_bytes, shared_index_bytes);
  if (over_budget > 0) {
    result.shard_note =
        std::to_string(over_budget) + " of " + std::to_string(m) +
        " shards exceeded the " + std::to_string(memory_budget_bytes) +
        "B budget at run time (worst: shard " + std::to_string(worst_shard) +
        " peaked at " + std::to_string(worst_peak) + "B)";
  }

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
  result.stats.memory.output_bytes =
      EstimateAtomBytes(result.tuples.size(), query.num_attrs());
  return result;
}

EngineResult RunShardedJoin(const JoinQuery& query, EngineKind kind,
                            const EngineOptions& options) {
  EngineResult result;
  result.stats.engine = kind;
  const auto start = std::chrono::steady_clock::now();
  auto finish = [&start, &result]() -> EngineResult {
    const auto end = std::chrono::steady_clock::now();
    result.stats.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    return std::move(result);
  };

  const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind);
  if (!options.indexes.empty() && !algo.has_value()) {
    result.error =
        "indexes: only the Tetris family combines custom indexes with "
        "sharded execution (views restrict probes to the shard box; the "
        "baselines rescan materialized shard copies)";
    return finish();
  }
  if (!EngineSupports(kind, query)) {
    result.error = std::string(EngineKindName(kind)) +
                   ": engine does not support this query";
    return finish();
  }
  int depth = options.depth > 0 ? options.depth : query.MinDepth();
  if (!options.indexes.empty() && options.depth == 0) {
    depth = options.indexes[0]->depth();
  }
  for (size_t i = 0; i < options.indexes.size(); ++i) {
    if (options.indexes[i]->depth() != depth) {
      result.error = "indexes: index depth disagrees with the engine "
                     "depth (build them at the same depth, or set "
                     "EngineOptions::depth to match)";
      return finish();
    }
    if (options.indexes[i]->arity() !=
        static_cast<int>(query.atoms()[i].var_ids.size())) {
      result.error = "indexes: index arity disagrees with its atom";
      return finish();
    }
  }
  if (depth < query.MinDepth()) {
    result.error = "depth: too small for the data "
                   "(need at least query.MinDepth())";
    return finish();
  }
  if (algo.has_value() && depth > kMaxDepth) {
    result.error = kGridTooDeepError;
    return finish();
  }

  WorkStealingPool& pool =
      options.executor != nullptr ? *options.executor
                                  : WorkStealingPool::Global();
  const int requested =
      options.threads == 0 ? pool.threads() : std::max(1, options.threads);

  // Zero-copy context for the Tetris family: base indexes built once,
  // shared by every shard through IndexViews.
  TetrisShardContext tctx;
  if (algo.has_value()) {
    tctx = MakeTetrisShardContext(query, *algo, depth, options.order,
                                  options.indexes);
  }
  // The shared base indexes stay resident for the whole run no matter
  // how fine the split — a budget below them is unsatisfiable by
  // sharding, and pretending per-shard peaks settle it would be lying.
  // Say so up front.
  std::string base_note;
  if (options.memory_budget_bytes > 0 &&
      tctx.base_index_bytes > options.memory_budget_bytes) {
    base_note =
        "budget " + std::to_string(options.memory_budget_bytes) +
        "B is below the shared base indexes (" +
        std::to_string(tctx.base_index_bytes) +
        "B), which stay resident for the whole run regardless of the "
        "split — the budget can only constrain per-shard peaks on top "
        "of them";
  }

  // Per-shard engine options for the materializing path: plain
  // sequential runs at the plan's depth. The shard queries reuse the
  // original attribute ids, so SAO/GAO hints stay valid.
  EngineOptions shard_opts;
  shard_opts.order = options.order;
  shard_opts.depth = depth;

  // Per-engine-family cost model, calibrated from up to two cheap probe
  // passes when a budget is in play (engine/cost_model.h); probe
  // outputs are kept and reused when the final plan contains the same
  // subcube.
  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  std::vector<ProbeRun> probes;
  if (options.memory_budget_bytes > 0) {
    model = CalibrateShardCostModel(
        query, kind, algo.has_value() ? &tctx : nullptr, shard_opts, depth,
        &probes);
  }

  ShardPlanOptions popt;
  popt.shards = options.shards;
  popt.threads_hint = requested;
  popt.memory_budget_bytes = options.memory_budget_bytes;
  popt.depth = depth;
  popt.cost_model = &model;
  ShardPlan plan = PlanShards(query, popt);
  std::string plan_note = base_note;
  AppendNote(&plan_note, plan.note);

  const size_t m = plan.shards.size();
  std::vector<EngineResult> shard_results(m);
  // Probe reuse: a probe shard with the same subcube as a final-plan
  // shard already IS that shard's result — dyadic splits nest, so same
  // box means same restricted instance.
  std::map<std::string, size_t> probe_by_box;
  for (size_t p = 0; p < probes.size(); ++p) {
    probe_by_box.emplace(probes[p].box.ToString(), p);
  }
  size_t probes_reused = 0;
  std::vector<int> live;  // shard ids actually handed to the engine
  for (size_t i = 0; i < m; ++i) {
    if (plan.shards[i].empty) continue;
    auto it = probe_by_box.find(plan.shards[i].box.ToString());
    if (it != probe_by_box.end()) {
      shard_results[i] = std::move(probes[it->second].result);
      probe_by_box.erase(it);
      ++probes_reused;
      continue;
    }
    live.push_back(static_cast<int>(i));
  }
  auto run_shard = [&](int i) {
    shard_results[i] =
        algo.has_value()
            ? RunTetrisViewShard(tctx, plan.shards[i].box, kind)
            : RunMaterializedShard(query, plan, i, kind, shard_opts);
  };
  const int workers = std::max(
      1, std::min({requested, pool.threads(),
                   static_cast<int>(live.size())}));
  result.stats.threads = static_cast<size_t>(workers);
  if (workers <= 1) {
    for (int i : live) run_shard(i);
  } else {
    ParallelFor(&pool, workers, static_cast<int>(live.size()),
                [&run_shard, &live](int j) { run_shard(live[j]); });
  }

  const size_t saved_threads = result.stats.threads;
  result = MergeShardRuns(query, kind, plan, std::move(shard_results),
                          options.memory_budget_bytes,
                          algo.has_value() ? tctx.base_index_bytes : 0);
  result.stats.threads = saved_threads;
  if (!result.ok) {
    // Keep the planner/budget diagnostics with the failure — an
    // unsatisfiable-budget explanation must not vanish because a shard
    // errored.
    result.shard_runs.clear();
    result.shard_note = std::move(plan_note);
    return finish();
  }
  AppendNote(&plan_note, result.shard_note);
  AppendNote(&plan_note, ProbeReuseNote(probes_reused));
  if (options.memory_budget_bytes > 0) {
    // Post-run estimator verification: the prediction is auditable, not
    // just plausible — the reporter surfaces both numbers.
    AppendNote(&plan_note,
               EstimatorAuditNote(model, plan.max_estimated_peak_bytes,
                                  result.stats.max_shard_peak_bytes));
  }
  result.shard_note = std::move(plan_note);
  return finish();
}

}  // namespace tetris
