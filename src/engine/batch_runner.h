// The shard pipeline, and cross-query batching on top of it.
//
// A sharded, batched, patched or served run is one computation: cut the
// output space into dyadic boxes with the paper's root-level
// Split-First-Thick-Dimension step (engine/shard_planner.h), run the
// engine once per box, merge. A plain Tetris run is the same computation
// with one box, the universal one Tetris starts from. RunShardPipeline
// is that computation, and RunJoin (every Tetris-family run, and every
// sharded one), RunBatch, PatchJoin (engine/incremental.h) and each
// JoinService miss (server/join_service.h) are thin entry points over
// it. It takes queries that passed ValidateEngineOptions
// (engine/join_engine.h) and:
//
//   (a) resolves each Tetris-family query's SAO (the hint, else
//       DefaultSao) and gives it its base indexes: the caller's
//       EngineOptions::indexes, else the shared (relation, layout)
//       IndexCache (engine/index_cache.h) — a relation referenced by
//       five queries is indexed once — and shards probe them through
//       zero-copy IndexViews (index/index_view.h), or directly when the
//       shard is the whole output space;
//   (b) under a memory budget, calibrates the per-engine-family cost
//       model ONCE (engine/cost_model.h) and reuses the probe outputs as
//       those shards' results;
//   (c) plans shards ONCE per distinct output-space signature and shares
//       the ShardPlan — row counts read off one scan of each atom a
//       split pins — and, for a baseline, its rows grouped by shard for
//       the shard copies, across every query that has it;
//   (d) runs every non-empty (query, shard) pair as ONE task set on the
//       work-stealing executor (engine/parallel_executor.h), so shards of
//       different queries interleave instead of meeting at per-query
//       barriers, abandoning unstarted tasks past a deadline; a task set
//       one worker runs executes inline and never touches the executor;
//   (e) merges each query's shard outputs by shard id into one canonical
//       EngineResult, tuple-identical to the sequential unsharded run,
//       whose RunStats record the plan (shard count, plan bytes) and the
//       estimator's prediction beside the largest actual shard peak, and
//       whose shard_runs hold each shard's own stats.
//
// A patch is a one-query run with a touched-box filter: only the shards
// meeting a touched box run, each over its touched-box hull, and
// SplicePatch (engine/incremental.h) splices the fresh outputs into the
// old result.
//
// RunBatch's results are tuple-identical to what a sequential per-query
// RunJoin would produce (tests/batch_runner_test.cc asserts this across
// all 11 engines), plus batch-level amortization stats.
#ifndef TETRIS_ENGINE_BATCH_RUNNER_H_
#define TETRIS_ENGINE_BATCH_RUNNER_H_

#include <chrono>
#include <string>
#include <vector>

#include "engine/join_engine.h"
#include "geometry/dyadic_box.h"
#include "query/join_query.h"
#include "relation/relation.h"

namespace tetris {

class WorkStealingPool;  // engine/parallel_executor.h
class IndexCache;        // engine/index_cache.h

/// Per-batch knobs, all optional.
struct BatchOptions {
  /// Dyadic depth of the shared value domain; 0 = the max MinDepth()
  /// over the batch (every query must fit one grid so indexes can be
  /// shared). An explicit depth smaller than some query's MinDepth()
  /// fails the batch.
  int depth = 0;

  /// Per-plan shard count, with EngineOptions::shards semantics:
  /// kAutoShards (the default) = planner's choice — at least one task
  /// per worker across the whole batch; 0 or 1 = one shard per plan
  /// (query-level parallelism only); >= 2 = that many shards per plan
  /// (rounded up to a power of two).
  int shards = kAutoShards;

  /// Worker-parallelism cap for the whole batch task set: 0 (default) =
  /// the executor's full width, N = at most N workers, 1 = sequential
  /// (deterministic debugging). Always clamped to the executor's width.
  int threads = 0;

  /// When nonzero, every plan splits until its shards' estimated peaks
  /// fit (engine/shard_planner.h), through ONE cost model calibrated
  /// once per batch.
  size_t memory_budget_bytes = 0;

  /// Executor the batch draws its workers from. nullptr = the
  /// process-global pool. Must outlive the call.
  WorkStealingPool* executor = nullptr;

  /// Per-query attribute-order hints with EngineOptions::order
  /// semantics (SAO for the Tetris family, GAO for Leapfrog / Generic
  /// Join). Empty = no hints; otherwise exactly one entry per query
  /// (individual entries may be empty). A bad hint — not a permutation,
  /// or any hint on a Balance-lifted variant, which chooses its own
  /// SAO — fails that query (per-query error, like RunJoin), not the
  /// batch. Order hints change the index *layout* an atom wants; the
  /// (relation, layout) index cache below keeps that from forcing
  /// per-query rebuilds.
  std::vector<std::vector<int>> orders;

  /// Shared index cache keyed by (relation, layout)
  /// (engine/index_cache.h). nullptr = a batch-local cache — indexes
  /// are still built once per distinct (relation, layout) *within* the
  /// batch. Passing a long-lived cache (the server's RelationRegistry
  /// owns one) amortizes builds *across* RunBatch calls; such a caller
  /// must keep every relation alive per the IndexCache lifetime
  /// contract. Only the Tetris family builds base indexes.
  IndexCache* index_cache = nullptr;

  /// Cooperative deadline (steady clock); the default-constructed
  /// time_point = none. (query, shard) tasks not yet *started* when the
  /// deadline passes are abandoned, and their queries fail with a
  /// per-query "deadline exceeded" error — tasks already running
  /// complete (the check happens at task granularity, which is what
  /// keeps it cheap). The server's JoinService maps per-request
  /// deadlines onto this.
  std::chrono::steady_clock::time_point deadline{};
};

/// Batch-level amortization counters.
struct BatchStats {
  size_t queries = 0;    ///< batch size
  size_t relations = 0;  ///< distinct relations referenced by the batch
  /// Base indexes built this batch (one per distinct (relation, layout)
  /// the Tetris family touches; 0 for engines that scan relations
  /// directly — and 0 on a fully warm shared cache, where
  /// index_cache_hits carries the reuse instead).
  size_t indexes_built = 0;
  /// (query, atom) index requests served from the cache without a
  /// build — within the batch, or across calls when the caller passed a
  /// long-lived BatchOptions::index_cache.
  size_t index_cache_hits = 0;
  /// Resident bytes of the shared base indexes — paid once per batch,
  /// not once per query.
  size_t index_bytes = 0;
  size_t plans = 0;       ///< distinct output-space signatures planned
  size_t plan_bytes = 0;  ///< summed residency of the shared plans
  /// Non-empty (query, shard) tasks handed to the executor (probe-reused
  /// shards excluded — their work already happened in calibration).
  size_t tasks = 0;
  size_t threads = 0;  ///< workers the batch may occupy
  double wall_ms = 0.0;  ///< end-to-end batch wall time
  /// Summed wall time of the individual (query, shard) tasks — the
  /// batch's total task occupancy, which *can* exceed wall_ms when
  /// tasks run concurrently. cpu_ms / wall_ms reads as the batch's
  /// average parallelism.
  double cpu_ms = 0.0;
  /// Sum over queries of the attributed per-query times (see
  /// BatchResult::results). Attribution splits the
  /// execution wall time by each query's share of cpu_ms, so
  /// sum_query_ms <= wall_ms always holds (equality up to the
  /// non-execution overhead — planning, merging — when every query
  /// ran).
  double sum_query_ms = 0.0;
};

/// Result of one batch run.
struct BatchResult {
  /// False only on batch-level structural errors (a query referencing a
  /// relation outside the declared pool, a depth too small for the
  /// batch). Per-query failures — an engine that cannot evaluate one
  /// query — land in that query's EngineResult instead, and the rest of
  /// the batch still runs.
  bool ok = false;
  std::string error;  ///< reason when !ok
  /// One EngineResult per query, in input order, tuple-identical to a
  /// per-query RunJoin. Each result's `wall_ms` is the query's
  /// *attributed* time — the batch's execution wall split by the
  /// query's share of summed task time — not a wall-clock latency
  /// (queries overlap inside the batch; the batch wall time lives in
  /// `stats.wall_ms`, the raw task occupancy in `stats.cpu_ms`).
  /// Invariants: every attributed time <= stats.wall_ms, and their sum
  /// (stats.sum_query_ms) <= stats.wall_ms.
  std::vector<EngineResult> results;
  BatchStats stats;
};

/// Evaluates every query of the batch with `kind` over the shared
/// `relations` pool. `relations` declares the batch's relation universe
/// — every atom of every query must reference one of them (that is what
/// makes the sharing sound); pass the pool the queries were built over.
/// An empty pool infers the universe from the queries themselves.
/// Never throws; see BatchResult::ok for the failure contract.
BatchResult RunBatch(const std::vector<const Relation*>& relations,
                     const std::vector<JoinQuery>& queries, EngineKind kind,
                     const BatchOptions& options = {});

/// One query of a pipeline run; it must have passed
/// ValidateEngineOptions with the run's depth.
struct ShardQuery {
  const JoinQuery* query = nullptr;
  /// EngineOptions::order: the Tetris family's SAO hint (empty =
  /// DefaultSao), the baselines' GAO hint.
  std::vector<int> order;
  /// EngineOptions::indexes: the Tetris family's base indexes, one per
  /// atom. Empty = fetched from BatchOptions::index_cache, else built
  /// once through a run-local IndexCache.
  std::vector<const Index*> indexes;
  /// A patch's touched boxes (engine/incremental.h); nullptr = every
  /// shard runs. Otherwise only the shards meeting a touched box run:
  /// the Tetris family over the hull of the touched boxes a shard meets,
  /// clipped to it; the baselines over the whole shard. The merged
  /// result then holds only the re-run boxes' tuples and no shard_runs.
  const std::vector<DyadicBox>* touched = nullptr;
};

/// What the pipeline hands back.
struct ShardPipelineResult {
  /// One merged EngineResult per query, in input order, with the run's
  /// BatchStats: RunBatch's result for these queries.
  BatchResult batch;
  /// Per query, the boxes its touched-box filter re-ran, in shard order;
  /// empty without a filter.
  std::vector<std::vector<DyadicBox>> rerun_boxes;
};

/// The shard pipeline under RunJoin, RunBatch, PatchJoin and the
/// service's misses (see the file comment). `options.depth` is the grid
/// depth every query was validated at; `options.orders` is ignored, each
/// query brings its own. Per-query failures (a deadline, a failed shard)
/// land in that query's EngineResult. Each result's `wall_ms` is its
/// attributed time (BatchResult::results), and `stats.threads` is the
/// number of workers the task set used.
ShardPipelineResult RunShardPipeline(const std::vector<ShardQuery>& queries,
                                     EngineKind kind,
                                     const BatchOptions& options);

/// Runs a baseline engine on `query` as it is, in trie order `gao`
/// (empty = the engine's own); canonical result. Unchecked, like the
/// pipeline: RunJoin calls it after ValidateEngineOptions.
EngineResult RunBaselineJoin(const JoinQuery& query, EngineKind kind,
                             const std::vector<int>& gao);

}  // namespace tetris

#endif  // TETRIS_ENGINE_BATCH_RUNNER_H_
