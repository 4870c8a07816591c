// Unified join-engine facade.
//
// The repo grows several independent evaluators: the Tetris family
// (preloaded / reloaded / no-cache / Balance-lifted, paper Sections 4-5),
// the worst-case-optimal baselines (Leapfrog Triejoin, Generic Join),
// Yannakakis for acyclic queries, and the classical pairwise plans. Each
// has its own entry point and its own stats struct. JoinEngine puts them
// behind one API with a common `RunStats` result so callers — tests,
// benches, the shard pipeline and the service — select an engine by enum
// instead of hard-coding a call site.
//
// All engines return output columns in query attribute-id order; the
// facade canonicalizes (sorts + dedups) the tuples so results are
// directly comparable across engines. What a run decided is recorded as
// data, not prose: the counters and byte sizes of RunStats and the
// per-shard entries of EngineResult::shard_runs, which the reporters
// (engine/cli.h) print as row fields.
#ifndef TETRIS_ENGINE_JOIN_ENGINE_H_
#define TETRIS_ENGINE_JOIN_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "baseline/temp_relation.h"
#include "engine/join_runner.h"
#include "engine/tetris.h"
#include "query/join_query.h"

namespace tetris {

class WorkStealingPool;  // engine/parallel_executor.h

/// Every evaluator the repo knows how to run.
enum class EngineKind {
  // Tetris family (engine/join_runner.h).
  kTetrisPreloaded,
  kTetrisReloaded,
  kTetrisPreloadedNoCache,
  kTetrisPreloadedLB,
  kTetrisReloadedLB,
  // Worst-case-optimal baselines.
  kLeapfrog,
  kGenericJoin,
  // Acyclic-only baseline.
  kYannakakis,
  // Classical pairwise plans.
  kPairwiseHash,
  kPairwiseSortMerge,
  kPairwiseNestedLoop,
};

/// Stable lowercase identifier (CLI flags, bench labels, logs).
const char* EngineKindName(EngineKind kind);

/// All engine kinds, in declaration order.
const std::vector<EngineKind>& AllEngineKinds();

/// True iff `kind` can evaluate `query` (Yannakakis requires α-acyclicity;
/// everything else is universal).
bool EngineSupports(EngineKind kind, const JoinQuery& query);

/// The join_runner algorithm behind a Tetris-family kind; nullopt for
/// the baselines. The shard pipeline uses it to pick the zero-copy
/// view path (Tetris family) over lazy materialization (baselines).
std::optional<JoinAlgorithm> TetrisAlgorithmOf(EngineKind kind);

/// Approximate resident-space counters (bytes). A counter is zero when
/// the engine has no corresponding structure: only the Tetris family
/// builds a knowledge base and probes indexes; only the pairwise plans
/// and Yannakakis materialize intermediates.
struct MemoryStats {
  size_t kb_bytes = 0;            ///< peak knowledge-base A footprint
  size_t index_bytes = 0;         ///< per-atom index structures
  size_t intermediate_bytes = 0;  ///< largest materialized intermediate
  size_t output_bytes = 0;        ///< canonical output (TupleBytes)

  /// Largest single resident structure — the number a memory budget
  /// constrains.
  size_t PeakBytes() const {
    size_t peak = kb_bytes;
    if (index_bytes > peak) peak = index_bytes;
    if (intermediate_bytes > peak) peak = intermediate_bytes;
    if (output_bytes > peak) peak = output_bytes;
    return peak;
  }
};

/// Engine-agnostic run counters. Engine-specific measures are zero when
/// the engine does not produce them.
struct RunStats {
  EngineKind engine = EngineKind::kTetrisPreloaded;
  size_t output_tuples = 0;  ///< |Q(D)| after dedup
  double wall_ms = 0.0;      ///< end-to-end evaluation time

  TetrisStats tetris;          ///< Tetris family counters
  size_t input_gap_boxes = 0;  ///< |B(Q)| (Tetris preloaded variants)
  int64_t oracle_probes = 0;   ///< Tetris reloaded variants
  int64_t probes = 0;          ///< Generic Join binary-search probes
  int64_t seeks = 0;           ///< Leapfrog iterator seeks
  BaselineStats baseline;      ///< pairwise / Yannakakis intermediates
  MemoryStats memory;          ///< space per engine (time is wall_ms).
                               ///< Sharded runs: per-shard peaks, not
                               ///< concurrent sums.

  // Sharded runs only (engine/batch_runner.h); zero otherwise.
  size_t shards = 0;   ///< planned shard count (incl. empty shards)
  size_t threads = 0;  ///< executor workers the run may occupy
  size_t max_shard_peak_bytes = 0;  ///< max MemoryStats::PeakBytes() over
                                    ///< shards — the budget-facing number
  /// The planner's cost-model prediction of max_shard_peak_bytes
  /// (engine/cost_model.h) — compare the two to audit the estimator.
  size_t estimated_max_shard_peak_bytes = 0;
  /// Bytes the shard plan keeps resident: its shards, one row offset per
  /// (atom, bucket), and a split baseline plan's row groups.
  size_t plan_bytes = 0;
};

/// Per-shard outcome of a sharded run, in shard-id order.
struct ShardRunInfo {
  int shard_id = 0;
  std::string box;  ///< the shard's subcube, e.g. "<0, λ, 1>"
  bool skipped_empty = false;  ///< some atom restricted to ∅; not run
  size_t output_tuples = 0;
  RunStats stats;  ///< zero when skipped_empty
};

/// Result of one facade run.
struct EngineResult {
  bool ok = false;            ///< false: engine unsupported for this query
  std::string error;          ///< reason when !ok
  std::vector<Tuple> tuples;  ///< sorted, deduplicated, attr-id order
  RunStats stats;

  // Sharded runs only: one entry per planned shard. Empty for plain
  // runs and for spliced patches.
  std::vector<ShardRunInfo> shard_runs;
};

/// EngineOptions::shards value asking the planner to choose the shard
/// count itself (from the thread count and the memory budget).
inline constexpr int kAutoShards = -1;

/// Per-run knobs, all optional.
struct EngineOptions {
  /// Attribute-id order hint: SAO for the Tetris family, GAO for
  /// Leapfrog / Generic Join. Empty = engine-appropriate default
  /// (DefaultSao for the Tetris family). The Tetris family lays the
  /// indexes it builds out for the SAO it runs under, hinted or not.
  /// Ignored by Yannakakis and the pairwise plans. Non-empty orders
  /// must be a permutation of [0, num_attrs), and are rejected
  /// (`ok == false`) by the Balance-lifted variants, which choose
  /// their own SAO (their indexes keep relation column order).
  std::vector<int> order;

  /// Pre-built per-atom indexes (`indexes[i]` serves atom i). The Tetris
  /// family probes them directly — including under sharding, where each
  /// shard wraps them in zero-copy IndexViews (index/index_view.h);
  /// Leapfrog and Generic Join derive their trie order (GAO) from
  /// SortedIndex column orders when `order` is empty, so index ablations
  /// cover the WCOJ baselines too. Ignored by Yannakakis and the
  /// pairwise plans; rejected when sharding is requested on a non-Tetris
  /// engine (the baselines rescan materialized shard copies). Empty =
  /// engine-appropriate defaults. Pointers must outlive the call; the
  /// size must match the atom count.
  std::vector<const Index*> indexes;

  /// Dyadic depth of the value domain; 0 = query.MinDepth(). Only
  /// meaningful for the Tetris family (which works on the dyadic grid)
  /// and the shard planner (which splits the dyadic domain). The Tetris
  /// family rejects an effective depth above kMaxDepth
  /// (kGridTooDeepError).
  int depth = 0;

  /// Dyadic-prefix sharding (engine/shard_planner.h): 0 or 1 = off,
  /// >= 2 = split into at least that many subcubes (rounded up to a
  /// power of two), kAutoShards = planner's choice. Setting `threads`
  /// to 0 or > 1 while this is 0 implies kAutoShards.
  int shards = 0;

  /// Worker-parallelism cap for the sharded run: 1 = sequential
  /// (default), 0 = the executor's full width, N = at most N workers.
  /// Always clamped to the executor's width — the shared thread budget —
  /// so nested parallelism cannot oversubscribe the machine.
  int threads = 1;

  /// When nonzero, the shard planner keeps splitting until every
  /// shard's estimated peak resident bytes fit this budget (see
  /// MemoryStats::PeakBytes), scaling payloads through a per-engine-
  /// family cost model calibrated from a probe pass
  /// (engine/cost_model.h). The result shows how it went:
  /// `estimated_max_shard_peak_bytes` above the budget means no split
  /// could meet it, `max_shard_peak_bytes` above it means some shard
  /// overran at run time (each shard's peak is in `shard_runs`), and
  /// `memory.index_bytes` above it means the shared base indexes, which
  /// stay resident however fine the split, already exceed it.
  /// Implies sharded execution.
  size_t memory_budget_bytes = 0;

  /// Executor the sharded run (and cli::RunEngines --parallel) draws its
  /// workers from. nullptr = the process-global pool, sized once to the
  /// hardware and shared by every caller — the shared thread budget.
  /// Pass a private pool to isolate a run's parallelism. Must outlive
  /// the call.
  WorkStealingPool* executor = nullptr;
};

/// Evaluates `query` with the chosen engine. Never throws: unsupported
/// engine/query combinations come back with `ok == false`. Tetris-family
/// and sharded runs (`shards`, `threads` or `memory_budget_bytes` asking
/// for it) go through the shard pipeline of engine/batch_runner.h as a
/// batch of one; a plain Tetris run is its one-shard plan, run inline,
/// with no shard fields. A plain baseline runs its engine directly.
EngineResult RunJoin(const JoinQuery& query, EngineKind kind,
                     const EngineOptions& options = {});

/// The shard and thread counts every entry point accepts; the error
/// text, empty when both are valid. RunBatch checks them once for the
/// whole batch; ValidateEngineOptions checks them first.
std::string ValidateParallelism(int shards, int threads);

/// The one option check in front of RunJoin (plain and sharded),
/// RunBatch's queries, PatchJoin and the service's misses, so every
/// path rejects the same input with the same text: ValidateParallelism,
/// engine support, the order hint, the custom indexes, the grid depth
/// and the query's and its atoms' width (kQueryTooWideError).
/// `plans_shards` says the path cuts the output space into shard boxes,
/// which every engine then needs to fit. Returns the error, empty when
/// the options are valid; on success `*depth` (when non-null) receives
/// the effective grid depth: `options.depth`, else the custom indexes'
/// depth, else query.MinDepth().
std::string ValidateEngineOptions(const JoinQuery& query, EngineKind kind,
                                  const EngineOptions& options,
                                  bool plans_shards, int* depth = nullptr);

}  // namespace tetris

#endif  // TETRIS_ENGINE_JOIN_ENGINE_H_
