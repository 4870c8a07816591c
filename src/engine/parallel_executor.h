// Parallel execution of independent join work: a work-stealing thread
// pool with nested task groups, plus the sharded-run driver behind the
// JoinEngine facade and the shard-run primitives the cross-query batch
// runner (engine/batch_runner.h) schedules through the same pool.
//
// The pool of record is the *process-global executor* (Global()): created
// on first use, sized once to the hardware, threads alive until process
// exit — repeated sharded runs reuse the same workers instead of
// churning threads. Every facade-level consumer draws from that one
// thread budget: RunShardedJoin fans its shards out on it,
// RunBatch fans its queries×shards task set out on it, and
// cli::RunEngines --parallel fans its engines out on it, and because Run
// is *reentrant* — a task that calls Run on its own pool helps execute
// queued tasks until its group completes instead of blocking a worker —
// nested parallelism (a parallel engine sweep whose engines shard
// internally) is bounded by the pool width and cannot oversubscribe the
// machine. Callers that really want a separate budget pass their own
// pool through EngineOptions::executor.
//
// The facade uses the pool for three shapes of parallelism:
//
//   * per-shard: RunShardedJoin plans a dyadic-prefix decomposition
//     (engine/shard_planner.h) and evaluates every shard concurrently
//     with the selected engine — the Tetris family through zero-copy
//     IndexViews over base indexes built once per run
//     (index/index_view.h), the baselines through shard relations
//     materialized lazily inside the worker task and dropped when the
//     shard finishes — then merges outputs and RunStats deterministically
//     by shard id, bit-identical to the sequential unsharded run;
//   * per-(query, shard): RunBatch (engine/batch_runner.h) schedules the
//     cross-product of a whole query batch's shards as ONE task set, so
//     a skewed shard of query A overlaps with query B instead of a
//     per-query barrier;
//   * per-engine: cli::RunEngines uses ParallelFor to sweep whole engine
//     matrices concurrently (one task per engine).
//
// Thread-safety contract: every engine run constructs its own evaluator
// state (oracles, knowledge bases, scratch) from const inputs —
// relations, indexes and queries are only read. The evaluator layer keeps
// that contract re-entrant: probe counters are atomic
// (kb/box_oracle.h) and oracle adapters carry no shared mutable scratch;
// IndexViews share one base index across shards through the same
// const-probe contract.
#ifndef TETRIS_ENGINE_PARALLEL_EXECUTOR_H_
#define TETRIS_ENGINE_PARALLEL_EXECUTOR_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/cost_model.h"
#include "engine/join_engine.h"
#include "engine/shard_planner.h"

namespace tetris {

/// A fixed-size pool of workers with per-worker task deques. Workers pop
/// their own deque from the back and steal from other deques' front when
/// idle — coarse-grained stealing under one lock, which is plenty for
/// shard-sized tasks (milliseconds each).
class WorkStealingPool {
 public:
  /// Spawns `threads` workers (clamped to [1, 256]).
  explicit WorkStealingPool(int threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Runs every task and blocks until all complete. Tasks must not
  /// throw. Reentrant: concurrent Runs from several threads interleave
  /// on the same workers, and a Run issued from inside a pool task
  /// *helps* — the calling worker executes queued tasks until its own
  /// group completes — so nested parallelism never deadlocks and never
  /// grows the thread count.
  void Run(std::vector<std::function<void()>> tasks);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static int HardwareThreads();

  /// The process-global executor: lazily created, sized to
  /// HardwareThreads(), threads persist until process exit. All facade
  /// parallelism (sharded runs, batched runs, --parallel sweeps)
  /// defaults to it, so nested uses share one thread budget.
  static WorkStealingPool& Global();

 private:
  /// One blocking Run call: the tasks it enqueued that have not finished.
  struct Group {
    size_t pending = 0;
  };
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };

  void WorkerLoop(int self);
  // Pops own back, else steals another deque's front. Caller holds mu_.
  Task NextTask(int self);

  std::mutex mu_;
  std::condition_variable cv_;  // new work, group completion, stop
  std::vector<std::deque<Task>> queues_;
  size_t unassigned_ = 0;  // tasks sitting in deques
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0..n-1) on `pool` (nullptr = the global executor), occupying
/// at most max_parallel of its workers (<= 0 = the pool's full width;
/// always clamped to the pool width — the shared thread budget). Blocks
/// until all complete; n <= 1 or an effective width of 1 runs inline on
/// the calling thread. Results belong in caller-owned slots indexed by
/// i, which keeps the outcome deterministic regardless of scheduling.
void ParallelFor(WorkStealingPool* pool, int max_parallel, int n,
                 const std::function<void(int)>& fn);

/// Back-compat shim on the global executor: threads = 0 means the pool's
/// full width.
void ParallelFor(int threads, int n, const std::function<void(int)>& fn);

// ---------------------------------------------------------------------
// Shard-run primitives, shared by RunShardedJoin and the cross-query
// batch runner (engine/batch_runner.h). Each runs ONE shard of one
// query the exact way a full sharded run would, so probe passes and
// batch tasks produce results interchangeable with the real shards'.

/// Shared zero-copy state of a Tetris-family sharded run: base indexes
/// built once over the *original* relations, restricted per shard
/// through IndexViews. Shards read the bases concurrently under the
/// Index const-probe contract. `owned` is empty when the bases are
/// caller-owned (custom indexes, or the batch runner's per-relation
/// index cache shared across queries).
struct TetrisShardContext {
  const JoinQuery* query = nullptr;
  JoinAlgorithm algo = JoinAlgorithm::kTetrisPreloaded;
  int depth = 0;
  std::vector<int> order;  ///< the resolved SAO every shard runs under
  std::vector<std::unique_ptr<Index>> owned;  // empty with shared bases
  std::vector<const Index*> base;             // one per atom
  size_t base_index_bytes = 0;
};

/// Builds the context for `query`: the SAO is `order`, or
/// DefaultSao(query, algo) when `order` is empty. Non-empty
/// `shared_base` pointers pass through un-owned (one per atom, caller
/// keeps them alive); otherwise the context owns freshly built per-atom
/// SortedIndexes laid out for that SAO (MakeSaoConsistentIndexes).
TetrisShardContext MakeTetrisShardContext(
    const JoinQuery& query, JoinAlgorithm algo, int depth,
    std::vector<int> order, std::vector<const Index*> shared_base);

/// One shard of a Tetris-family run: per-atom IndexViews confine every
/// probe and gap scan to the shard's box — no tuple is copied, no index
/// rebuilt — and are dropped when the shard finishes. `shard_box` may be
/// any dyadic box: PatchJoin (engine/incremental.h) passes the hull of
/// a shard's touched boxes, a sub-box of the shard, and gets exactly
/// the join's tuples inside it.
EngineResult RunTetrisViewShard(const TetrisShardContext& ctx,
                                const DyadicBox& shard_box, EngineKind kind);

/// The baselines' lazy path: the restricted copy exists only inside this
/// call — materialized when the worker picks the shard up, dropped when
/// it finishes — so at most `threads` shard copies are resident at once
/// instead of all 2^k.
EngineResult RunMaterializedShard(const JoinQuery& query,
                                  const ShardPlan& plan, int shard_id,
                                  EngineKind kind,
                                  const EngineOptions& shard_opts);

/// Merges one shard's counters into the run total. Work counters add
/// up; the memory fields keep the per-shard *peak* — shards build and
/// release their resident structures independently, and the peak is
/// what the budget constrains.
void AccumulateShardStats(RunStats* into, const RunStats& shard);

/// One probe-shard run kept around for reuse: probe shards are real
/// shards of the output space, so when the final plan contains the same
/// subcube the probe's result IS that shard's result.
struct ProbeRun {
  DyadicBox box;
  size_t payload_bytes = 0;
  EngineResult result;
};

/// Calibrates the per-engine-family cost model from up to two probe
/// passes (a ~1/8-scale and a ~1/4-scale shard, each run exactly the way
/// the real shards will run: `tctx` non-null = zero-copy views, null =
/// lazy materialization with `shard_opts`). Appends every successful
/// probe to `probe_runs` so the caller can reuse the outputs. A probe is
/// skipped when the domain cannot split or skew concentrates (almost)
/// everything in one subcube — a hidden near-full run would double wall
/// time without teaching the model anything; with one usable probe the
/// fit degrades to one-point, with none to the payload proxy.
ShardCostModel CalibrateShardCostModel(const JoinQuery& query,
                                       EngineKind kind,
                                       const TetrisShardContext* tctx,
                                       const EngineOptions& shard_opts,
                                       int depth,
                                       std::vector<ProbeRun>* probe_runs);

/// Appends `s` to `*note` with "; " separation; no-op when `s` is empty.
void AppendNote(std::string* note, const std::string& s);

/// The "reused N probe results as shard output" diagnostic; empty for 0.
std::string ProbeReuseNote(size_t probes_reused);

/// The estimator's predicted-vs-actual audit line — one format for the
/// sharded and the batched run, so the reporter-facing string cannot
/// diverge between them.
std::string EstimatorAuditNote(const ShardCostModel& model,
                               size_t predicted_bytes, size_t actual_bytes);

/// Merges sorted runs into one sorted vector, moving every tuple once
/// into a single buffer and merging adjacent runs pairwise, bottom-up
/// (log2 of the run count passes). Empty runs are allowed. Equal tuples
/// are all kept, as std::sort would keep them; the callers' runs are
/// disjoint shard outputs, so their merge is already canonical.
std::vector<Tuple> MergeSortedRuns(std::vector<std::vector<Tuple>> runs);

/// Deterministic by-shard-id merge of one query's shard results into one
/// facade EngineResult: merges the shards' canonical tuple runs,
/// accumulates RunStats, fills shard_runs / the estimator fields from
/// `plan`, reports shards whose actual peak overran
/// `memory_budget_bytes` (0 = no budget) in shard_note, and surfaces
/// `shared_index_bytes` (the always-resident base indexes of a zero-copy
/// run; 0 for materializing engines) in the merged memory counters.
/// `shard_results[i]` must hold shard i's result for every non-empty
/// plan shard; a failed shard fails the merge (`ok == false`).
EngineResult MergeShardRuns(const JoinQuery& query, EngineKind kind,
                            const ShardPlan& plan,
                            std::vector<EngineResult> shard_results,
                            size_t memory_budget_bytes,
                            size_t shared_index_bytes);

/// Sharded evaluation of `query` on `kind`: plans dyadic-prefix shards
/// per options.shards / options.memory_budget_bytes (calibrating the
/// cost model from the probe passes when a budget is in play, and
/// reusing probe outputs as those shards' results), runs them on at
/// most options.threads workers of options.executor (nullptr = the
/// global pool), and merges tuples and stats by shard id. Empty shards
/// are skipped without touching the engine. The merged MemoryStats
/// fields hold per-shard *peaks* (the budget-facing number), not
/// concurrent sums; RunStats::{shards, threads, max_shard_peak_bytes,
/// estimated_max_shard_peak_bytes, plan_bytes} and
/// EngineResult::shard_runs/::shard_note carry the per-shard and
/// estimator detail. Called by RunJoin after option validation; callable
/// directly in tests.
EngineResult RunShardedJoin(const JoinQuery& query, EngineKind kind,
                            const EngineOptions& options);

}  // namespace tetris

#endif  // TETRIS_ENGINE_PARALLEL_EXECUTOR_H_
