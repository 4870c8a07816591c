// Parallel execution of independent join work: a work-stealing thread
// pool with nested task groups, ParallelFor over it, and the sorted-run
// merge that joins disjoint shard outputs.
//
// The pool of record is the *process-global executor* (Global()): created
// on first use, sized once to the hardware, threads alive until process
// exit — repeated sharded runs reuse the same workers instead of
// churning threads. Every facade-level consumer draws from that one
// thread budget: the shard pipeline under RunJoin, RunBatch, PatchJoin
// and the service's misses (engine/batch_runner.h) fans its (query,
// shard) task set out on it, and cli::RunEngines --parallel fans its
// engines out on it.
// Because Run is *reentrant* — a task that calls Run on its own pool
// helps execute queued tasks until its group completes instead of
// blocking a worker — nested parallelism (a parallel engine sweep whose
// engines shard internally) is bounded by the pool width and cannot
// oversubscribe the machine. Callers that really want a separate budget
// pass their own pool through EngineOptions::executor.
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
#include <mutex>
#include <thread>
#include <vector>

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
/// the calling thread, and n <= 1 or max_parallel == 1 never touches
/// the pool. Results belong in caller-owned slots indexed by i, which
/// keeps the outcome deterministic regardless of scheduling.
void ParallelFor(WorkStealingPool* pool, int max_parallel, int n,
                 const std::function<void(int)>& fn);

/// Merges sorted runs into one sorted vector, moving every tuple once
/// into a single buffer and merging adjacent runs pairwise, bottom-up
/// (log2 of the run count passes); a lone run is returned as it is.
/// Empty runs are allowed. Equal tuples are all kept, as std::sort
/// would keep them; the callers' runs are disjoint shard outputs, so
/// their merge is already canonical.
std::vector<Tuple> MergeSortedRuns(std::vector<std::vector<Tuple>> runs);

}  // namespace tetris

#endif  // TETRIS_ENGINE_PARALLEL_EXECUTOR_H_
