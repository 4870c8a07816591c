// The parallel executor: the work-stealing pool must run every task
// exactly once, and sharded parallel runs must be indistinguishable —
// tuple for tuple — from sequential unsharded runs on every engine, on
// randomized workloads, including the degenerate shapes (empty shards,
// impossible budgets, rejected option combinations).
#include "engine/parallel_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/join_engine.h"
#include "index/index_view.h"
#include "workload/generators.h"

namespace tetris {
namespace {

TEST(WorkStealingPoolTest, RunsEveryTaskExactlyOnce) {
  WorkStealingPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });
  }
  pool.Run(std::move(tasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkStealingPoolTest, ReusableAcrossRunsAndSingleThreaded) {
  WorkStealingPool pool(1);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) tasks.push_back([&count] { ++count; });
    pool.Run(std::move(tasks));
  }
  EXPECT_EQ(count.load(), 30);
  pool.Run({});  // empty batch is a no-op, not a hang
}

TEST(WorkStealingPoolTest, ClampsThreadCount) {
  WorkStealingPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  EXPECT_GE(WorkStealingPool::HardwareThreads(), 1);
}

TEST(WorkStealingPoolTest, GlobalPoolIsOneProcessWideInstance) {
  WorkStealingPool& a = WorkStealingPool::Global();
  WorkStealingPool& b = WorkStealingPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.threads(), WorkStealingPool::HardwareThreads());
}

TEST(WorkStealingPoolTest, PoolThreadsPersistAcrossRuns) {
  // No per-call thread churn: across many Runs, the union of serving
  // threads never exceeds the pool width (per-call thread creation
  // would surface a fresh id per round).
  WorkStealingPool pool(2);
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int round = 0; round < 6; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) {
      tasks.push_back([&mu, &ids] {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      });
    }
    pool.Run(std::move(tasks));
  }
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
}

TEST(WorkStealingPoolTest, NestedRunHelpsInsteadOfDeadlocking) {
  // Each outer task issues an inner Run on the same pool: with only two
  // workers this deadlocks unless the nested Run helps drain the queue.
  WorkStealingPool pool(2);
  std::atomic<int> inner_hits{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &inner_hits] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j) {
        inner.push_back([&inner_hits] { ++inner_hits; });
      }
      pool.Run(std::move(inner));
    });
  }
  pool.Run(std::move(outer));
  EXPECT_EQ(inner_hits.load(), 32);
}

TEST(WorkStealingPoolTest, ConcurrentExternalRunsShareThePool) {
  WorkStealingPool pool(2);
  std::atomic<int> hits{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&pool, &hits] {
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < 16; ++i) tasks.push_back([&hits] { ++hits; });
      pool.Run(std::move(tasks));
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(hits.load(), 48);
}

TEST(ParallelForTest, CoversTheWholeRange) {
  constexpr int kN = 57;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(nullptr, /*max_parallel=*/3, kN,
              [&hits](int i) { ++hits[i]; });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  ParallelFor(nullptr, /*max_parallel=*/3, 0, [](int) { FAIL(); });
}

// Sharded output == unsharded output, engine by engine. This is the
// cross-engine agreement matrix of the acceptance criteria: randomized
// triangle (cyclic) and path (acyclic) workloads, all 11 engines.
TEST(RunShardedJoinTest, ShardedMatchesUnshardedForEveryEngine) {
  std::vector<QueryInstance> workloads;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    workloads.push_back(
        RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4, seed));
    workloads.push_back(
        RandomPath(/*hops=*/3, /*tuples_per_rel=*/50, /*d=*/4, seed));
  }
  for (size_t w = 0; w < workloads.size(); ++w) {
    SCOPED_TRACE(w);
    const QueryInstance& q = workloads[w];
    for (EngineKind kind : AllEngineKinds()) {
      SCOPED_TRACE(EngineKindName(kind));
      EngineResult plain = RunJoin(q.query, kind);
      EngineOptions sharded_opts;
      sharded_opts.shards = 4;
      sharded_opts.threads = 4;
      EngineResult sharded = RunJoin(q.query, kind, sharded_opts);
      if (!EngineSupports(kind, q.query)) {
        EXPECT_FALSE(plain.ok);
        EXPECT_FALSE(sharded.ok);
        continue;
      }
      ASSERT_TRUE(plain.ok) << plain.error;
      ASSERT_TRUE(sharded.ok) << sharded.error;
      EXPECT_EQ(sharded.tuples, plain.tuples);
      EXPECT_EQ(sharded.stats.output_tuples, plain.stats.output_tuples);
      EXPECT_EQ(sharded.stats.shards, 4u);
      EXPECT_EQ(sharded.shard_runs.size(), 4u);
    }
  }
}

TEST(RunShardedJoinTest, ShardRunsAreOrderedByIdWithPartialCounts) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/50, /*d=*/4,
                                   /*seed=*/11);
  EngineOptions opts;
  opts.shards = 8;
  opts.threads = 2;
  EngineResult r = RunJoin(q.query, EngineKind::kGenericJoin, opts);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.shard_runs.size(), 8u);
  size_t total = 0;
  for (size_t i = 0; i < r.shard_runs.size(); ++i) {
    EXPECT_EQ(r.shard_runs[i].shard_id, static_cast<int>(i));
    EXPECT_FALSE(r.shard_runs[i].box.empty());
    total += r.shard_runs[i].output_tuples;
  }
  // Shards are disjoint: partial outputs add up exactly.
  EXPECT_EQ(total, r.tuples.size());
}

TEST(RunShardedJoinTest, ThreadsAloneImplyAutoSharding) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/12);
  EngineResult plain = RunJoin(q.query, EngineKind::kTetrisPreloaded);
  EngineOptions opts;
  opts.threads = 4;  // shards left at 0: the facade auto-shards
  EngineResult r = RunJoin(q.query, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stats.shards, 4u);
  EXPECT_GE(r.stats.threads, 1u);
  EXPECT_EQ(r.tuples, plain.tuples);
}

TEST(RunShardedJoinTest, MemoryBudgetSplitsAndIsRespectedOrReported) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/5,
                                   /*seed=*/13);
  EngineResult plain = RunJoin(q.query, EngineKind::kTetrisPreloaded);
  ASSERT_TRUE(plain.ok);

  // A budget in the planner's own estimate domain (input payload)
  // forces a real split, and the estimates then fit it.
  const size_t estimate = PlanShards(q.query, {}).max_estimated_peak_bytes;
  ASSERT_GT(estimate, 0u);
  EngineOptions opts;
  opts.memory_budget_bytes = estimate / 4;
  EngineResult r = RunJoin(q.query, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(r.stats.shards, 2u);
  EXPECT_EQ(r.tuples, plain.tuples);

  // Acceptance contract: every shard's *actual* peak fits the budget,
  // or the run says which shard overran and by how much: each shard's
  // peak is on its shard entry, and max_shard_peak_bytes is their max.
  EXPECT_EQ(r.stats.max_shard_peak_bytes,
            [&r] {
              size_t peak = 0;
              for (const auto& s : r.shard_runs) {
                peak = std::max(peak, s.stats.memory.PeakBytes());
              }
              return peak;
            }());

  // A budget below the engine's actual (KB-dominated) peak but above
  // the payload estimate cannot be anticipated by the planner; the
  // result still shows the overrun instead of staying silent.
  const size_t full_peak = plain.stats.memory.PeakBytes();
  if (full_peak / 2 > estimate) {
    EngineOptions tight;
    tight.memory_budget_bytes = full_peak / 2;
    EngineResult t = RunJoin(q.query, EngineKind::kTetrisPreloaded, tight);
    ASSERT_TRUE(t.ok) << t.error;
    EXPECT_EQ(t.tuples, plain.tuples);
    bool some_overran = false;
    for (const ShardRunInfo& shard : t.shard_runs) {
      if (!shard.skipped_empty &&
          shard.stats.memory.PeakBytes() > tight.memory_budget_bytes) {
        some_overran = true;
      }
    }
    EXPECT_EQ(some_overran,
              t.stats.max_shard_peak_bytes > tight.memory_budget_bytes);
  }
}

TEST(RunShardedJoinTest, ImpossibleBudgetStillFinishesAndReports) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/14);
  EngineResult plain = RunJoin(q.query, EngineKind::kLeapfrog);
  EngineOptions opts;
  opts.memory_budget_bytes = 1;  // cannot be met
  EngineResult r = RunJoin(q.query, EngineKind::kLeapfrog, opts);
  ASSERT_TRUE(r.ok) << r.error;  // degrade gracefully, not hang or fail
  // No split meets the budget: the plan's estimate says so.
  EXPECT_GT(r.stats.estimated_max_shard_peak_bytes, opts.memory_budget_bytes);
  EXPECT_EQ(r.tuples, plain.tuples);
}

TEST(RunShardedJoinTest, EmptyShardsAreSkippedNotRun) {
  // Clustered data (all values < 2^(d-1)) leaves the upper subcubes
  // empty; those shards must be skipped and the output still exact.
  Relation r1 = Relation::Make("R", {"A", "B"},
                               {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Relation r2 = Relation::Make("S", {"B", "C"},
                               {{1, 0}, {2, 1}, {3, 2}, {0, 3}});
  JoinQuery q = JoinQuery::Build({&r1, &r2});
  EngineOptions opts;
  opts.depth = 3;
  opts.shards = 8;
  EngineResult sharded = RunJoin(q, EngineKind::kPairwiseHash, opts);
  ASSERT_TRUE(sharded.ok) << sharded.error;
  EngineOptions plain_opts;
  plain_opts.depth = 3;
  EngineResult plain = RunJoin(q, EngineKind::kPairwiseHash, plain_opts);
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(sharded.tuples, plain.tuples);
  size_t skipped = 0;
  for (const ShardRunInfo& shard : sharded.shard_runs) {
    if (shard.skipped_empty) {
      ++skipped;
      EXPECT_EQ(shard.output_tuples, 0u);
    }
  }
  EXPECT_GT(skipped, 0u);
}

TEST(RunShardedJoinTest, CustomIndexesRideThroughTetrisShardingOnly) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/20, /*d=*/4,
                                   /*seed=*/15);
  // The Tetris family wraps caller indexes in zero-copy IndexViews per
  // shard, so the sharded run must match the plain custom-index run.
  auto owned = MakeSaoConsistentIndexes(q.query, {0, 1, 2}, q.depth);
  EngineOptions opts;
  opts.order = {0, 1, 2};
  opts.indexes = IndexPtrs(owned);
  EngineResult plain = RunJoin(q.query, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(plain.ok) << plain.error;
  opts.shards = 4;
  EngineResult sharded =
      RunJoin(q.query, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(sharded.ok) << sharded.error;
  EXPECT_EQ(sharded.tuples, plain.tuples);
  EXPECT_EQ(sharded.stats.shards, 4u);

  // The baselines rescan materialized shard copies, so caller indexes
  // cannot ride along there.
  EngineOptions baseline_opts;
  baseline_opts.indexes = IndexPtrs(owned);
  baseline_opts.shards = 4;
  EngineResult rejected =
      RunJoin(q.query, EngineKind::kLeapfrog, baseline_opts);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("indexes"), std::string::npos);

  EngineOptions bad_shards;
  bad_shards.shards = -2;
  EXPECT_FALSE(RunJoin(q.query, EngineKind::kLeapfrog, bad_shards).ok);
  EngineOptions bad_threads;
  bad_threads.threads = -1;
  EXPECT_FALSE(RunJoin(q.query, EngineKind::kLeapfrog, bad_threads).ok);
}

// The acceptance memory contract of the zero-copy refactor: a finely
// sharded run's peak no longer scales with the sum of materialized shard
// copies — per-shard peaks stay within a constant of the unsharded run,
// the Tetris shards carry no per-shard index copies at all, and the plan
// itself keeps only row indices.
TEST(RunShardedJoinTest, ShardedPeakStaysNearUnshardedWithoutCopies) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/120, /*d=*/6,
                                   /*seed=*/31);
  EngineResult plain = RunJoin(q.query, EngineKind::kTetrisPreloaded);
  ASSERT_TRUE(plain.ok);
  const size_t plain_peak = plain.stats.memory.PeakBytes();
  ASSERT_GT(plain_peak, 0u);

  EngineOptions opts;
  opts.shards = 16;
  EngineResult sharded = RunJoin(q.query, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(sharded.ok) << sharded.error;
  EXPECT_EQ(sharded.tuples, plain.tuples);

  // Per-shard peaks bounded by a constant of the unsharded peak (the
  // clipped per-shard knowledge bases are no bigger than the full one;
  // the factor absorbs the box-complement slabs).
  EXPECT_LE(sharded.stats.max_shard_peak_bytes, 2 * plain_peak + 4096);

  // Zero copies: every live shard's own index residency is a few view
  // objects, not a restricted SortedIndex rebuild. Pinned exactly: the
  // sum over shards is at most one IndexView header per (live shard,
  // atom). (The old proxy "summed < one full index" stopped encoding
  // this once the columnar index shrank below 48 view headers — a
  // single rebuilt shard index would already cost rows*arity*8 and
  // blow this bound.)
  size_t summed_shard_index_bytes = 0;
  size_t live_shards = 0;
  for (const ShardRunInfo& shard : sharded.shard_runs) {
    if (!shard.skipped_empty) {
      summed_shard_index_bytes += shard.stats.memory.index_bytes;
      ++live_shards;
    }
  }
  EXPECT_LE(summed_shard_index_bytes,
            live_shards * q.query.atoms().size() * sizeof(IndexView));

  // The run-level counter still reports the shared base indexes once.
  EXPECT_GE(sharded.stats.memory.index_bytes,
            plain.stats.memory.index_bytes);

  // Planner residency: row counts, not tuple copies.
  EXPECT_GT(sharded.stats.plan_bytes, 0u);
  size_t total_tuples = 0;
  for (const auto& atom : q.query.atoms()) total_tuples += atom.rel->size();
  EXPECT_LE(sharded.stats.plan_bytes,
            total_tuples * sizeof(size_t) + 16 * sizeof(Shard) + 1024);
}

// Nested parallelism on one shared executor: a parallel engine sweep
// whose engines shard internally reuses the same workers (the nested
// Run helps), stays within the pool's width, and still produces the
// sequential results. This is the global-pool reuse path the TSan job
// covers.
TEST(RunShardedJoinTest, NestedShardingSharesOneExecutor) {
  WorkStealingPool pool(3);
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/32);
  std::vector<EngineKind> kinds = {EngineKind::kTetrisPreloaded,
                                   EngineKind::kGenericJoin,
                                   EngineKind::kPairwiseHash};
  std::vector<EngineResult> nested(kinds.size());
  ParallelFor(&pool, /*max_parallel=*/0,
              static_cast<int>(kinds.size()), [&](int i) {
                EngineOptions opts;
                opts.shards = 4;
                opts.threads = 3;
                opts.executor = &pool;  // nested Run on the same pool
                nested[i] = RunJoin(q.query, kinds[i], opts);
              });
  for (size_t i = 0; i < kinds.size(); ++i) {
    ASSERT_TRUE(nested[i].ok) << nested[i].error;
    EngineResult plain = RunJoin(q.query, kinds[i]);
    ASSERT_TRUE(plain.ok);
    EXPECT_EQ(nested[i].tuples, plain.tuples);
    // The worker cap is the shared budget, not a new set of threads.
    EXPECT_LE(nested[i].stats.threads, 3u);
  }
}

// Budget runs calibrate the estimator from a probe pass, and the result
// carries the prediction beside the actual peak.
TEST(RunShardedJoinTest, BudgetRunsReportTheEstimatorAudit) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/5,
                                   /*seed=*/33);
  const size_t estimate = PlanShards(q.query, {}).max_estimated_peak_bytes;
  EngineOptions opts;
  opts.memory_budget_bytes = estimate / 4;
  EngineResult r = RunJoin(q.query, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.stats.estimated_max_shard_peak_bytes, 0u);
  size_t actual = 0;
  for (const ShardRunInfo& shard : r.shard_runs) {
    actual = std::max(actual, shard.stats.memory.PeakBytes());
  }
  EXPECT_GT(actual, 0u);
  EXPECT_EQ(r.stats.max_shard_peak_bytes, actual);
}

// Probe passes are real shards of the output space: when the final plan
// contains the probe's subcube, the probe's output is reused as that
// shard's result instead of being discarded — and the merged output is
// still exactly the unsharded one.
TEST(RunShardedJoinTest, ProbeResultsAreReusedAsShardOutputs) {
  QueryInstance q = FullGridTriangle(/*m=*/8);  // balanced: probes run
  EngineOptions opts;
  opts.shards = 8;  // the final plan repeats the 8-way probe plan
  opts.memory_budget_bytes = 512 << 20;  // generous: k stays at 3
  EngineResult sharded = RunJoin(q.query, EngineKind::kTetrisPreloaded,
                                 opts);
  ASSERT_TRUE(sharded.ok) << sharded.error;
  EngineResult plain = RunJoin(q.query, EngineKind::kTetrisPreloaded, {});
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(sharded.tuples, plain.tuples);

  // The same run as a batch of one counts its executor tasks: eight
  // non-empty shards, one of them the reused 8-way probe.
  BatchOptions batch;
  batch.shards = opts.shards;
  batch.threads = 1;
  batch.memory_budget_bytes = opts.memory_budget_bytes;
  BatchResult b =
      RunBatch({}, {q.query}, EngineKind::kTetrisPreloaded, batch);
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_TRUE(b.results[0].ok) << b.results[0].error;
  EXPECT_EQ(b.results[0].stats.shards, 8u);
  EXPECT_EQ(b.stats.tasks, 7u);
  EXPECT_EQ(b.results[0].tuples, plain.tuples);
}

// The budget accounting cannot lie by omission: materialized shard
// copies count toward the per-shard peak (the baselines keep them
// resident for the whole shard run), and the always-resident shared base
// indexes stay in the merged index_bytes, so a budget below them shows.
TEST(RunShardedJoinTest, BudgetAccountingCountsCopiesAndBaseIndexes) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/50, /*d=*/5,
                                   /*seed=*/34);
  EngineOptions opts;
  opts.shards = 4;
  EngineResult lf = RunJoin(q.query, EngineKind::kLeapfrog, opts);
  ASSERT_TRUE(lf.ok) << lf.error;
  for (const ShardRunInfo& shard : lf.shard_runs) {
    if (shard.skipped_empty) continue;
    // The restricted input copy is resident: the shard peak can never
    // read as ~0 for a selective join.
    EXPECT_GT(shard.stats.memory.index_bytes, 0u) << shard.shard_id;
    EXPECT_GE(shard.stats.memory.PeakBytes(),
              shard.stats.memory.index_bytes);
  }

  EngineOptions tiny;
  tiny.memory_budget_bytes = 1;  // far below the base SortedIndexes
  EngineResult tp = RunJoin(q.query, EngineKind::kTetrisPreloaded, tiny);
  ASSERT_TRUE(tp.ok) << tp.error;
  EngineResult plain = RunJoin(q.query, EngineKind::kTetrisPreloaded);
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_GE(tp.stats.memory.index_bytes, plain.stats.memory.index_bytes);
  EXPECT_GT(tp.stats.memory.index_bytes, tiny.memory_budget_bytes);
}

TEST(RunShardedJoinTest, ShardedRunHonorsOrderHints) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/16);
  EngineOptions opts;
  opts.order = {2, 0, 1};
  opts.shards = 4;
  EngineResult sharded = RunJoin(q.query, EngineKind::kLeapfrog, opts);
  ASSERT_TRUE(sharded.ok) << sharded.error;
  EngineOptions plain_opts;
  plain_opts.order = {2, 0, 1};
  EngineResult plain = RunJoin(q.query, EngineKind::kLeapfrog, plain_opts);
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(sharded.tuples, plain.tuples);
}

}  // namespace
}  // namespace tetris
