// Cross-query batching (engine/batch_runner.h): batch results must be
// tuple-identical to per-query RunJoin on every engine, deterministic
// across thread counts and query order, and the amortization stats must
// show the sharing (indexes built once per relation, plans once per
// signature, one calibration per batch).

#include "engine/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cost_model.h"
#include "engine/index_cache.h"
#include "engine/parallel_executor.h"
#include "workload/generators.h"

namespace tetris {
namespace {

// Per-query equivalence against the sequential facade: same ok flag,
// identical canonical tuples when ok.
void ExpectMatchesSequential(const BatchInstance& inst,
                             const BatchResult& batch, EngineKind kind) {
  ASSERT_TRUE(batch.ok) << batch.error;
  ASSERT_EQ(batch.results.size(), inst.queries.size());
  for (size_t i = 0; i < inst.queries.size(); ++i) {
    const EngineResult seq = RunJoin(inst.queries[i], kind);
    EXPECT_EQ(seq.ok, batch.results[i].ok)
        << EngineKindName(kind) << " query " << i << ": "
        << batch.results[i].error;
    if (seq.ok && batch.results[i].ok) {
      EXPECT_EQ(seq.tuples, batch.results[i].tuples)
          << EngineKindName(kind) << " query " << i;
    }
  }
}

TEST(BatchRunnerTest, MatchesSequentialAcrossAllEngines) {
  BatchInstance inst = MixedShapeBatch(/*count=*/6, /*tuples_per_rel=*/50,
                                       /*d=*/5, /*seed=*/3);
  for (EngineKind kind : AllEngineKinds()) {
    BatchResult batch = RunBatch(inst.pool, inst.queries, kind, {});
    ExpectMatchesSequential(inst, batch, kind);
  }
}

TEST(BatchRunnerTest, MatchesSequentialUnderShardingAndBudget) {
  BatchInstance inst = RepeatedTriangleBatch(/*count=*/4,
                                             /*tuples_per_rel=*/60,
                                             /*d=*/5, /*seed=*/9);
  for (EngineKind kind :
       {EngineKind::kTetrisPreloaded, EngineKind::kGenericJoin,
        EngineKind::kPairwiseHash}) {
    BatchOptions sharded;
    sharded.shards = 4;
    ExpectMatchesSequential(inst,
                            RunBatch(inst.pool, inst.queries, kind, sharded),
                            kind);
    BatchOptions budgeted;
    budgeted.memory_budget_bytes = 16 << 10;
    BatchResult b = RunBatch(inst.pool, inst.queries, kind, budgeted);
    ExpectMatchesSequential(inst, b, kind);
    // One plan, budgeted through the run's one calibrated model: every
    // query reports its estimate.
    EXPECT_EQ(b.stats.plans, 1u);
    for (const EngineResult& r : b.results) {
      EXPECT_GT(r.stats.estimated_max_shard_peak_bytes, 0u);
    }
  }
}

TEST(BatchRunnerTest, DeterministicAcrossThreadCounts) {
  BatchInstance inst = MixedShapeBatch(/*count=*/6, /*tuples_per_rel=*/60,
                                       /*d=*/5, /*seed=*/11);
  for (EngineKind kind :
       {EngineKind::kTetrisPreloaded, EngineKind::kLeapfrog,
        EngineKind::kPairwiseHash}) {
    BatchOptions seq_opts;
    seq_opts.threads = 1;
    BatchResult one = RunBatch(inst.pool, inst.queries, kind, seq_opts);
    BatchOptions auto_opts;
    auto_opts.threads = 0;  // the executor's full width
    BatchResult many = RunBatch(inst.pool, inst.queries, kind, auto_opts);
    ASSERT_TRUE(one.ok) << one.error;
    ASSERT_TRUE(many.ok) << many.error;
    ASSERT_EQ(one.results.size(), many.results.size());
    for (size_t i = 0; i < one.results.size(); ++i) {
      EXPECT_EQ(one.results[i].ok, many.results[i].ok);
      EXPECT_EQ(one.results[i].tuples, many.results[i].tuples)
          << EngineKindName(kind) << " query " << i;
    }
  }
}

TEST(BatchRunnerTest, ShuffledQueryOrderYieldsSameResults) {
  BatchInstance inst = MixedShapeBatch(/*count=*/6, /*tuples_per_rel=*/50,
                                       /*d=*/5, /*seed=*/13);
  // A fixed permutation of the batch; results must follow the queries.
  const std::vector<size_t> perm = {4, 0, 5, 2, 1, 3};
  std::vector<JoinQuery> shuffled;
  shuffled.reserve(perm.size());
  for (size_t p : perm) shuffled.push_back(inst.queries[p]);
  for (EngineKind kind :
       {EngineKind::kTetrisPreloaded, EngineKind::kGenericJoin,
        EngineKind::kYannakakis}) {
    BatchResult base = RunBatch(inst.pool, inst.queries, kind, {});
    BatchResult shuf = RunBatch(inst.pool, shuffled, kind, {});
    ASSERT_TRUE(base.ok) << base.error;
    ASSERT_TRUE(shuf.ok) << shuf.error;
    size_t base_total = 0, shuf_total = 0;
    for (size_t i = 0; i < perm.size(); ++i) {
      EXPECT_EQ(base.results[perm[i]].ok, shuf.results[i].ok);
      EXPECT_EQ(base.results[perm[i]].tuples, shuf.results[i].tuples)
          << EngineKindName(kind) << " shuffled slot " << i;
      if (base.results[perm[i]].ok) {
        base_total += base.results[perm[i]].tuples.size();
      }
      if (shuf.results[i].ok) shuf_total += shuf.results[i].tuples.size();
    }
    EXPECT_EQ(base_total, shuf_total);
  }
}

TEST(BatchRunnerTest, SharesIndexesAndPlansAcrossTheBatch) {
  BatchInstance rep = RepeatedTriangleBatch(/*count=*/6,
                                            /*tuples_per_rel=*/60,
                                            /*d=*/5, /*seed=*/17);
  BatchResult same = RunBatch(rep.pool, rep.queries, EngineKind::kTetrisPreloaded, {});
  ASSERT_TRUE(same.ok) << same.error;
  EXPECT_EQ(same.stats.queries, 6u);
  EXPECT_EQ(same.stats.relations, 3u);
  // One index build per relation — not per (query, atom) — and ONE plan
  // for six identical output-space signatures.
  EXPECT_EQ(same.stats.indexes_built, 3u);
  EXPECT_GT(same.stats.index_bytes, 0u);
  EXPECT_EQ(same.stats.plans, 1u);

  BatchInstance mixed = MixedShapeBatch(/*count=*/6, /*tuples_per_rel=*/60,
                                        /*d=*/5, /*seed=*/17);
  BatchResult shapes =
      RunBatch(mixed.pool, mixed.queries, EngineKind::kTetrisPreloaded, {});
  ASSERT_TRUE(shapes.ok) << shapes.error;
  // Three distinct shapes cycle through six queries: three signatures.
  // Base indexes follow each shape's default SAO: R⋈S⋈T runs under
  // (C,B,A), R⋈S under (B,C,A) and S⋈T under (C,A,B), so R needs (B,A)
  // and T needs (C,A) throughout, while S needs (C,B) for R⋈S⋈T and S⋈T
  // but (B,C) for R⋈S — four distinct layouts.
  EXPECT_EQ(shapes.stats.plans, 3u);
  EXPECT_EQ(shapes.stats.indexes_built, 4u);

  // Engines that scan relations directly build no shared indexes.
  BatchResult scan =
      RunBatch(rep.pool, rep.queries, EngineKind::kPairwiseHash, {});
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.stats.indexes_built, 0u);
  EXPECT_EQ(scan.stats.index_bytes, 0u);
}

TEST(BatchRunnerTest, UnsupportedQueriesFailPerQueryNotPerBatch) {
  // The mixed batch interleaves cyclic triangles (Yannakakis cannot)
  // with acyclic paths (it can): the batch runs, each triangle slot
  // carries its reason.
  BatchInstance inst = MixedShapeBatch(/*count=*/6, /*tuples_per_rel=*/40,
                                       /*d=*/5, /*seed=*/19);
  BatchResult batch =
      RunBatch(inst.pool, inst.queries, EngineKind::kYannakakis, {});
  ASSERT_TRUE(batch.ok) << batch.error;
  for (size_t i = 0; i < inst.queries.size(); ++i) {
    const bool acyclic = inst.queries[i].ToHypergraph().IsAlphaAcyclic();
    EXPECT_EQ(batch.results[i].ok, acyclic) << "query " << i;
    if (!acyclic) {
      EXPECT_NE(batch.results[i].error.find("does not support"),
                std::string::npos);
    }
  }
}

TEST(BatchRunnerTest, RejectsForeignRelationsAndBadDepth) {
  BatchInstance inst = RepeatedTriangleBatch(/*count=*/2,
                                             /*tuples_per_rel=*/30,
                                             /*d=*/5, /*seed=*/23);
  // A query over a relation outside the declared pool breaks the
  // sharing contract: batch-level error.
  Relation foreign = RandomRelation("F", {"A", "B"}, 20, 5, 29);
  std::vector<JoinQuery> with_foreign = inst.queries;
  with_foreign.push_back(JoinQuery::Build({&foreign}));
  BatchResult bad = RunBatch(inst.pool, with_foreign,
                             EngineKind::kTetrisPreloaded, {});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("relation pool"), std::string::npos);

  // An explicit depth below a query's MinDepth cannot represent the
  // data on one shared grid.
  BatchOptions shallow;
  shallow.depth = 1;
  BatchResult too_small =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded,
               shallow);
  EXPECT_FALSE(too_small.ok);
  EXPECT_NE(too_small.error.find("depth"), std::string::npos);

  // An empty pool infers the universe instead of failing.
  BatchResult inferred =
      RunBatch({}, inst.queries, EngineKind::kTetrisPreloaded, {});
  EXPECT_TRUE(inferred.ok) << inferred.error;
  EXPECT_EQ(inferred.stats.relations, 3u);
}

TEST(BatchRunnerTest, AttributedTimesNeverExceedTheBatchWall) {
  // Pre-fix regression: per-query wall_ms summed the wall clock of every
  // shard task, so tasks overlapping on a multi-worker pool attributed
  // more time than the batch actually spent (one query fanned out to 8
  // shards on 4 workers read as ~4x the batch wall). Attribution must
  // split the execution wall by task-time share instead: every query's
  // attributed time <= the batch wall, and so does their sum.
  BatchInstance inst = RepeatedTriangleBatch(/*count=*/2,
                                             /*tuples_per_rel=*/200,
                                             /*d=*/8, /*seed=*/41);
  WorkStealingPool pool(4);
  BatchOptions opts;
  opts.shards = 8;
  opts.executor = &pool;
  BatchResult batch =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(batch.ok) << batch.error;
  // Generous slack for timer noise; the pre-fix inflation was ~Nx the
  // wall, far beyond it.
  const double bound = 1.05 * batch.stats.wall_ms + 0.5;
  double sum = 0.0;
  for (const EngineResult& r : batch.results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_LE(r.stats.wall_ms, bound);
    sum += r.stats.wall_ms;
  }
  EXPECT_LE(batch.stats.sum_query_ms, bound);
  EXPECT_NEAR(batch.stats.sum_query_ms, sum, 1e-6);
  // cpu_ms is the RAW task occupancy — the quantity the old code leaked
  // into per-query walls — and still exists for parallelism readings.
  EXPECT_GT(batch.stats.cpu_ms, 0.0);
  EXPECT_GE(batch.stats.tasks, 2u);
}

TEST(BatchRunnerTest, SharedIndexCachePersistsAcrossCalls) {
  BatchInstance inst = RepeatedTriangleBatch(/*count=*/2,
                                             /*tuples_per_rel=*/60,
                                             /*d=*/5, /*seed=*/43);
  IndexCache cache;
  BatchOptions opts;
  opts.index_cache = &cache;
  BatchResult first =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.stats.indexes_built, 3u);
  EXPECT_EQ(cache.entries(), 3u);

  // The second call draws every base index from the warm cache: zero
  // builds, hits instead, identical tuples.
  BatchResult second =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.stats.indexes_built, 0u);
  // Every (query, atom) request of the second call is a hit.
  EXPECT_EQ(second.stats.index_cache_hits, 6u);
  EXPECT_GT(second.stats.index_bytes, 0u);
  ASSERT_EQ(second.results.size(), first.results.size());
  for (size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].tuples, second.results[i].tuples);
  }
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(BatchRunnerTest, PerQueryOrderHintsMatchSequentialRunJoin) {
  BatchInstance inst = RepeatedTriangleBatch(/*count=*/2,
                                             /*tuples_per_rel=*/50,
                                             /*d=*/5, /*seed=*/47);
  BatchOptions opts;
  opts.orders = {{2, 0, 1}, {}};  // one hinted query, one default
  BatchResult batch =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded, opts);
  ASSERT_TRUE(batch.ok) << batch.error;
  EngineOptions hinted;
  hinted.order = {2, 0, 1};
  const EngineResult seq0 =
      RunJoin(inst.queries[0], EngineKind::kTetrisPreloaded, hinted);
  const EngineResult seq1 =
      RunJoin(inst.queries[1], EngineKind::kTetrisPreloaded);
  ASSERT_TRUE(batch.results[0].ok) << batch.results[0].error;
  ASSERT_TRUE(batch.results[1].ok) << batch.results[1].error;
  EXPECT_EQ(batch.results[0].tuples, seq0.tuples);
  EXPECT_EQ(batch.results[1].tuples, seq1.tuples);
}

TEST(BatchRunnerTest, OrderHintValidationMirrorsRunJoin) {
  BatchInstance inst = RepeatedTriangleBatch(/*count=*/2,
                                             /*tuples_per_rel=*/30,
                                             /*d=*/5, /*seed=*/53);
  // Wrong arity at the batch level: one entry per query or none.
  BatchOptions mismatched;
  mismatched.orders = {{0, 1, 2}};
  BatchResult bad =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded,
               mismatched);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("orders"), std::string::npos) << bad.error;

  // A non-permutation hint fails ITS query, not the batch.
  BatchOptions bad_hint;
  bad_hint.orders = {{0, 0, 1}, {}};
  BatchResult partial =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded,
               bad_hint);
  ASSERT_TRUE(partial.ok) << partial.error;
  EXPECT_FALSE(partial.results[0].ok);
  EXPECT_NE(partial.results[0].error.find("permutation"), std::string::npos)
      << partial.results[0].error;
  EXPECT_TRUE(partial.results[1].ok) << partial.results[1].error;

  // Balance-lifted variants choose their own SAO: any hint is an error,
  // exactly like RunJoin's contract.
  BatchOptions lb_hint;
  lb_hint.orders = {{0, 1, 2}, {}};
  BatchResult lb =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloadedLB,
               lb_hint);
  ASSERT_TRUE(lb.ok) << lb.error;
  EXPECT_FALSE(lb.results[0].ok);
  EXPECT_NE(lb.results[0].error.find("SAO"), std::string::npos)
      << lb.results[0].error;
  EXPECT_TRUE(lb.results[1].ok) << lb.results[1].error;
}

TEST(BatchRunnerTest, ExpiredDeadlineFailsQueriesNotTheBatch) {
  BatchInstance inst = RepeatedTriangleBatch(/*count=*/3,
                                             /*tuples_per_rel=*/40,
                                             /*d=*/5, /*seed=*/59);
  BatchOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  BatchResult batch =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded,
               expired);
  ASSERT_TRUE(batch.ok) << batch.error;  // structural ok; per-query fail
  ASSERT_EQ(batch.results.size(), 3u);
  for (const EngineResult& r : batch.results) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("deadline exceeded"), std::string::npos)
        << r.error;
  }

  // A generous deadline changes nothing.
  BatchOptions generous;
  generous.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  BatchResult fine =
      RunBatch(inst.pool, inst.queries, EngineKind::kTetrisPreloaded,
               generous);
  ASSERT_TRUE(fine.ok) << fine.error;
  for (size_t i = 0; i < fine.results.size(); ++i) {
    ASSERT_TRUE(fine.results[i].ok) << fine.results[i].error;
    EXPECT_EQ(fine.results[i].tuples,
              RunJoin(inst.queries[i], EngineKind::kTetrisPreloaded).tuples);
  }
}

TEST(BatchRunnerTest, EmptyBatchIsTriviallyOk) {
  BatchResult batch = RunBatch({}, {}, EngineKind::kTetrisPreloaded, {});
  EXPECT_TRUE(batch.ok);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.stats.queries, 0u);
}

TEST(BatchRunnerTest, SpecParsingRejectsUnknownRelations) {
  BatchInstance inst;
  std::string error;
  EXPECT_TRUE(SharedRelationBatch({"R,S,T", "R,S"}, 20, 5, 31, &inst,
                                  &error))
      << error;
  EXPECT_EQ(inst.queries.size(), 2u);
  EXPECT_EQ(inst.pool.size(), 3u);
  EXPECT_FALSE(SharedRelationBatch({"R,Q"}, 20, 5, 31, &inst, &error));
  EXPECT_NE(error.find("unknown relation"), std::string::npos);
  EXPECT_TRUE(inst.queries.empty());
}

}  // namespace
}  // namespace tetris
