// The dyadic-prefix shard planner: shard boxes must partition the output
// space, restricted relations must exactly cover the originals, and the
// adaptive split must respect (or honestly report) the memory budget —
// including the edge cases that could hang or lie: shard counts beyond
// the domain, budgets below a single tuple, and empty shards.
#include "engine/shard_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/cost_model.h"
#include "index/sorted_index.h"
#include "workload/generators.h"

namespace tetris {
namespace {

// Sums, per atom, the restricted tuple multisets across all shards and
// compares with the original relation: every tuple must land in at least
// one shard, and tuples fully constrained by the shard boxes land in
// exactly one. Exercises the lazy path: shards own no tuples until
// MaterializeShard copies them, each copy holds exactly the rows the plan
// counted for it, and each row lies in the shard's box.
void ExpectShardsCoverAtoms(const QueryInstance& q, const ShardPlan& plan) {
  const ShardRowGroups groups = GroupShardRows(q.query, plan);
  for (size_t a = 0; a < q.query.atoms().size(); ++a) {
    const Atom& atom = q.query.atoms()[a];
    std::set<Tuple> seen;
    for (const Shard& shard : plan.shards) {
      // Odd shards copy from the prebuilt groups, even ones group anew.
      MaterializedShard ms = MaterializeShard(q.query, plan, shard.id,
                                              shard.id % 2 ? &groups : nullptr);
      EXPECT_EQ(ms.query.atoms()[a].rel->size(), plan.RowCount(shard.id, a))
          << "atom " << a << ", shard " << shard.id;
      DyadicBox abox =
          DyadicBox::Universal(static_cast<int>(atom.var_ids.size()));
      for (size_t c = 0; c < atom.var_ids.size(); ++c) {
        abox[static_cast<int>(c)] = shard.box[atom.var_ids[c]];
      }
      for (TupleRef t : ms.query.atoms()[a].rel->rows()) {
        EXPECT_TRUE(abox.ContainsPoint(t.data(), plan.depth))
            << "atom " << a << ", shard " << shard.id;
        seen.insert(t.ToTuple());
      }
    }
    const Relation& original = *q.query.atoms()[a].rel;
    EXPECT_EQ(seen.size(), original.size());
    for (TupleRef t : original.rows()) EXPECT_TRUE(seen.count(t.ToTuple()));
  }
}

TEST(ShardPlannerTest, DefaultPlanIsOneUniversalShard) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/1);
  ShardPlan plan = PlanShards(q.query, {});
  EXPECT_EQ(plan.split_bits, 0);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].box, DyadicBox::Universal(q.query.num_attrs()));
  EXPECT_TRUE(plan.budget_ok);
  MaterializedShard ms = MaterializeShard(q.query, plan, 0);
  for (size_t a = 0; a < q.query.atoms().size(); ++a) {
    EXPECT_EQ(ms.query.atoms()[a].rel->raw(),
              q.query.atoms()[a].rel->raw());
  }
}

TEST(ShardPlannerTest, ExplicitShardsAreDisjointAndCoverTheData) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/2);
  ShardPlanOptions opts;
  opts.shards = 4;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_EQ(plan.split_bits, 2);
  ASSERT_EQ(plan.shards.size(), 4u);
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    EXPECT_EQ(plan.shards[i].id, static_cast<int>(i));
    for (size_t j = i + 1; j < plan.shards.size(); ++j) {
      EXPECT_FALSE(plan.shards[i].box.Intersects(plan.shards[j].box))
          << "shards " << i << " and " << j << " overlap";
    }
  }
  ExpectShardsCoverAtoms(q, plan);
}

TEST(ShardPlannerTest, ShardCountRoundsUpToAPowerOfTwo) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/20, /*d=*/4,
                                   /*seed=*/3);
  ShardPlanOptions opts;
  opts.shards = 3;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_EQ(plan.shards.size(), 4u);
}

TEST(ShardPlannerTest, ShardCountBeyondTheDomainClamps) {
  // d = 1 over three attributes: the whole domain has 3 prefix bits, so
  // at most 8 shards exist no matter what the caller asks for.
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/4, /*d=*/1,
                                   /*seed=*/4);
  ASSERT_EQ(q.depth, 1);
  ShardPlanOptions opts;
  opts.shards = 64;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_EQ(plan.shards.size(), 8u);
  EXPECT_EQ(plan.split_bits, 3);
  ExpectShardsCoverAtoms(q, plan);
}

TEST(ShardPlannerTest, BudgetGrowsTheSplitUntilShardsFit) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/5,
                                   /*seed=*/5);
  // Unsharded estimate first, then demand roughly a quarter of it.
  ShardPlan coarse = PlanShards(q.query, {});
  ASSERT_GT(coarse.max_estimated_peak_bytes, 0u);
  ShardPlanOptions opts;
  opts.shards = -1;
  opts.memory_budget_bytes = coarse.max_estimated_peak_bytes / 4;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_TRUE(plan.budget_ok) << plan.max_estimated_peak_bytes;
  EXPECT_GE(plan.split_bits, 1);
  for (const Shard& shard : plan.shards) {
    EXPECT_LE(shard.estimated_peak_bytes, opts.memory_budget_bytes);
  }
  ExpectShardsCoverAtoms(q, plan);
}

TEST(ShardPlannerTest, ImpossibleBudgetReportsInsteadOfHanging) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/6);
  ShardPlanOptions opts;
  opts.shards = -1;
  opts.memory_budget_bytes = 1;  // below a single tuple's payload
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_FALSE(plan.budget_ok);
  EXPECT_GT(plan.max_estimated_peak_bytes, opts.memory_budget_bytes);
  // The plan still exists and still covers the data.
  EXPECT_FALSE(plan.shards.empty());
  ExpectShardsCoverAtoms(q, plan);
}

TEST(ShardPlannerTest, AutoModePlansOneShardPerThread) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/7);
  ShardPlanOptions opts;
  opts.shards = -1;
  opts.threads_hint = 4;
  ShardPlan plan = PlanShards(q.query, opts);
  EXPECT_EQ(plan.shards.size(), 4u);
}

TEST(ShardPlannerTest, ShardsWithNoDataAreFlaggedEmpty) {
  // All values below 2^(d-1): every shard whose first split bit is 1 on
  // any dimension restricts some atom to the empty relation.
  Relation r = Relation::Make("R", {"A", "B"},
                              {{0, 1}, {1, 2}, {2, 3}});
  Relation s = Relation::Make("S", {"B", "C"},
                              {{1, 0}, {2, 1}, {3, 2}});
  JoinQuery q = JoinQuery::Build({&r, &s});
  ShardPlanOptions opts;
  opts.shards = 8;
  opts.depth = 3;  // values < 4 = 2^(depth-1): top halves are empty
  ShardPlan plan = PlanShards(q, opts);
  ASSERT_EQ(plan.shards.size(), 8u);
  size_t empty = 0;
  for (const Shard& shard : plan.shards) {
    if (shard.empty) ++empty;
  }
  EXPECT_GT(empty, 0u);
  // Shard 0 (all-zero prefixes) keeps data.
  EXPECT_FALSE(plan.shards[0].empty);
}

TEST(ShardPlannerTest, EstimateBoundsSortedIndexFootprint) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/25, /*d=*/4,
                                   /*seed=*/8);
  const Atom& atom = q.query.atoms()[0];
  SortedIndex index(*atom.rel, q.depth);
  // The estimate is the shard's row-payload proxy (rows·arity·8); the
  // permutation-view index costs rows·4 plus an 8-byte fence slot per 16
  // rows on top of the shared buffer, so the estimate strictly
  // upper-bounds index residency at arity >= 1.
  const size_t rows = atom.rel->size();
  EXPECT_EQ(index.MemoryBytes(),
            rows * sizeof(uint32_t) + (rows + 15) / 16 * sizeof(uint64_t));
  EXPECT_GT(EstimateAtomBytes(atom.rel->size(),
                              static_cast<int>(atom.var_ids.size())),
            index.MemoryBytes());
}

TEST(ShardPlannerTest, RestrictedQueriesKeepAttributeIds) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/9);
  ShardPlanOptions opts;
  opts.shards = 2;
  ShardPlan plan = PlanShards(q.query, opts);
  for (const Shard& shard : plan.shards) {
    MaterializedShard ms = MaterializeShard(q.query, plan, shard.id);
    ASSERT_EQ(ms.query.attrs(), q.query.attrs());
    for (size_t a = 0; a < q.query.atoms().size(); ++a) {
      EXPECT_EQ(ms.query.atoms()[a].var_ids,
                q.query.atoms()[a].var_ids);
    }
  }
}

TEST(ShardPlannerTest, CostModelScalesTheEstimatesAndTheSplit) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/5,
                                   /*seed=*/21);
  ShardPlan proxy = PlanShards(q.query, {});
  ASSERT_GT(proxy.max_estimated_peak_bytes, 0u);

  // A slope-4 model quadruples every estimate...
  ShardCostModel model;
  model.family = EngineFamily::kTetris;
  model.bytes_per_payload_byte = 4.0;
  model.calibrated = true;
  ShardPlanOptions opts;
  opts.cost_model = &model;
  ShardPlan scaled = PlanShards(q.query, opts);
  EXPECT_EQ(scaled.max_estimated_peak_bytes,
            model.EstimatePeak(proxy.shards[0].payload_bytes));
  EXPECT_GE(scaled.max_estimated_peak_bytes,
            4 * proxy.max_estimated_peak_bytes);

  // ...so under the same budget the calibrated planner splits finer
  // than the payload proxy: it anticipates the engine-internal growth.
  ShardPlanOptions budget;
  budget.shards = -1;
  budget.memory_budget_bytes = proxy.max_estimated_peak_bytes / 2;
  ShardPlan coarse = PlanShards(q.query, budget);
  budget.cost_model = &model;
  ShardPlan fine = PlanShards(q.query, budget);
  EXPECT_GT(fine.split_bits, coarse.split_bits);
}

TEST(CostModelTest, AffineFitInterpolatesAndAnchorsBothPoints) {
  // Materializing family (pairwise-hash): the dominant metric is the
  // largest intermediate. Two probe points with slope 2 and a genuine
  // offset of 200.
  RunStats a;
  a.memory.intermediate_bytes = 400;
  RunStats b;
  b.memory.intermediate_bytes = 600;
  ShardCostModel m = FitShardCostModelAffine(EngineKind::kPairwiseHash,
                                             100, a, 200, b);
  EXPECT_TRUE(m.calibrated);
  EXPECT_DOUBLE_EQ(m.bytes_per_payload_byte, 2.0);
  EXPECT_DOUBLE_EQ(m.intercept_bytes, 200.0);
  EXPECT_EQ(m.EstimatePeak(100), 400u);
  EXPECT_EQ(m.EstimatePeak(200), 600u);
  EXPECT_EQ(m.EstimatePeak(300), 800u);
}

TEST(CostModelTest, AffineFitStopsUnderestimatingSuperlinearGrowth) {
  // Metric quadruples when payload doubles — superlinear intermediates.
  // The one-point through-the-origin slope from the large probe alone
  // underestimates bigger shards; the secant does not.
  RunStats small;
  small.memory.intermediate_bytes = 100;
  RunStats large;
  large.memory.intermediate_bytes = 400;
  ShardCostModel affine = FitShardCostModelAffine(
      EngineKind::kPairwiseHash, 100, small, 200, large);
  ShardCostModel one_point =
      FitShardCostModel(EngineKind::kPairwiseHash, 200, large);
  // Secant slope 3 > through-origin slope 2: full-size shards (payload
  // 400) get a strictly larger — safer — estimate.
  EXPECT_GT(affine.EstimatePeak(400), one_point.EstimatePeak(400));
  // Neither probe point is underestimated.
  EXPECT_GE(affine.EstimatePeak(100), 100u);
  EXPECT_GE(affine.EstimatePeak(200), 400u);
}

TEST(CostModelTest, AffineFitDegradesToOnePointAndProxy) {
  RunStats s;
  s.memory.output_bytes = 512;
  // Coinciding payloads: no secant — same fit as the one-point model on
  // the (larger) probe.
  ShardCostModel coincide =
      FitShardCostModelAffine(EngineKind::kLeapfrog, 128, s, 128, s);
  ShardCostModel single = FitShardCostModel(EngineKind::kLeapfrog, 128, s);
  EXPECT_DOUBLE_EQ(coincide.bytes_per_payload_byte,
                   single.bytes_per_payload_byte);
  EXPECT_DOUBLE_EQ(coincide.intercept_bytes, single.intercept_bytes);
  EXPECT_EQ(coincide.floor_bytes, single.floor_bytes);
  // No signal at all: the uncalibrated payload proxy.
  ShardCostModel proxy =
      FitShardCostModelAffine(EngineKind::kLeapfrog, 0, s, 0, s);
  EXPECT_FALSE(proxy.calibrated);
  EXPECT_DOUBLE_EQ(proxy.bytes_per_payload_byte, 1.0);
}

TEST(CostModelTest, NoisyDecreasingPairKeepsAPositiveSlope) {
  // A smaller metric at the larger payload (noise) must not fit a
  // negative slope; the floor keeps estimates monotone and safe.
  RunStats a;
  a.memory.intermediate_bytes = 500;
  RunStats b;
  b.memory.intermediate_bytes = 300;
  ShardCostModel m = FitShardCostModelAffine(EngineKind::kPairwiseHash,
                                             100, a, 200, b);
  EXPECT_GE(m.bytes_per_payload_byte, 1.0);
  // Both probe points stay covered.
  EXPECT_GE(m.EstimatePeak(100), 500u);
  EXPECT_GE(m.EstimatePeak(200), 300u);
}

TEST(ShardPlannerTest, PlanningBytesStayFlatAsTheSplitGrows) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/80, /*d=*/5,
                                   /*seed=*/22);
  ShardPlanOptions one;
  one.shards = 1;
  const size_t base = PlanShards(q.query, one).PlanningBytes();
  ShardPlanOptions many;
  many.shards = 64;
  const size_t fine = PlanShards(q.query, many).PlanningBytes();
  // The old materializing planner copied every atom into its shards, so
  // its residency scaled with the split; bucket row lists stay within a
  // small constant (the per-shard Shard structs) of the single-shard
  // plan no matter how fine the split.
  EXPECT_LT(fine, 2 * base + 64 * sizeof(Shard) + 1024);
}

// A row whose repeated attribute's columns disagree on a pinned bit
// joins nothing, so no shard holds it.
TEST(ShardPlannerTest, ShardsDropRowsARepeatedAttributeCannotJoin) {
  const Relation r = Relation::Make("R", {"A", "A"},
                                    {{0, 0}, {1, 2}, {2, 2}, {3, 0}, {3, 3}});
  const Relation s = Relation::Make("S", {"A", "B"},
                                    {{0, 1}, {2, 3}, {3, 0}});
  const JoinQuery query = JoinQuery::Build({&r, &s});
  ShardPlanOptions opts;
  opts.shards = 4;
  const ShardPlan plan = PlanShards(query, opts);
  ASSERT_EQ(plan.depth, 2);
  ASSERT_EQ(plan.split_dims, (std::vector<int>{0, 1}));  // A, then B
  // R is split on A's top bit only: (1, 2) and (3, 0) disagree there.
  const std::vector<std::vector<Tuple>> want = {
      {{0, 0}}, {{0, 0}}, {{2, 2}, {3, 3}}, {{2, 2}, {3, 3}}};
  const ShardRowGroups groups = GroupShardRows(query, plan);
  EXPECT_EQ(groups.ids[0].size(), 3u);
  for (const Shard& shard : plan.shards) {
    EXPECT_EQ(MaterializeShard(query, plan, shard.id, &groups)
                  .query.atoms()[0]
                  .rel->ToTuples(),
              want[static_cast<size_t>(shard.id)]);
    EXPECT_EQ(plan.RowCount(shard.id, 0),
              want[static_cast<size_t>(shard.id)].size());
  }
}

// A one-shard plan splits nothing, so it reads no row and keeps no row
// id: it costs the same for ten rows as for ten thousand, and still
// counts every row.
TEST(ShardPlannerTest, OneShardPlanCostsTheSameForAnyRowCount) {
  QueryInstance small = RandomTriangle(/*tuples_per_rel=*/10, /*d=*/8,
                                       /*seed=*/23);
  QueryInstance large = RandomTriangle(/*tuples_per_rel=*/10000, /*d=*/8,
                                       /*seed=*/23);
  ShardPlanOptions one;
  one.shards = 1;
  const ShardPlan small_plan = PlanShards(small.query, one);
  const ShardPlan large_plan = PlanShards(large.query, one);
  ASSERT_EQ(large_plan.shards.size(), 1u);
  EXPECT_EQ(large_plan.PlanningBytes(), small_plan.PlanningBytes());
  for (size_t a = 0; a < large.query.atoms().size(); ++a) {
    EXPECT_EQ(large_plan.RowCount(0, a), large.query.atoms()[a].rel->size());
  }
}

}  // namespace
}  // namespace tetris
