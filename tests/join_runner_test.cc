#include "engine/join_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>

#include "index/dyadic_index.h"
#include "index/kdtree_index.h"
#include "index/multi_index.h"
#include "index/rtree_index.h"
#include "index/sorted_index.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace tetris {
namespace {

std::vector<Tuple> Sorted(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

const std::vector<JoinAlgorithm> kAllAlgos = {
    JoinAlgorithm::kTetrisPreloaded,
    JoinAlgorithm::kTetrisReloaded,
    JoinAlgorithm::kTetrisPreloadedNoCache,
    JoinAlgorithm::kTetrisPreloadedLB,
    JoinAlgorithm::kTetrisReloadedLB,
};

TEST(JoinRunner, TriangleSmall) {
  Relation r = Relation::Make("R", {"A", "B"}, {{0, 1}, {1, 2}, {2, 0}});
  Relation s = Relation::Make("S", {"B", "C"}, {{1, 2}, {2, 0}, {0, 1}});
  Relation t = Relation::Make("T", {"A", "C"}, {{0, 2}, {1, 0}, {2, 1}});
  JoinQuery q = JoinQuery::Build({&r, &s, &t});
  auto expected = Sorted(q.BruteForceJoin(q.MinDepth()));
  ASSERT_FALSE(expected.empty());
  for (JoinAlgorithm algo : kAllAlgos) {
    auto res = RunTetrisJoinDefaultIndexes(q, algo);
    EXPECT_EQ(Sorted(res.tuples), expected)
        << "algo=" << static_cast<int>(algo);
  }
}

TEST(JoinRunner, PathQueryTwoHops) {
  Relation r = Relation::Make("R", {"A", "B"}, {{0, 1}, {2, 3}, {5, 1}});
  Relation s = Relation::Make("S", {"B", "C"}, {{1, 4}, {3, 0}, {1, 7}});
  JoinQuery q = JoinQuery::Build({&r, &s});
  auto expected = Sorted(q.BruteForceJoin(q.MinDepth()));
  EXPECT_EQ(expected.size(), 5u);  // (0,1,4),(0,1,7),(5,1,4),(5,1,7),(2,3,0)
  for (JoinAlgorithm algo : kAllAlgos) {
    auto res = RunTetrisJoinDefaultIndexes(q, algo);
    EXPECT_EQ(Sorted(res.tuples), expected);
  }
}

TEST(JoinRunner, EmptyIntersectionIsEmpty) {
  Relation r = Relation::Make("R", {"A"}, {{0}, {1}});
  Relation s = Relation::Make("S", {"A"}, {{2}, {3}});
  JoinQuery q = JoinQuery::Build({&r, &s});
  for (JoinAlgorithm algo : kAllAlgos) {
    auto res = RunTetrisJoinDefaultIndexes(q, algo);
    EXPECT_TRUE(res.tuples.empty());
  }
}

TEST(JoinRunner, SingleRelationEnumeratesItself) {
  Relation r = Relation::Make("R", {"A", "B"}, {{1, 2}, {3, 4}, {0, 7}});
  JoinQuery q = JoinQuery::Build({&r});
  auto res = RunTetrisJoinDefaultIndexes(q, JoinAlgorithm::kTetrisReloaded);
  EXPECT_EQ(Sorted(res.tuples),
            Sorted({{1, 2}, {3, 4}, {0, 7}}));
}

TEST(JoinRunner, EmptyRelationShortCircuits) {
  Relation r = Relation::Make("R", {"A", "B"}, {{1, 2}});
  Relation e("E", {"B", "C"});
  JoinQuery q = JoinQuery::Build({&r, &e});
  auto res = RunTetrisJoinDefaultIndexes(q, JoinAlgorithm::kTetrisReloaded);
  EXPECT_TRUE(res.tuples.empty());
  // The empty relation's single universal gap box should satisfy the
  // whole query after loading O(1) boxes.
  EXPECT_LE(res.stats.boxes_loaded, 4);
}

TEST(JoinRunner, BowtieWithUnaryRelations) {
  // Q = R(A) ⋈ S(A,B) ⋈ T(B) — the paper's Appendix B bowtie.
  Relation r = Relation::Make("R", {"A"}, {{1}, {2}, {5}});
  Relation s = Relation::Make("S", {"A", "B"}, {{1, 3}, {2, 9}, {4, 4}});
  Relation t = Relation::Make("T", {"B"}, {{3}, {4}});
  JoinQuery q = JoinQuery::Build({&r, &s, &t});
  auto expected = Sorted(q.BruteForceJoin(q.MinDepth()));
  EXPECT_EQ(expected, (std::vector<Tuple>{{1, 3}}));
  for (JoinAlgorithm algo : kAllAlgos) {
    auto res = RunTetrisJoinDefaultIndexes(q, algo);
    EXPECT_EQ(Sorted(res.tuples), expected);
  }
}

TEST(JoinRunner, WorksWithDyadicTreeAndMultiIndexes) {
  Rng rng(5);
  std::vector<Tuple> rt, st;
  for (int i = 0; i < 30; ++i) {
    rt.push_back({rng.Below(8), rng.Below(8)});
    st.push_back({rng.Below(8), rng.Below(8)});
  }
  Relation r = Relation::Make("R", {"A", "B"}, rt);
  Relation s = Relation::Make("S", {"B", "C"}, st);
  JoinQuery q = JoinQuery::Build({&r, &s});
  const int d = 3;
  auto expected = Sorted(q.BruteForceJoin(d));

  // Dyadic-tree indexes.
  DyadicTreeIndex ri(r, d), si(s, d);
  auto res = RunTetrisJoin(q, {&ri, &si}, d, JoinAlgorithm::kTetrisReloaded);
  EXPECT_EQ(Sorted(res.tuples), expected);

  // Multi-index: both sort orders plus the dyadic tree.
  auto mk_multi = [&](const Relation& rel) {
    std::vector<std::unique_ptr<Index>> v;
    v.push_back(std::make_unique<SortedIndex>(rel, std::vector<int>{0, 1}, d));
    v.push_back(std::make_unique<SortedIndex>(rel, std::vector<int>{1, 0}, d));
    v.push_back(std::make_unique<DyadicTreeIndex>(rel, d));
    return std::make_unique<MultiIndex>(std::move(v));
  };
  auto rm = mk_multi(r);
  auto sm = mk_multi(s);
  auto res2 =
      RunTetrisJoin(q, {rm.get(), sm.get()}, d,
                    JoinAlgorithm::kTetrisReloaded);
  EXPECT_EQ(Sorted(res2.tuples), expected);
  auto res3 =
      RunTetrisJoin(q, {rm.get(), sm.get()}, d,
                    JoinAlgorithm::kTetrisPreloaded);
  EXPECT_EQ(Sorted(res3.tuples), expected);
}

TEST(JoinRunner, WorksWithKdTreeAndRTreeIndexes) {
  Rng rng(6);
  std::vector<Tuple> rt, st, tt;
  for (int i = 0; i < 40; ++i) {
    rt.push_back({rng.Below(16), rng.Below(16)});
    st.push_back({rng.Below(16), rng.Below(16)});
    tt.push_back({rng.Below(16), rng.Below(16)});
  }
  Relation r = Relation::Make("R", {"A", "B"}, rt);
  Relation s = Relation::Make("S", {"B", "C"}, st);
  Relation t = Relation::Make("T", {"A", "C"}, tt);
  JoinQuery q = JoinQuery::Build({&r, &s, &t});
  const int d = 4;
  auto expected = Sorted(q.BruteForceJoin(d));

  KdTreeIndex rk(r, d, 2), sk(s, d, 2), tk(t, d, 2);
  auto res_kd = RunTetrisJoin(q, {&rk, &sk, &tk}, d,
                              JoinAlgorithm::kTetrisReloaded);
  EXPECT_EQ(Sorted(res_kd.tuples), expected);

  RTreeIndex rr(r, d, 4), sr(s, d, 4), tr(t, d, 4);
  auto res_rt = RunTetrisJoin(q, {&rr, &sr, &tr}, d,
                              JoinAlgorithm::kTetrisReloaded);
  EXPECT_EQ(Sorted(res_rt.tuples), expected);

  // Mixed configuration: one index type per relation.
  SortedIndex rs(r, d);
  auto res_mix = RunTetrisJoin(q, {&rs, &sk, &tr}, d,
                               JoinAlgorithm::kTetrisPreloaded);
  EXPECT_EQ(Sorted(res_mix.tuples), expected);
}

// The one-pass skeleton settles the points of the space in SAO-
// lexicographic order, so under the identity SAO a raw run is already
// strictly increasing: the property CanonicalizeTuples's early return
// relies on.
TEST(JoinRunner, IdentitySaoOutputIsStrictlyIncreasing) {
  std::vector<QueryInstance> instances;
  for (uint64_t seed : {1, 2, 3}) {
    instances.push_back(RandomTriangle(300, 5, seed));
    instances.push_back(RandomPath(3, 200, 5, seed));
    instances.push_back(RandomCycle(4, 150, 4, seed));
  }
  size_t outputs = 0;
  for (const QueryInstance& inst : instances) {
    const JoinQuery& q = inst.query;
    std::vector<int> identity(q.num_attrs());
    std::iota(identity.begin(), identity.end(), 0);
    const auto owned = MakeSaoConsistentIndexes(q, identity, inst.depth);
    for (JoinAlgorithm algo : {JoinAlgorithm::kTetrisPreloaded,
                               JoinAlgorithm::kTetrisReloaded,
                               JoinAlgorithm::kTetrisPreloadedNoCache}) {
      const JoinRunResult r = RunTetrisJoin(q, IndexPtrs(owned), inst.depth,
                                            algo, identity);
      EXPECT_EQ(std::adjacent_find(r.tuples.begin(), r.tuples.end(),
                                   std::greater_equal<Tuple>()),
                r.tuples.end())
          << "algo=" << static_cast<int>(algo);
      EXPECT_EQ(r.stats.outputs, static_cast<int64_t>(r.tuples.size()));
      outputs += r.tuples.size();
    }
  }
  EXPECT_GT(outputs, 0u);
}

// Randomized integration sweep across query shapes, index types, and all
// engine variants.
struct JoinCase {
  int shape;  // 0 = path-2, 1 = triangle, 2 = star-3, 3 = 4-cycle
  int d;
  int tuples;
  uint64_t seed;
};

class JoinProperty : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinProperty, AllVariantsMatchBruteForce) {
  const auto [shape, d, n_tuples, seed] = GetParam();
  Rng rng(seed);
  auto random_rel = [&](std::string name, std::vector<std::string> attrs) {
    std::vector<Tuple> ts;
    for (int i = 0; i < n_tuples; ++i) {
      Tuple t(attrs.size());
      for (auto& v : t) v = rng.Below(uint64_t{1} << d);
      ts.push_back(std::move(t));
    }
    return Relation::Make(std::move(name), std::move(attrs), std::move(ts));
  };

  std::vector<Relation> rels;
  switch (shape) {
    case 0:
      rels.push_back(random_rel("R", {"A", "B"}));
      rels.push_back(random_rel("S", {"B", "C"}));
      break;
    case 1:
      rels.push_back(random_rel("R", {"A", "B"}));
      rels.push_back(random_rel("S", {"B", "C"}));
      rels.push_back(random_rel("T", {"A", "C"}));
      break;
    case 2:
      rels.push_back(random_rel("R", {"A", "B"}));
      rels.push_back(random_rel("S", {"A", "C"}));
      rels.push_back(random_rel("T", {"A", "D"}));
      break;
    default:
      rels.push_back(random_rel("R", {"A", "B"}));
      rels.push_back(random_rel("S", {"B", "C"}));
      rels.push_back(random_rel("T", {"C", "D"}));
      rels.push_back(random_rel("U", {"A", "D"}));
      break;
  }
  std::vector<const Relation*> ptrs;
  for (const auto& r : rels) ptrs.push_back(&r);
  JoinQuery q = JoinQuery::Build(ptrs);
  auto expected = Sorted(q.BruteForceJoin(d));

  for (JoinAlgorithm algo : kAllAlgos) {
    auto res = RunTetrisJoinDefaultIndexes(q, algo);
    ASSERT_EQ(Sorted(res.tuples), expected)
        << "shape=" << shape << " algo=" << static_cast<int>(algo);
    EXPECT_EQ(res.stats.outputs, static_cast<int64_t>(expected.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinProperty,
    ::testing::Values(JoinCase{0, 3, 12, 101}, JoinCase{0, 4, 40, 102},
                      JoinCase{1, 3, 15, 103}, JoinCase{1, 2, 6, 104},
                      JoinCase{2, 3, 10, 105}, JoinCase{3, 2, 8, 106},
                      JoinCase{3, 3, 20, 107}, JoinCase{1, 4, 60, 108}));

}  // namespace
}  // namespace tetris
