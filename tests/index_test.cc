#include "index/index.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "box_collect.h"
#include "index/dyadic_index.h"
#include "index/index_view.h"
#include "index/kdtree_index.h"
#include "index/multi_index.h"
#include "index/rtree_index.h"
#include "index/sorted_index.h"
#include "util/rng.h"

namespace tetris {
namespace {

// The paper's Figure 1 / Figure 3 relation:
// R(A,B) = {3}x{1,3,5,7} ∪ {1,3,5,7}x{3} over d = 3 (values 0..7).
Relation PaperCrossRelation() {
  std::vector<Tuple> ts;
  for (uint64_t v : {1, 3, 5, 7}) {
    ts.push_back({3, v});
    ts.push_back({v, 3});
  }
  return Relation::Make("R", {"A", "B"}, std::move(ts));
}

// Exhaustively checks that the union of `gaps` equals the complement of
// `rel` in the full k-dimensional grid.
void ExpectGapsAreExactComplement(const Relation& rel,
                                  const std::vector<DyadicBox>& gaps, int d) {
  const int k = rel.arity();
  const uint64_t dom = uint64_t{1} << d;
  Tuple t(k, 0);
  for (;;) {
    bool covered = false;
    for (const auto& g : gaps) {
      if (g.ContainsPoint(t, d)) {
        covered = true;
        break;
      }
    }
    EXPECT_EQ(covered, !rel.Contains(t)) << "at tuple " << t[0];
    int i = k - 1;
    while (i >= 0 && ++t[i] == dom) t[i--] = 0;
    if (i < 0) break;
  }
}

TEST(SortedIndex, PaperFigure1GapsAreExact) {
  Relation r = PaperCrossRelation();
  SortedIndex ix(r, {0, 1}, 3);  // (A,B) order
  std::vector<DyadicBox> gaps;
  ix.AllGaps(AppendTo(&gaps));
  ExpectGapsAreExactComplement(r, gaps, 3);
}

TEST(SortedIndex, ReverseOrderGapsAreExactToo) {
  Relation r = PaperCrossRelation();
  SortedIndex ix(r, {1, 0}, 3);  // (B,A) order, Figure 3a
  std::vector<DyadicBox> gaps;
  ix.AllGaps(AppendTo(&gaps));
  ExpectGapsAreExactComplement(r, gaps, 3);
}

TEST(SortedIndex, ProbePresentTupleYieldsNoGap) {
  Relation r = PaperCrossRelation();
  SortedIndex ix(r, 3);
  std::vector<DyadicBox> gaps;
  ix.GapsContaining(Tuple{3, 5}.data(), AppendTo(&gaps));
  EXPECT_TRUE(gaps.empty());
}

TEST(SortedIndex, ProbeMissingTupleYieldsContainingGap) {
  Relation r = PaperCrossRelation();
  SortedIndex ix(r, 3);
  std::vector<DyadicBox> gaps;
  // A=2 is between keys 1 and 3.
  ix.GapsContaining(Tuple{2, 6}.data(), AppendTo(&gaps));
  ASSERT_FALSE(gaps.empty());
  bool contains_probe = false;
  for (const auto& g : gaps) {
    if (g.ContainsPoint({2, 6}, 3)) contains_probe = true;
    // No gap may cover a real tuple.
    for (TupleRef t : r.rows()) {
      EXPECT_FALSE(g.ContainsPoint(t.data(), 3)) << g.ToString();
    }
  }
  EXPECT_TRUE(contains_probe);
}

TEST(SortedIndex, SecondLevelBandGap) {
  Relation r = PaperCrossRelation();
  SortedIndex ix(r, 3);
  std::vector<DyadicBox> gaps;
  // A=3 exists; B=4 is between keys 3 and 5 at the second level.
  ix.GapsContaining(Tuple{3, 4}.data(), AppendTo(&gaps));
  ASSERT_EQ(gaps.size(), 1u);  // band [4,4] is a single dyadic interval
  EXPECT_EQ(gaps[0][0], DyadicInterval::Unit(3, 3));
  EXPECT_EQ(gaps[0][1], DyadicInterval::Unit(4, 3));
}

TEST(SortedIndex, EmptyRelationHasUniversalGap) {
  Relation r("E", {"A", "B"});
  SortedIndex ix(r, 3);
  std::vector<DyadicBox> gaps;
  ix.AllGaps(AppendTo(&gaps));
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], DyadicBox::Universal(2));
  gaps.clear();
  ix.GapsContaining(Tuple{0, 0}.data(), AppendTo(&gaps));
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], DyadicBox::Universal(2));
}

TEST(DyadicTreeIndex, PaperFigure3bGapsAreExact) {
  Relation r = PaperCrossRelation();
  DyadicTreeIndex ix(r, 3);
  std::vector<DyadicBox> gaps;
  ix.AllGaps(AppendTo(&gaps));
  ExpectGapsAreExactComplement(r, gaps, 3);
}

TEST(DyadicTreeIndex, BeatsBtreeOnMsbComplementRelation) {
  // Paper §3.4 / Figure 5, footnote 9: for R = {(a,b) : msb(a) != msb(b)}
  // the quad-tree stores the two gap quadrants <0,0> and <1,1> directly,
  // while a B-tree needs ~2^(d-1) band gaps per quadrant.
  const int d = 5;
  const uint64_t half = uint64_t{1} << (d - 1);
  std::vector<Tuple> ts;
  for (uint64_t a = 0; a < (uint64_t{1} << d); ++a) {
    for (uint64_t b = 0; b < (uint64_t{1} << d); ++b) {
      if ((a >> (d - 1)) != (b >> (d - 1))) ts.push_back({a, b});
    }
  }
  Relation r = Relation::Make("R", {"A", "B"}, std::move(ts));
  DyadicTreeIndex qt(r, d);
  std::vector<DyadicBox> qt_gaps;
  qt.AllGaps(AppendTo(&qt_gaps));
  ASSERT_EQ(qt_gaps.size(), 2u);
  ExpectGapsAreExactComplement(r, qt_gaps, d);
  SortedIndex bt(r, d);
  std::vector<DyadicBox> bt_gaps;
  bt.AllGaps(AppendTo(&bt_gaps));
  ExpectGapsAreExactComplement(r, bt_gaps, d);
  EXPECT_GE(bt_gaps.size(), half);  // one band per a-value at least
}

TEST(DyadicTreeIndex, ProbeReturnsMaximalEmptyCell) {
  Relation r = PaperCrossRelation();
  DyadicTreeIndex ix(r, 3);
  std::vector<DyadicBox> gaps;
  ix.GapsContaining(Tuple{0, 0}.data(), AppendTo(&gaps));
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_TRUE(gaps[0].ContainsPoint({0, 0}, 3));
  // Maximality: the parent cell (one level up) must be occupied.
  EXPECT_GT(gaps[0][0].len, 0);
  for (TupleRef t : r.rows()) {
    EXPECT_FALSE(gaps[0].ContainsPoint(t.data(), 3));
  }
}

TEST(DyadicTreeIndex, ProbeFindsNoGapIffPresent) {
  Relation r = PaperCrossRelation();
  DyadicTreeIndex ix(r, 3);
  for (uint64_t a = 0; a < 8; ++a) {
    for (uint64_t b = 0; b < 8; ++b) {
      EXPECT_EQ(ProbeFindsNoGap(ix, {a, b}), r.Contains({a, b}));
    }
  }
}

TEST(KdTreeIndex, GapsAreExactOnPaperRelation) {
  Relation r = PaperCrossRelation();
  for (size_t cap : {1u, 4u, 16u}) {
    KdTreeIndex ix(r, 3, cap);
    std::vector<DyadicBox> gaps;
    ix.AllGaps(AppendTo(&gaps));
    ExpectGapsAreExactComplement(r, gaps, 3);
  }
}

TEST(KdTreeIndex, ProbeReturnsContainingGap) {
  Relation r = PaperCrossRelation();
  KdTreeIndex ix(r, 3, 2);
  for (uint64_t a = 0; a < 8; ++a) {
    for (uint64_t b = 0; b < 8; ++b) {
      std::vector<DyadicBox> gaps;
      ix.GapsContaining(Tuple{a, b}.data(), AppendTo(&gaps));
      EXPECT_EQ(gaps.empty(), r.Contains({a, b}));
      for (const auto& g : gaps) {
        EXPECT_TRUE(g.ContainsPoint({a, b}, 3));
        for (TupleRef t : r.rows()) {
          EXPECT_FALSE(g.ContainsPoint(t.data(), 3));
        }
      }
    }
  }
}

TEST(KdTreeIndex, EmptyRelationIsOneGap) {
  Relation e("E", {"A", "B", "C"});
  KdTreeIndex ix(e, 4);
  std::vector<DyadicBox> gaps;
  ix.AllGaps(AppendTo(&gaps));
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], DyadicBox::Universal(3));
  gaps.clear();
  ix.GapsContaining(Tuple{0, 0, 0}.data(), AppendTo(&gaps));
  EXPECT_EQ(gaps, std::vector<DyadicBox>{DyadicBox::Universal(3)});
}

TEST(KdTreeIndex, LargerLeavesGiveFewerNodes) {
  Rng rng(3);
  std::vector<Tuple> ts;
  for (int i = 0; i < 200; ++i) ts.push_back({rng.Below(64), rng.Below(64)});
  Relation r = Relation::Make("R", {"A", "B"}, std::move(ts));
  KdTreeIndex fine(r, 6, 1), coarse(r, 6, 16);
  EXPECT_GT(fine.node_count(), coarse.node_count());
}

TEST(RTreeIndex, GapsExactOnPaperRelation) {
  Relation r = PaperCrossRelation();
  for (size_t cap : {1u, 3u, 8u}) {
    RTreeIndex ix(r, 3, cap);
    std::vector<DyadicBox> gaps;
    ix.AllGaps(AppendTo(&gaps));
    ExpectGapsAreExactComplement(r, gaps, 3);
  }
}

TEST(RTreeIndex, ClusteredDataGivesFewCoarseGaps) {
  // Two dense clusters in opposite corners of a d=8 square: the space
  // between the MBRs is a handful of coarse gaps, far fewer than the
  // per-tuple bands of a B-tree.
  std::vector<Tuple> ts;
  for (uint64_t a = 0; a < 16; ++a) {
    for (uint64_t b = 0; b < 16; ++b) {
      ts.push_back({a, b});
      ts.push_back({240 + a, 240 + b});
    }
  }
  Relation r = Relation::Make("R", {"A", "B"}, std::move(ts));
  RTreeIndex rt(r, 8, 256);
  std::vector<DyadicBox> rt_gaps;
  rt.AllGaps(AppendTo(&rt_gaps));
  ExpectGapsAreExactComplement(r, rt_gaps, 8);
  SortedIndex bt(r, 8);
  std::vector<DyadicBox> bt_gaps;
  bt.AllGaps(AppendTo(&bt_gaps));
  EXPECT_LT(rt_gaps.size(), bt_gaps.size());
}

TEST(RTreeIndex, ProbeFindsSingleContainingGap) {
  Relation r = PaperCrossRelation();
  RTreeIndex ix(r, 3, 4);
  for (uint64_t a = 0; a < 8; ++a) {
    for (uint64_t b = 0; b < 8; ++b) {
      std::vector<DyadicBox> gaps;
      ix.GapsContaining(Tuple{a, b}.data(), AppendTo(&gaps));
      EXPECT_EQ(gaps.empty(), r.Contains({a, b}));
      if (!gaps.empty()) {
        ASSERT_EQ(gaps.size(), 1u);
        EXPECT_TRUE(gaps[0].ContainsPoint({a, b}, 3));
        for (TupleRef t : r.rows()) {
          EXPECT_FALSE(gaps[0].ContainsPoint(t.data(), 3));
        }
      }
    }
  }
}

TEST(MultiIndex, UnionsGapsFromAllMembers) {
  Relation r = PaperCrossRelation();
  std::vector<std::unique_ptr<Index>> v;
  v.push_back(std::make_unique<SortedIndex>(r, std::vector<int>{0, 1}, 3));
  v.push_back(std::make_unique<SortedIndex>(r, std::vector<int>{1, 0}, 3));
  MultiIndex mi(std::move(v));
  EXPECT_EQ(mi.index_count(), 2u);
  std::vector<DyadicBox> gaps;
  mi.GapsContaining(Tuple{2, 6}.data(), AppendTo(&gaps));
  EXPECT_GE(gaps.size(), 2u);  // one maximal gap per member index
  std::vector<DyadicBox> all;
  mi.AllGaps(AppendTo(&all));
  ExpectGapsAreExactComplement(r, all, 3);
}

// Property sweep over random relations and all index types: gap boxes are
// exactly the complement, and a probe finds no gap iff the tuple is
// present, answering only with boxes of the index's own B(R).
struct IndexCase {
  int arity;
  int d;
  int tuples;
  uint64_t seed;
};

class IndexProperty : public ::testing::TestWithParam<IndexCase> {};

TEST_P(IndexProperty, GapsExactAndProbesConsistent) {
  const auto [k, d, n, seed] = GetParam();
  Rng rng(seed);
  std::vector<Tuple> ts;
  for (int i = 0; i < n; ++i) {
    Tuple t(k);
    for (int c = 0; c < k; ++c) t[c] = rng.Below(uint64_t{1} << d);
    ts.push_back(std::move(t));
  }
  std::vector<std::string> attrs;
  for (int c = 0; c < k; ++c) attrs.push_back("A" + std::to_string(c));
  Relation r = Relation::Make("R", attrs, std::move(ts));

  std::vector<std::unique_ptr<Index>> indexes;
  indexes.push_back(std::make_unique<SortedIndex>(r, d));
  {
    std::vector<int> rev(k);
    for (int c = 0; c < k; ++c) rev[c] = k - 1 - c;
    indexes.push_back(std::make_unique<SortedIndex>(r, rev, d));
  }
  if (k * d <= 62) {
    indexes.push_back(std::make_unique<DyadicTreeIndex>(r, d));
  }
  indexes.push_back(std::make_unique<KdTreeIndex>(r, d, 1));
  indexes.push_back(std::make_unique<KdTreeIndex>(r, d, 8));
  indexes.push_back(std::make_unique<RTreeIndex>(r, d, 1));
  indexes.push_back(std::make_unique<RTreeIndex>(r, d, 6));

  for (const auto& ix : indexes) {
    std::vector<DyadicBox> gaps;
    ix->AllGaps(AppendTo(&gaps));
    ExpectGapsAreExactComplement(r, gaps, d);
    const std::unordered_set<DyadicBox, DyadicBoxHash> own(gaps.begin(),
                                                           gaps.end());
    // Probe random points.
    for (int i = 0; i < 100; ++i) {
      Tuple t(k);
      for (int c = 0; c < k; ++c) t[c] = rng.Below(uint64_t{1} << d);
      std::vector<DyadicBox> probe_gaps;
      ix->GapsContaining(t.data(), AppendTo(&probe_gaps));
      EXPECT_EQ(probe_gaps.empty(), r.Contains(t)) << ix->Describe();
      if (!probe_gaps.empty()) {
        bool any_contains = false;
        for (const auto& g : probe_gaps) {
          if (g.ContainsPoint(t, d)) any_contains = true;
          EXPECT_TRUE(own.count(g))
              << ix->Describe() << " probe gap " << g.ToString()
              << " is not in AllGaps";
          for (TupleRef tu : r.rows()) {
            ASSERT_FALSE(g.ContainsPoint(tu.data(), d))
                << ix->Describe() << " gap covers a tuple";
          }
        }
        EXPECT_TRUE(any_contains) << ix->Describe();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IndexProperty,
    ::testing::Values(IndexCase{1, 4, 6, 11}, IndexCase{2, 3, 10, 22},
                      IndexCase{2, 4, 30, 33}, IndexCase{3, 3, 40, 44},
                      IndexCase{3, 2, 5, 55}, IndexCase{4, 2, 12, 66},
                      IndexCase{2, 5, 1, 77}, IndexCase{2, 3, 0, 88},
                      IndexCase{0, 3, 0, 99}, IndexCase{0, 3, 1, 111}));

// Differential: every index type's pruned GapsIntersecting walk must
// emit exactly its AllGaps boxes that meet the box, in AllGaps order,
// for random subcubes of varying coarseness.
TEST(GapsIntersecting, MatchesFilteredAllGaps) {
  Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    const int k = 2 + static_cast<int>(rng.Below(2));
    const int d = 3 + static_cast<int>(rng.Below(2));
    const int n = static_cast<int>(rng.Below(40));
    std::vector<Tuple> ts;
    for (int i = 0; i < n; ++i) {
      Tuple t(k);
      for (int c = 0; c < k; ++c) t[c] = rng.Below(uint64_t{1} << d);
      ts.push_back(std::move(t));
    }
    std::vector<std::string> attrs;
    for (int c = 0; c < k; ++c) attrs.push_back("A" + std::to_string(c));
    Relation r = Relation::Make("R", attrs, std::move(ts));
    std::vector<int> rev(k);
    for (int c = 0; c < k; ++c) rev[c] = k - 1 - c;
    auto random_box = [&] {
      DyadicBox box = DyadicBox::Universal(k);
      for (int c = 0; c < k; ++c) {
        const int len = static_cast<int>(rng.Below(d + 1));
        box[c] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
      }
      return box;
    };

    std::vector<std::unique_ptr<Index>> indexes;
    indexes.push_back(std::make_unique<SortedIndex>(r, d));
    indexes.push_back(std::make_unique<SortedIndex>(r, rev, d));
    indexes.push_back(std::make_unique<DyadicTreeIndex>(r, d));
    indexes.push_back(std::make_unique<KdTreeIndex>(r, d, 1));
    indexes.push_back(std::make_unique<KdTreeIndex>(r, d, 4));
    indexes.push_back(std::make_unique<RTreeIndex>(r, d, 1));
    indexes.push_back(std::make_unique<RTreeIndex>(r, d, 6));
    {
      std::vector<std::unique_ptr<Index>> parts;
      parts.push_back(std::make_unique<SortedIndex>(r, rev, d));
      parts.push_back(std::make_unique<KdTreeIndex>(r, d, 4));
      indexes.push_back(std::make_unique<MultiIndex>(std::move(parts)));
    }
    // Views over a sorted base (indexes[0]) and a kd-tree base
    // (indexes[4]), alive as long as the views are used.
    indexes.push_back(std::make_unique<IndexView>(indexes[0].get(),
                                                  random_box()));
    indexes.push_back(std::make_unique<IndexView>(indexes[4].get(),
                                                  random_box()));

    for (int probe = 0; probe < 8; ++probe) {
      const DyadicBox box = random_box();
      for (const auto& ix : indexes) {
        std::vector<DyadicBox> all;
        ix->AllGaps(AppendTo(&all));
        std::vector<DyadicBox> expected;
        for (const DyadicBox& g : all) {
          if (box.Intersects(g)) expected.push_back(g);
        }
        std::vector<DyadicBox> pruned;
        ix->GapsIntersecting(box, AppendTo(&pruned));
        EXPECT_EQ(pruned, expected)
            << ix->Describe() << " box=" << box.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace tetris
