#include "relation/relation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "query/join_query.h"
#include "server/relation_registry.h"
#include "util/rng.h"

namespace tetris {
namespace {

TEST(Relation, MakeCanonicalizes) {
  Relation r = Relation::Make("R", {"A", "B"},
                              {{3, 1}, {1, 3}, {3, 1}, {0, 0}});
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.row(0).ToTuple(), (Tuple{0, 0}));
  EXPECT_EQ(r.row(1).ToTuple(), (Tuple{1, 3}));
  EXPECT_EQ(r.row(2).ToTuple(), (Tuple{3, 1}));
}

TEST(Relation, ContainsUsesBinarySearch) {
  Relation r = Relation::Make("R", {"A", "B"}, {{1, 2}, {3, 4}});
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_TRUE(r.Contains({3, 4}));
  EXPECT_FALSE(r.Contains({1, 4}));
  EXPECT_FALSE(r.Contains({0, 0}));
}

TEST(Relation, AttrIndex) {
  Relation r("S", {"B", "C", "A"});
  EXPECT_EQ(r.AttrIndex("B"), 0);
  EXPECT_EQ(r.AttrIndex("C"), 1);
  EXPECT_EQ(r.AttrIndex("A"), 2);
  EXPECT_EQ(r.AttrIndex("Z"), -1);
}

uint64_t BruteForceMax(const Relation& r) {
  uint64_t m = 0;
  for (uint64_t v : r.raw()) m = std::max(m, v);
  return m;
}

TEST(Relation, MaxValue) {
  Relation r = Relation::Make("R", {"A"}, {{5}, {17}, {2}});
  EXPECT_EQ(r.MaxValue(), 17u);
  Relation empty("E", {"A"});
  EXPECT_EQ(empty.MaxValue(), 0u);
  Relation nullary("N", {});
  EXPECT_EQ(nullary.MaxValue(), 0u);
  nullary.Add({});
  nullary.Add({});
  nullary.Canonicalize();
  EXPECT_EQ(nullary.size(), 1u);
  EXPECT_EQ(nullary.MaxValue(), 0u);

  // Maintained on insert: randomized Add / AddRow with duplicates, then
  // Canonicalize and a copy, always equal to a scan of the buffer.
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    Relation rel("R", {"A", "B", "C"});
    std::vector<Tuple> added;
    const uint64_t domain = uint64_t{1} << (1 + trial % 12);
    for (int i = 0; i < 60; ++i) {
      Tuple t = Tuple{rng.Below(domain), rng.Below(domain),
                      rng.Below(domain)};
      if (!added.empty() && rng.Below(3) == 0) {
        t = added[rng.Below(added.size())];  // duplicate row
      }
      added.push_back(t);
      if (i % 2 == 0) {
        rel.Add(t);
      } else {
        rel.AddRow(t.data());
      }
      ASSERT_EQ(rel.MaxValue(), BruteForceMax(rel)) << "trial " << trial;
    }
    rel.Canonicalize();
    EXPECT_EQ(rel.MaxValue(), BruteForceMax(rel)) << "trial " << trial;
    const Relation copy = rel;
    EXPECT_EQ(copy.MaxValue(), BruteForceMax(copy)) << "trial " << trial;
  }

  // A registry delete that removes the only row holding the max lowers
  // the new version's MaxValue and the query's MinDepth.
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(
      Relation::Make("R", {"A", "B"}, {{1, 2}, {3, 200}, {7, 5}}), &error))
      << error;
  ASSERT_TRUE(
      reg.Register(Relation::Make("S", {"B", "C"}, {{2, 9}, {5, 4}}), &error))
      << error;
  const RegistrySnapshot before = reg.Snap();
  const Relation* r_before = before.Find("R")->rel.get();
  EXPECT_EQ(r_before->MaxValue(), 200u);
  EXPECT_EQ(JoinQuery::Build({r_before, before.Find("S")->rel.get()})
                .MinDepth(),
            8);
  ASSERT_TRUE(reg.DeleteRows("R", {{3, 200}}, &error)) << error;
  const RegistrySnapshot after = reg.Snap();
  const Relation* r_after = after.Find("R")->rel.get();
  EXPECT_EQ(r_after->MaxValue(), 7u);
  EXPECT_EQ(r_after->MaxValue(), BruteForceMax(*r_after));
  EXPECT_EQ(
      JoinQuery::Build({r_after, after.Find("S")->rel.get()}).MinDepth(), 4);
  EXPECT_EQ(r_before->MaxValue(), 200u);  // the pinned old version
}

TEST(Relation, IncrementalAddThenCanonicalize) {
  Relation r("R", {"A", "B"});
  r.Add({2, 2});
  r.Add({1, 1});
  r.Add({2, 2});
  r.Canonicalize();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({1, 1}));
}

TEST(Relation, FlatBufferIsRowMajorStrided) {
  Relation r = Relation::Make("R", {"A", "B", "C"}, {{1, 2, 3}, {4, 5, 6}});
  ASSERT_EQ(r.raw().size(), 6u);
  EXPECT_EQ(r.raw(), (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(r.row(1)[0], 4u);
  EXPECT_EQ(r.row(1).data(), r.raw().data() + 3);
}

TEST(Relation, RowsRangeAndToTuplesRoundTrip) {
  std::vector<Tuple> in = {{2, 9}, {1, 1}, {7, 0}};
  Relation r = Relation::Make("R", {"A", "B"}, in);
  std::sort(in.begin(), in.end());
  EXPECT_EQ(r.ToTuples(), in);
  size_t i = 0;
  for (TupleRef t : r.rows()) {
    EXPECT_EQ(t.ToTuple(), in[i]);
    ++i;
  }
  EXPECT_EQ(i, in.size());
}

TEST(Relation, TupleRefComparisons) {
  Relation r = Relation::Make("R", {"A", "B"}, {{1, 2}, {1, 3}});
  EXPECT_TRUE(r.row(0) < r.row(1));
  EXPECT_FALSE(r.row(1) < r.row(0));
  EXPECT_TRUE(r.row(0) == r.row(0));
  EXPECT_FALSE(r.row(0) == r.row(1));
  Tuple owned = r.row(1);  // implicit materialization
  EXPECT_EQ(owned, (Tuple{1, 3}));
}

// Differential: flat-buffer canonicalize/Contains against the obvious
// vector<Tuple> model on random multisets with duplicates.
TEST(Relation, RandomizedCanonicalizeMatchesTupleModel) {
  Rng rng(321);
  for (int round = 0; round < 30; ++round) {
    const int k = 1 + static_cast<int>(rng.Below(4));
    const size_t n = rng.Below(60);
    std::vector<Tuple> model;
    Relation r("R", std::vector<std::string>(k, "x"));
    for (size_t i = 0; i < n; ++i) {
      Tuple t(k);
      for (int c = 0; c < k; ++c) t[c] = rng.Below(8);  // force duplicates
      model.push_back(t);
      r.Add(t);
    }
    std::sort(model.begin(), model.end());
    model.erase(std::unique(model.begin(), model.end()), model.end());
    r.Canonicalize();
    EXPECT_EQ(r.ToTuples(), model);
    for (const Tuple& t : model) EXPECT_TRUE(r.Contains(t));
    Tuple probe(k, 9);  // outside the value range above
    EXPECT_FALSE(r.Contains(probe));
  }
}

}  // namespace
}  // namespace tetris
