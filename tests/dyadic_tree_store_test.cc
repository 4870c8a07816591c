#include "kb/dyadic_tree_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "box_collect.h"
#include "kb/box_oracle.h"
#include "util/rng.h"

namespace tetris {
namespace {

DyadicInterval Iv(uint64_t bits, int len) {
  return {bits, static_cast<uint8_t>(len)};
}
const DyadicInterval kLam = DyadicInterval::Lambda();

TEST(DyadicTreeStore, EmptyFindsNothing) {
  DyadicTreeStore store(2);
  EXPECT_EQ(store.size(), 0u);
  DyadicBox found = DyadicBox::Universal(2);
  EXPECT_FALSE(store.FindContaining(DyadicBox::Universal(2), &found));
}

TEST(DyadicTreeStore, InsertAndFindExact) {
  DyadicTreeStore store(2);
  DyadicBox b = DyadicBox::Of({Iv(0b01, 2), Iv(0b1, 1)});
  EXPECT_TRUE(store.Insert(b));
  EXPECT_FALSE(store.Insert(b)) << "duplicate must be rejected";
  EXPECT_EQ(store.size(), 1u);
  DyadicBox found = DyadicBox::Universal(2);
  ASSERT_TRUE(store.FindContaining(b, &found));
  EXPECT_EQ(found, b);
  EXPECT_TRUE(store.ContainsExact(b));
}

TEST(DyadicTreeStore, FindsCoarserBox) {
  DyadicTreeStore store(3);
  DyadicBox coarse = DyadicBox::Of({Iv(0b0, 1), kLam, kLam});
  store.Insert(coarse);
  DyadicBox fine = DyadicBox::Of({Iv(0b0110, 4), Iv(0b10, 2), Iv(0b1, 1)});
  DyadicBox found = DyadicBox::Universal(3);
  ASSERT_TRUE(store.FindContaining(fine, &found));
  EXPECT_EQ(found, coarse);
  // A box outside dim-0 prefix 0 is not covered.
  DyadicBox other = DyadicBox::Of({Iv(0b1, 1), kLam, kLam});
  EXPECT_FALSE(store.FindContaining(other, &found));
}

// The lookup writes into the caller's box: a hit may overwrite the probe
// itself (the skeleton's witness slot is never its target, but aliasing
// is allowed), and a miss leaves every component and the provenance bit
// as they were.
TEST(DyadicTreeStore, FindContainingWritesOnlyOnHit) {
  DyadicTreeStore store(2);
  DyadicBox coarse = DyadicBox::Of({Iv(0b0, 1), kLam});
  coarse.set_output_derived(true);
  store.Insert(coarse);
  DyadicBox slot = DyadicBox::Of({Iv(0b111, 3), Iv(0b01, 2)});
  const DyadicBox before = slot;
  EXPECT_FALSE(store.FindContaining(DyadicBox::Point({7, 1}, 3), &slot));
  EXPECT_EQ(slot, before);
  EXPECT_FALSE(slot.output_derived());
  DyadicBox probe = DyadicBox::Point({2, 5}, 3);
  ASSERT_TRUE(store.FindContaining(probe, &probe));
  EXPECT_EQ(probe, coarse);
  EXPECT_TRUE(probe.output_derived());
}

TEST(DyadicTreeStore, UniversalBoxCoversAll) {
  DyadicTreeStore store(2);
  store.Insert(DyadicBox::Universal(2));
  DyadicBox found = DyadicBox::Point({1, 1}, 4);
  ASSERT_TRUE(store.FindContaining(DyadicBox::Point({3, 9}, 4), &found));
  EXPECT_EQ(found, DyadicBox::Universal(2));
}

// A 0-dimension store (the space of a query whose atoms bind no
// variable) holds at most the one 0-dimension box, and every lookup
// answers from it.
TEST(DyadicTreeStore, ZeroDimensionStoreHoldsTheEmptyBox) {
  DyadicTreeStore store(0);
  const DyadicBox empty = DyadicBox::Universal(0);
  DyadicBox found = empty;
  DyadicTreeStore::Cursor cursor;
  int64_t visited = 0;
  EXPECT_FALSE(store.FindContaining(empty, &found));
  EXPECT_FALSE(store.FindContaining(empty, 0, &cursor, &found, &visited));
  std::vector<DyadicBox> boxes;
  store.CollectContaining(empty, &boxes);
  EXPECT_TRUE(boxes.empty());

  ASSERT_TRUE(store.Insert(empty));
  EXPECT_FALSE(store.Insert(empty)) << "duplicate must be rejected";
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.FindContaining(empty, &found));
  EXPECT_TRUE(store.FindContaining(empty, 0, &cursor, &found, &visited));
  EXPECT_EQ(visited, 2);
  EXPECT_TRUE(store.ContainsExact(empty));
  store.CollectContaining(empty, &boxes);
  EXPECT_EQ(boxes, std::vector<DyadicBox>{empty});
  EXPECT_EQ(store.AllBoxes(), std::vector<DyadicBox>{empty});
}

TEST(DyadicTreeStore, CollectContainingFindsAllSupersets) {
  DyadicTreeStore store(2);
  DyadicBox a = DyadicBox::Of({kLam, Iv(0b1, 1)});
  DyadicBox b = DyadicBox::Of({Iv(0b1, 1), Iv(0b11, 2)});
  DyadicBox c = DyadicBox::Of({Iv(0b0, 1), kLam});  // disjoint from probe
  store.Insert(a);
  store.Insert(b);
  store.Insert(c);
  std::vector<DyadicBox> out;
  store.CollectContaining(DyadicBox::Point({3, 3}, 2), &out);  // (11, 11)
  EXPECT_EQ(out.size(), 2u);
}

TEST(DyadicTreeStore, AllBoxesReturnsEverything) {
  DyadicTreeStore store(2);
  std::vector<DyadicBox> in = {
      DyadicBox::Of({Iv(0b0, 1), kLam}),
      DyadicBox::Of({Iv(0b1, 1), Iv(0b0, 1)}),
      DyadicBox::Universal(2),
  };
  for (const auto& b : in) store.Insert(b);
  auto all = store.AllBoxes();
  EXPECT_EQ(all.size(), in.size());
  for (const auto& b : in) {
    EXPECT_NE(std::find(all.begin(), all.end(), b), all.end());
  }
}

// Property: FindContaining / CollectContaining agree with a linear scan.
// Stored boxes carry random provenance bits, so a hit's bit is checked
// against the stored box it came from.
class StoreProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(StoreProperty, AgreesWithLinearScan) {
  const auto [n, d] = GetParam();
  Rng rng(5 * n + d);
  DyadicTreeStore store(n);
  std::vector<DyadicBox> ref;
  auto random_box = [&] {
    DyadicBox b = DyadicBox::Universal(n);
    for (int i = 0; i < n; ++i) {
      int len = static_cast<int>(rng.Below(d + 1));
      b[i] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
    }
    return b;
  };
  for (int i = 0; i < 200; ++i) {
    DyadicBox b = random_box();
    b.set_output_derived(rng.Chance(0.3));
    bool inserted = store.Insert(b);
    bool was_new = std::find(ref.begin(), ref.end(), b) == ref.end();
    EXPECT_EQ(inserted, was_new);
    if (was_new) ref.push_back(b);
  }
  EXPECT_EQ(store.size(), ref.size());

  // AllBoxes must enumerate exactly the reference set (as a set; the
  // store's order is tree order, not insertion order).
  auto sorted_keys = [](const std::vector<DyadicBox>& v) {
    std::vector<std::string> keys;
    for (const auto& b : v) keys.push_back(b.ToString());
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(sorted_keys(store.AllBoxes()), sorted_keys(ref));

  for (int i = 0; i < 300; ++i) {
    DyadicBox probe = random_box();
    std::vector<DyadicBox> got;
    store.CollectContaining(probe, &got);
    size_t expected = 0;
    for (const auto& r : ref) {
      if (r.Contains(probe)) ++expected;
    }
    EXPECT_EQ(got.size(), expected);
    // A hit is one of the stored supersets, provenance bit included; a
    // miss leaves the caller's box as it was.
    DyadicBox found = random_box();
    found.set_output_derived(rng.Chance(0.5));
    const DyadicBox before = found;
    const bool hit = store.FindContaining(probe, &found);
    EXPECT_EQ(hit, expected > 0);
    if (hit) {
      EXPECT_TRUE(found.Contains(probe));
      auto same = [&](const DyadicBox& c) {
        return c == found && c.output_derived() == found.output_derived();
      };
      EXPECT_TRUE(std::any_of(got.begin(), got.end(), same))
          << found.ToString();
    } else {
      EXPECT_EQ(found, before);
      EXPECT_EQ(found.output_derived(), before.output_derived());
    }
  }
}

// The lookup cursor against the root walk, on the probes the one-pass
// skeleton makes: a depth-first split of <λ,...,λ> on the first non-unit
// component (<unit, ..., unit, partial, λ, ..., λ>), each split written
// through the cursor, with random inserts between lookups. Every lookup
// must agree with FindContaining on the hit, the box and its provenance
// bit, and a miss must leave the caller's box as it was.
TEST_P(StoreProperty, CursorAgreesWithRootWalk) {
  const auto [n, d] = GetParam();
  Rng rng(7 * n + d);
  // No λ components, so the space is never covered by one box and the
  // walk keeps both hits and misses.
  auto random_box = [&, n = n, d = d] {
    DyadicBox b = DyadicBox::Universal(n);
    for (int i = 0; i < n; ++i) {
      const int len = 1 + static_cast<int>(rng.Below(d));
      b[i] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
    }
    b.set_output_derived(rng.Chance(0.3));
    return b;
  };
  DyadicTreeStore store(n);
  for (int i = 0; i < 32; ++i) store.Insert(random_box());

  DyadicTreeStore::Cursor cursor;
  DyadicBox b = DyadicBox::Universal(n);
  int64_t lookups = 0, hits = 0, visited = 0;
  std::function<void()> descend = [&, n = n, d = d] {
    if (::testing::Test::HasFailure()) return;
    int split = -1;
    for (int i = 0; i < n && split < 0; ++i) {
      if (b[i].len < d) split = i;
    }
    DyadicBox want = DyadicBox::Universal(n);
    const bool want_hit = store.FindContaining(b, &want);
    DyadicBox got = random_box();
    const DyadicBox before = got;
    const bool hit = store.FindContaining(b, split < 0 ? n - 1 : split,
                                          &cursor, &got, &visited);
    ++lookups;
    EXPECT_EQ(hit, want_hit) << b.ToString();
    if (hit) {
      ++hits;
      EXPECT_EQ(got, want) << b.ToString();
      EXPECT_EQ(got.output_derived(), want.output_derived()) << b.ToString();
    } else {
      EXPECT_EQ(got, before);
      EXPECT_EQ(got.output_derived(), before.output_derived());
    }
    // Inserts between lookups, most of them near b, as the skeleton's
    // resolvents are: on b's path, they add roots the cursor must see.
    if (rng.Chance(0.05)) {
      DyadicBox x = random_box();
      for (int i = 0; i < n; ++i) {
        if (b[i].len > 0 && rng.Chance(0.8)) {
          x[i] = b[i].Prefix(1 + static_cast<int>(rng.Below(b[i].len)));
        }
      }
      store.Insert(x);
    }
    if (split < 0) return;
    const DyadicInterval whole = b[split];
    for (int bit = 0; bit < 2; ++bit) {
      cursor.Write(&b, split, whole.Child(bit));
      descend();
      cursor.Write(&b, split, whole);
    }
  };
  descend();
  // Not vacuous: both outcomes occur, and the lookups did walk the trie.
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, lookups);
  EXPECT_GT(visited, lookups);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StoreProperty,
    ::testing::Values(std::pair{1, 4}, std::pair{2, 3}, std::pair{3, 3},
                      std::pair{4, 2}, std::pair{2, 8}));

// Pins the pre-arena enumeration contract: AllBoxes order depends only on
// the stored set (DFS over the dyadic tree), never on insertion order —
// path compression keeps every branch point an explicit node, so the
// compressed DFS visits terminating prefixes in the same sequence the
// one-bit-per-node layout did.
TEST(DyadicTreeStore, AllBoxesOrderIsInsertionIndependent) {
  Rng rng(99);
  std::vector<DyadicBox> boxes;
  for (int i = 0; i < 64; ++i) {
    DyadicBox b = DyadicBox::Universal(3);
    for (int c = 0; c < 3; ++c) {
      int len = static_cast<int>(rng.Below(5));
      b[c] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
    }
    boxes.push_back(b);
  }
  DyadicTreeStore fwd(3), rev(3);
  for (const auto& b : boxes) fwd.Insert(b);
  for (auto it = boxes.rbegin(); it != boxes.rend(); ++it) rev.Insert(*it);
  EXPECT_EQ(fwd.AllBoxes(), rev.AllBoxes());
}

// Trie order on boxes: component by component, each bitstring from its
// leading bit, a prefix before its extensions (a SortedIndex's gap order).
bool TrieLess(const DyadicBox& a, const DyadicBox& b) {
  for (int i = 0; i < a.dims(); ++i) {
    const int m = std::min(a[i].len, b[i].len);
    const uint64_t x = a[i].bits >> (a[i].len - m);
    const uint64_t y = b[i].bits >> (b[i].len - m);
    if (x != y) return x < y;
    if (a[i].len != b[i].len) return a[i].len < b[i].len;
  }
  return false;
}

// Property: the bulk path (Stage ... InsertStaged) builds the store that
// single Inserts of the same boxes, in the same order, build. The boxes
// come as atoms' gap runs do: each run fixes some components to λ, runs
// repeat boxes within and across each other, and a run is either sorted
// in trie order or shuffled. Both stores hold a few boxes before the
// bulk load and take a few single Inserts after it, as resolvents. The
// bulk store never holds more memory than the single one.
TEST(DyadicTreeStore, BulkInsertBuildsTheStoreSingleInsertsBuild) {
  for (int n = 0; n <= 4; ++n) {
    for (int d : {1, 2, 3, 5, 8, 16}) {
      for (bool sorted : {true, false}) {
        SCOPED_TRACE("dims " + std::to_string(n) + ", depth " +
                     std::to_string(d) + (sorted ? ", sorted" : ", shuffled"));
        Rng rng(1000 * n + 10 * d + sorted);
        // λ off the support, so no box but the empty one covers the space.
        auto random_box = [&](uint32_t support) {
          DyadicBox b = DyadicBox::Universal(n);
          for (int i = 0; i < n; ++i) {
            if ((support >> i & 1) == 0) continue;
            const int len = 1 + static_cast<int>(rng.Below(d));
            b[i] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
          }
          b.set_output_derived(rng.Chance(0.2));
          return b;
        };
        const uint32_t all = (1u << n) - 1;
        DyadicTreeStore bulk(n), single(n);
        for (int i = 0; i < 8; ++i) {
          const DyadicBox b = random_box(all);
          EXPECT_EQ(bulk.Insert(b), single.Insert(b));
        }
        std::vector<DyadicBox> staged;
        for (int run = 0; run < 4; ++run) {
          const uint32_t support =
              n == 0 ? 0 : 1 + static_cast<uint32_t>(rng.Below(all));
          std::vector<DyadicBox> boxes;
          for (int i = 0; i < 60; ++i) {
            boxes.push_back(random_box(support));
            if (rng.Chance(0.1)) boxes.push_back(boxes.back());
            if (!staged.empty() && rng.Chance(0.05)) {
              boxes.push_back(staged[rng.Below(staged.size())]);
            }
          }
          if (sorted) {
            std::stable_sort(boxes.begin(), boxes.end(), TrieLess);
          } else {
            for (size_t i = boxes.size(); i > 1; --i) {
              std::swap(boxes[i - 1], boxes[rng.Below(i)]);
            }
          }
          staged.insert(staged.end(), boxes.begin(), boxes.end());
        }
        size_t fresh = 0;
        for (const DyadicBox& b : staged) {
          bulk.Stage(b);
          fresh += single.Insert(b);
        }
        EXPECT_EQ(bulk.InsertStaged(), fresh);
        // Duplicates and shuffled runs leave the bulk path room to spare.
        EXPECT_LE(bulk.MemoryBytes(), single.MemoryBytes());
        for (int i = 0; i < 8; ++i) {
          const DyadicBox b = random_box(all);
          EXPECT_EQ(bulk.Insert(b), single.Insert(b));
        }
        EXPECT_LE(bulk.MemoryBytes(), single.MemoryBytes());

        ASSERT_EQ(bulk.size(), single.size());
        for (size_t id = 0; id < bulk.size(); ++id) {
          EXPECT_EQ(bulk.Box(id), single.Box(id));
          EXPECT_EQ(bulk.Box(id).output_derived(),
                    single.Box(id).output_derived());
        }
        const std::vector<DyadicBox> bulk_all = bulk.AllBoxes();
        const std::vector<DyadicBox> single_all = single.AllBoxes();
        ASSERT_EQ(bulk_all, single_all);
        for (size_t i = 0; i < bulk_all.size(); ++i) {
          EXPECT_EQ(bulk_all[i].output_derived(),
                    single_all[i].output_derived());
        }

        // Root-walk lookups on random boxes; cursor lookups on the
        // skeleton's node boxes <unit, ..., unit, partial, λ, ..., λ>.
        DyadicTreeStore::Cursor bulk_cursor, single_cursor;
        int64_t bulk_visited = 0, single_visited = 0;
        int hits = 0;
        for (int i = 0; i < 200; ++i) {
          const DyadicBox probe = random_box(all);
          DyadicBox got = DyadicBox::Universal(n), want = got;
          const bool hit = bulk.FindContaining(probe, &got);
          ASSERT_EQ(hit, single.FindContaining(probe, &want));
          EXPECT_EQ(got, want);
          EXPECT_EQ(got.output_derived(), want.output_derived());

          DyadicBox node = DyadicBox::Universal(n);
          const int level = n == 0 ? 0 : static_cast<int>(rng.Below(n));
          for (int j = 0; j <= level && j < n; ++j) {
            const int len = j < level ? d : static_cast<int>(rng.Below(d + 1));
            node[j] = {rng.Below(uint64_t{1} << len),
                       static_cast<uint8_t>(len)};
          }
          bulk_cursor.Reset();
          single_cursor.Reset();
          got = want = DyadicBox::Universal(n);
          const bool cursor_hit = bulk.FindContaining(
              node, level, &bulk_cursor, &got, &bulk_visited);
          ASSERT_EQ(cursor_hit,
                    single.FindContaining(node, level, &single_cursor, &want,
                                          &single_visited));
          hits += cursor_hit;
          EXPECT_EQ(got, want);
          EXPECT_EQ(got.output_derived(), want.output_derived());
          EXPECT_EQ(bulk_visited, single_visited);
        }
        // Not vacuous: lookups walked the tries, and some node boxes hit
        // (a 0-dimension store has only its root to visit).
        if (n > 0) {
          EXPECT_GT(bulk_visited, 200);
          EXPECT_GT(hits, 0);
        }
      }
    }
  }
}

// The provenance bit rides along through the component pool.
TEST(DyadicTreeStore, OutputDerivedBitRoundTrips) {
  DyadicTreeStore store(2);
  DyadicBox derived = DyadicBox::Of({Iv(0b0, 1), kLam});
  derived.set_output_derived(true);
  DyadicBox plain = DyadicBox::Of({Iv(0b1, 1), kLam});
  store.Insert(derived);
  store.Insert(plain);
  DyadicBox found = DyadicBox::Universal(2);
  ASSERT_TRUE(store.FindContaining(DyadicBox::Point({0, 0}, 2), &found));
  EXPECT_TRUE(found.output_derived());
  std::vector<DyadicBox> out;
  store.CollectContaining(DyadicBox::Point({3, 0}, 2), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].output_derived());
  for (const DyadicBox& b : store.AllBoxes()) {
    EXPECT_EQ(b.output_derived(), b[0].bits == 0);
  }
}

TEST(KeepMaximalBoxes, RemovesDominated) {
  std::vector<DyadicBox> v = {
      DyadicBox::Of({Iv(0b01, 2), kLam}),
      DyadicBox::Of({Iv(0b0, 1), kLam}),
      DyadicBox::Of({Iv(0b1, 1), Iv(0b1, 1)}),
  };
  KeepMaximalBoxes(&v);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NE(std::find(v.begin(), v.end(),
                      DyadicBox::Of({Iv(0b0, 1), kLam})),
            v.end());
}

TEST(MaterializedOracle, ProbeReturnsMaximalContainers) {
  MaterializedOracle oracle(2);
  oracle.Add(DyadicBox::Of({Iv(0b0, 1), kLam}));
  oracle.Add(DyadicBox::Of({Iv(0b01, 2), kLam}));  // dominated
  oracle.Add(DyadicBox::Of({Iv(0b1, 1), kLam}));   // doesn't contain probe
  std::vector<DyadicBox> out;
  oracle.Probe(DyadicBox::Point({1, 2}, 2), AppendTo(&out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], DyadicBox::Of({Iv(0b0, 1), kLam}));
  EXPECT_EQ(oracle.probe_count(), 1);
  EXPECT_EQ(oracle.size(), 3u);
}

TEST(MaterializedOracle, EmptyProbeMeansOutputTuple) {
  MaterializedOracle oracle(2);
  oracle.Add(DyadicBox::Of({Iv(0b0, 1), kLam}));
  std::vector<DyadicBox> out;
  oracle.Probe(DyadicBox::Point({3, 0}, 2), AppendTo(&out));
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace tetris
