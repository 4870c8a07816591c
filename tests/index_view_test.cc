// The zero-copy restriction views: for every index type, an IndexView
// over a dyadic box must answer probes exactly like a freshly built index
// over the materialized restricted relation — the same probe-emptiness
// (no gap iff the point is in the restriction), and gap sets that cover
// exactly the restricted complement without ever touching a restricted
// tuple. These are the invariants the sharded executor leans on when it
// swaps restricted copies for views.
#include "index/index_view.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "box_collect.h"
#include "geometry/box_restrict.h"
#include "index/dyadic_index.h"
#include "index/kdtree_index.h"
#include "index/multi_index.h"
#include "index/rtree_index.h"
#include "index/sorted_index.h"
#include "util/rng.h"

namespace tetris {
namespace {

constexpr int kDepth = 3;  // 2 columns over [0,8): 64-point brute force

Relation RandomRelation2(uint64_t seed, size_t tuples) {
  Rng rng(seed);
  std::vector<Tuple> ts;
  for (size_t i = 0; i < tuples; ++i) {
    ts.push_back({rng.Below(1u << kDepth), rng.Below(1u << kDepth)});
  }
  return Relation::Make("R", {"A", "B"}, std::move(ts));
}

DyadicBox RandomBox2(uint64_t seed) {
  Rng rng(seed);
  DyadicBox box = DyadicBox::Universal(2);
  for (int i = 0; i < 2; ++i) {
    const int len = static_cast<int>(rng.Below(kDepth + 1));
    box[i] = DyadicInterval{rng.Below(uint64_t{1} << len),
                            static_cast<uint8_t>(len)};
  }
  return box;
}

Relation Restrict(const Relation& rel, const DyadicBox& box) {
  std::vector<Tuple> ts;
  for (TupleRef t : rel.rows()) {
    if (box.ContainsPoint(t.data(), kDepth)) ts.push_back(t.ToTuple());
  }
  return Relation::Make(rel.name(), rel.attrs(), std::move(ts));
}

using IndexFactory =
    std::function<std::unique_ptr<Index>(const Relation&, int)>;

// The view over `base` and a fresh same-type index over the materialized
// restriction must agree on every point of the domain: probe emptiness
// (no gap iff the point is in the restriction), probe soundness (gaps
// contain the probe, never a restricted tuple), and AllGaps covering
// exactly the restricted complement.
void ExpectViewMatchesMaterialized(const IndexFactory& make,
                                   const std::string& label,
                                   uint64_t seed) {
  SCOPED_TRACE(label + " seed=" + std::to_string(seed));
  Relation rel = RandomRelation2(seed, /*tuples=*/24);
  DyadicBox box = RandomBox2(seed * 977 + 11);
  SCOPED_TRACE("box=" + box.ToString());
  Relation restricted = Restrict(rel, box);

  std::unique_ptr<Index> base = make(rel, kDepth);
  IndexView view(base.get(), box);
  std::unique_ptr<Index> copy = make(restricted, kDepth);

  EXPECT_EQ(view.arity(), 2);
  EXPECT_EQ(view.depth(), kDepth);
  // The view's own footprint is a few words; the base is shared.
  EXPECT_LE(view.MemoryBytes(), sizeof(IndexView));

  std::vector<DyadicBox> view_all;
  view.AllGaps(AppendTo(&view_all));

  Tuple t(2, 0);
  for (uint64_t a = 0; a < (1u << kDepth); ++a) {
    for (uint64_t b = 0; b < (1u << kDepth); ++b) {
      t[0] = a;
      t[1] = b;
      const bool in_restriction = restricted.Contains(t);

      std::vector<DyadicBox> view_gaps;
      view.GapsContaining(t.data(), AppendTo(&view_gaps));
      std::vector<DyadicBox> copy_gaps;
      copy->GapsContaining(t.data(), AppendTo(&copy_gaps));
      // Probe-emptiness is the oracle contract both sides must share.
      EXPECT_EQ(view_gaps.empty(), copy_gaps.empty()) << a << "," << b;
      EXPECT_EQ(view_gaps.empty(), in_restriction) << a << "," << b;
      // At least one gap contains the probe (band probes may also emit
      // sibling boxes that do not — same as the base contract), and no
      // gap may ever cover a tuple of the restriction.
      bool some_gap_contains_probe = view_gaps.empty();
      for (const DyadicBox& g : view_gaps) {
        if (g.ContainsPoint(t, kDepth)) some_gap_contains_probe = true;
        for (TupleRef r : restricted.rows()) {
          EXPECT_FALSE(g.ContainsPoint(r.data(), kDepth))
              << g.ToString() << " covers restricted tuple";
        }
      }
      EXPECT_TRUE(some_gap_contains_probe) << a << "," << b;

      // AllGaps covers exactly the complement of the restriction.
      bool covered = false;
      for (const DyadicBox& g : view_all) {
        if (g.ContainsPoint(t, kDepth)) {
          covered = true;
          break;
        }
      }
      EXPECT_EQ(covered, !in_restriction) << a << "," << b;
    }
  }
}

void RunAllSeeds(const IndexFactory& make, const std::string& label) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ExpectViewMatchesMaterialized(make, label, seed);
  }
}

TEST(IndexViewTest, SortedIndexViewMatchesMaterializedCopy) {
  RunAllSeeds(
      [](const Relation& r, int d) {
        return std::make_unique<SortedIndex>(r, d);
      },
      "sorted");
}

TEST(IndexViewTest, ReverseOrderSortedIndexViewMatchesMaterializedCopy) {
  RunAllSeeds(
      [](const Relation& r, int d) {
        return std::make_unique<SortedIndex>(r, std::vector<int>{1, 0}, d);
      },
      "sorted(B,A)");
}

TEST(IndexViewTest, DyadicTreeIndexViewMatchesMaterializedCopy) {
  RunAllSeeds(
      [](const Relation& r, int d) {
        return std::make_unique<DyadicTreeIndex>(r, d);
      },
      "dyadic-tree");
}

TEST(IndexViewTest, KdTreeIndexViewMatchesMaterializedCopy) {
  RunAllSeeds(
      [](const Relation& r, int d) {
        return std::make_unique<KdTreeIndex>(r, d);
      },
      "kd-tree");
}

TEST(IndexViewTest, RTreeIndexViewMatchesMaterializedCopy) {
  RunAllSeeds(
      [](const Relation& r, int d) {
        return std::make_unique<RTreeIndex>(r, d);
      },
      "r-tree");
}

TEST(IndexViewTest, MultiIndexViewMatchesMaterializedCopy) {
  RunAllSeeds(
      [](const Relation& r, int d) {
        std::vector<std::unique_ptr<Index>> parts;
        parts.push_back(std::make_unique<SortedIndex>(
            r, std::vector<int>{0, 1}, d));
        parts.push_back(std::make_unique<SortedIndex>(
            r, std::vector<int>{1, 0}, d));
        return std::make_unique<MultiIndex>(std::move(parts));
      },
      "multi");
}

TEST(IndexViewTest, UniversalBoxViewIsTransparent) {
  Relation rel = RandomRelation2(/*seed=*/7, /*tuples=*/20);
  SortedIndex base(rel, kDepth);
  IndexView view(&base, DyadicBox::Universal(2));
  std::vector<DyadicBox> view_all, base_all;
  view.AllGaps(AppendTo(&view_all));
  base.AllGaps(AppendTo(&base_all));
  // No complement slabs, no clipping: the view is the base.
  EXPECT_EQ(view_all.size(), base_all.size());
  for (TupleRef t : rel.rows()) {
    EXPECT_TRUE(ProbeFindsNoGap(view, t.ToTuple()));
  }
}

// The patch path re-runs DyadicHull of its touched boxes: it must be the
// smallest dyadic box holding both inputs, checked per dimension against
// every dyadic interval of the domain.
TEST(BoxRestrictTest, DyadicHullIsTheSmallestCommonSuperbox) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const DyadicBox a = RandomBox2(seed);
    const DyadicBox b = RandomBox2(seed + 1000);
    const DyadicBox hull = DyadicHull(a, b);
    for (int i = 0; i < 2; ++i) {
      DyadicInterval want = DyadicInterval::Lambda();
      for (int len = 0; len <= kDepth; ++len) {
        for (uint64_t bits = 0; bits < (uint64_t{1} << len); ++bits) {
          const DyadicInterval iv{bits, static_cast<uint8_t>(len)};
          if (iv.Contains(a[i]) && iv.Contains(b[i])) want = iv;
        }
      }
      EXPECT_EQ(hull[i], want) << a.ToString() << " ∪ " << b.ToString();
    }
  }
}

}  // namespace
}  // namespace tetris
