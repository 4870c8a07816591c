#include "geometry/resolution.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tetris {
namespace {

DyadicInterval Iv(uint64_t bits, int len) {
  return {bits, static_cast<uint8_t>(len)};
}
const DyadicInterval kLam = DyadicInterval::Lambda();

// The paper's Figure 7 example: resolving <λ, 00> and <10, 01> on the
// second (vertical) dimension yields <10, 0>.
TEST(Resolution, PaperFigure7) {
  DyadicBox w1 = DyadicBox::Of({kLam, Iv(0b00, 2)});
  DyadicBox w2 = DyadicBox::Of({Iv(0b10, 2), Iv(0b01, 2)});
  auto r = GeometricResolve(w1, w2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pivot_dim, 1);
  EXPECT_EQ(r->box, DyadicBox::Of({Iv(0b10, 2), Iv(0b0, 1)}));
  EXPECT_TRUE(ResolventIsSound(w1, w2, r->box, 2));
}

TEST(Resolution, SiblingsMergeToParent) {
  DyadicBox w1 = DyadicBox::Of({Iv(0b0, 1), kLam});
  DyadicBox w2 = DyadicBox::Of({Iv(0b1, 1), kLam});
  auto r = GeometricResolve(w1, w2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pivot_dim, 0);
  EXPECT_EQ(r->box, DyadicBox::Universal(2));
}

TEST(Resolution, FailsWithoutSiblingDimension) {
  DyadicBox w1 = DyadicBox::Of({Iv(0b0, 1), kLam});
  DyadicBox w2 = DyadicBox::Of({Iv(0b0, 1), kLam});
  EXPECT_FALSE(GeometricResolve(w1, w2).has_value());
  // Non-adjacent intervals (00 vs 11) are not siblings either.
  DyadicBox w3 = DyadicBox::Of({Iv(0b00, 2), kLam});
  DyadicBox w4 = DyadicBox::Of({Iv(0b11, 2), kLam});
  EXPECT_FALSE(GeometricResolve(w3, w4).has_value());
}

TEST(Resolution, FailsWithIncomparableSideDimension) {
  DyadicBox w1 = DyadicBox::Of({Iv(0b0, 1), Iv(0b00, 2)});
  DyadicBox w2 = DyadicBox::Of({Iv(0b1, 1), Iv(0b11, 2)});
  EXPECT_FALSE(GeometricResolve(w1, w2).has_value());
}

TEST(Resolution, FailsWithTwoSiblingDimensions) {
  DyadicBox w1 = DyadicBox::Of({Iv(0b0, 1), Iv(0b0, 1)});
  DyadicBox w2 = DyadicBox::Of({Iv(0b1, 1), Iv(0b1, 1)});
  EXPECT_FALSE(GeometricResolve(w1, w2).has_value());
}

TEST(Resolution, SideDimensionsTakeLongerString) {
  DyadicBox w1 = DyadicBox::Of({Iv(0b01, 2), Iv(0b0, 1), Iv(0b110, 3)});
  DyadicBox w2 = DyadicBox::Of({Iv(0b0, 1), Iv(0b1, 1), Iv(0b11, 2)});
  auto r = GeometricResolve(w1, w2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pivot_dim, 1);
  EXPECT_EQ(r->box, DyadicBox::Of({Iv(0b01, 2), kLam, Iv(0b110, 3)}));
}

TEST(Resolution, OrderedRequiresTrailingLambdas) {
  // Sibling at dim 0 but dim 1 non-λ in one input: ordered fails,
  // general succeeds.
  DyadicBox w1 = DyadicBox::Of({Iv(0b0, 1), Iv(0b1, 1)});
  DyadicBox w2 = DyadicBox::Of({Iv(0b1, 1), kLam});
  EXPECT_FALSE(OrderedResolve(w1, w2).has_value());
  EXPECT_TRUE(GeometricResolve(w1, w2).has_value());
}

TEST(Resolution, OrderedPaperShape) {
  // Equations (1)/(2): prefix-comparable before pivot, λ after.
  DyadicBox w1 = DyadicBox::Of({Iv(0b1011, 4), Iv(0b010, 3), kLam});
  DyadicBox w2 = DyadicBox::Of({Iv(0b10, 2), Iv(0b011, 3), kLam});
  auto r = OrderedResolve(w1, w2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pivot_dim, 1);
  EXPECT_EQ(r->box, DyadicBox::Of({Iv(0b1011, 4), Iv(0b01, 2), kLam}));
}

// The skeleton resolves in place: the resolvent overwrites the first
// witness, equal to the fresh-box form, and a failed attempt writes
// nothing.
TEST(Resolution, OrderedResolveIntoWritesOverFirstInput) {
  DyadicBox w1 = DyadicBox::Of({Iv(0b1011, 4), Iv(0b010, 3), kLam});
  DyadicBox w2 = DyadicBox::Of({Iv(0b10, 2), Iv(0b011, 3), kLam});
  w2.set_output_derived(true);
  auto fresh = OrderedResolve(w1, w2);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(OrderedResolveInto(w1, w2, &w1), 1);
  EXPECT_EQ(w1, fresh->box);
  EXPECT_TRUE(w1.output_derived());

  DyadicBox a = DyadicBox::Of({Iv(0b0, 1), Iv(0b1, 1)});
  const DyadicBox before = a;
  EXPECT_EQ(OrderedResolveInto(a, DyadicBox::Of({Iv(0b1, 1), kLam}), &a),
            -1);
  EXPECT_EQ(a, before);
  EXPECT_FALSE(a.output_derived());
}

TEST(Resolution, OutputTaintPropagates) {
  DyadicBox w1 = DyadicBox::Of({Iv(0b0, 1), kLam});
  DyadicBox w2 = DyadicBox::Of({Iv(0b1, 1), kLam});
  w2.set_output_derived(true);
  auto r = GeometricResolve(w1, w2);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->box.output_derived());
  w2.set_output_derived(false);
  r = GeometricResolve(w1, w2);
  EXPECT_FALSE(r->box.output_derived());
}

// Paper Example 4.1 / Appendix I: geometric resolution is sound — the
// resolvent is covered by the union of its inputs. Randomized sweep.
class ResolutionSoundness : public ::testing::TestWithParam<int> {};

TEST_P(ResolutionSoundness, ResolventCoveredByInputs) {
  const int d = GetParam();
  Rng rng(1234 + d);
  int resolved = 0;
  for (int iter = 0; iter < 3000 && resolved < 300; ++iter) {
    const int n = 2 + static_cast<int>(rng.Below(3));
    DyadicBox w1 = DyadicBox::Universal(n), w2 = DyadicBox::Universal(n);
    // Construct a sibling pair at a random dimension and random
    // (comparable or not) other dimensions.
    int pivot = static_cast<int>(rng.Below(n));
    int plen = 1 + static_cast<int>(rng.Below(d));
    uint64_t base = rng.Below(uint64_t{1} << (plen - 1));
    w1[pivot] = Iv(base << 1, plen);
    w2[pivot] = Iv((base << 1) | 1, plen);
    for (int i = 0; i < n; ++i) {
      if (i == pivot) continue;
      int l1 = static_cast<int>(rng.Below(d + 1));
      w1[i] = {rng.Below(uint64_t{1} << l1), static_cast<uint8_t>(l1)};
      if (rng.Chance(0.7)) {
        // comparable: extend or truncate w1's interval
        int l2 = static_cast<int>(rng.Below(d + 1));
        if (l2 <= l1) {
          w2[i] = w1[i].Prefix(l2);
        } else {
          DyadicInterval iv = w1[i];
          while (iv.len < l2) iv = iv.Child(static_cast<int>(rng.Below(2)));
          w2[i] = iv;
        }
      } else {
        int l2 = static_cast<int>(rng.Below(d + 1));
        w2[i] = {rng.Below(uint64_t{1} << l2), static_cast<uint8_t>(l2)};
      }
    }
    auto r = GeometricResolve(w1, w2);
    if (!r.has_value()) continue;
    ++resolved;
    EXPECT_TRUE(ResolventIsSound(w1, w2, r->box, d))
        << w1.ToString() << " + " << w2.ToString() << " -> "
        << r->box.ToString();
    // The resolvent strictly covers both inputs' shadow across the pivot:
    // it must contain the pivot-parent of each input clipped to it.
    EXPECT_EQ(r->box[r->pivot_dim], w1[r->pivot_dim].Parent());
  }
  EXPECT_GE(resolved, 100);
}

INSTANTIATE_TEST_SUITE_P(Depths, ResolutionSoundness,
                         ::testing::Values(2, 3, 4, 6));

}  // namespace
}  // namespace tetris
