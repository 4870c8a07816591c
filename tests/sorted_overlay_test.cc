// Differential suite for the SortedIndex permutation view + delta
// overlay (index/sorted_index.h): a promoted index must answer every
// probe entry point — Contains, GapsContaining, AllGaps,
// GapsIntersecting — exactly like a fresh rebuild over the mutated
// relation, across layouts, insert+delete mixes, chained promotions,
// and the compaction boundary. TSan runs this suite in CI (promotion
// races with in-flight probes).
#include "index/sorted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "box_collect.h"
#include "util/rng.h"

namespace tetris {
namespace {

std::vector<std::string> BoxKeys(const std::vector<DyadicBox>& boxes) {
  std::vector<std::string> keys;
  keys.reserve(boxes.size());
  for (const DyadicBox& b : boxes) keys.push_back(b.ToString());
  std::sort(keys.begin(), keys.end());
  return keys;
}

Tuple RandomTupleOf(Rng* rng, int k, int d) {
  Tuple t(k);
  for (int c = 0; c < k; ++c) t[c] = rng->Below(uint64_t{1} << d);
  return t;
}

Relation RandomRel(Rng* rng, int k, int d, size_t n) {
  std::vector<std::string> attrs;
  for (int c = 0; c < k; ++c) attrs.push_back(std::string(1, 'A' + c));
  std::vector<Tuple> ts;
  ts.reserve(n);
  for (size_t i = 0; i < n; ++i) ts.push_back(RandomTupleOf(rng, k, d));
  return Relation::Make("R", std::move(attrs), std::move(ts));
}

// The registry's effective-delta semantics (relation_registry.cc):
// added tuples already present and removed tuples absent vanish.
struct EffectiveDelta {
  std::vector<Tuple> added;
  std::vector<Tuple> removed;
};

EffectiveDelta MakeEffective(const Relation& old_rel, std::vector<Tuple> add,
                             std::vector<Tuple> del) {
  auto canon = [](std::vector<Tuple>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  canon(&add);
  canon(&del);
  EffectiveDelta eff;
  for (Tuple& t : add) {
    if (!old_rel.Contains(t)) eff.added.push_back(std::move(t));
  }
  for (Tuple& t : del) {
    if (old_rel.Contains(t)) eff.removed.push_back(std::move(t));
  }
  return eff;
}

// old_rel ∪ added ∖ removed, canonical.
Relation ApplyDeltaToRelation(const Relation& old_rel,
                              const EffectiveDelta& eff) {
  Relation next(old_rel.name(), old_rel.attrs());
  for (TupleRef t : old_rel.rows()) {
    if (!std::binary_search(eff.removed.begin(), eff.removed.end(),
                            t.ToTuple())) {
      next.AddRow(t.data());
    }
  }
  for (const Tuple& t : eff.added) next.Add(t);
  next.Canonicalize();
  return next;
}

// Pins overlay == fresh on every probe entry point.
void ExpectIndexesAgree(const SortedIndex& overlay, const SortedIndex& fresh,
                        const Relation& new_rel, Rng* rng, int d,
                        const std::vector<Tuple>& interesting_probes) {
  const int k = fresh.arity();
  ASSERT_EQ(overlay.arity(), k);
  EXPECT_EQ(overlay.rows(), new_rel.size());
  EXPECT_EQ(fresh.rows(), new_rel.size());

  // Contains + GapsContaining: every live tuple, every delta tuple, and
  // random probes.
  std::vector<Tuple> probes = interesting_probes;
  for (TupleRef t : new_rel.rows()) probes.push_back(t.ToTuple());
  for (int i = 0; i < 32; ++i) probes.push_back(RandomTupleOf(rng, k, d));
  for (const Tuple& t : probes) {
    EXPECT_EQ(overlay.Contains(t), fresh.Contains(t))
        << overlay.Describe() << " t=" << t[0];
    EXPECT_EQ(overlay.Contains(t), new_rel.Contains(t));
    std::vector<DyadicBox> og, fg;
    overlay.GapsContaining(t.data(), AppendTo(&og));
    fresh.GapsContaining(t.data(), AppendTo(&fg));
    EXPECT_EQ(BoxKeys(og), BoxKeys(fg)) << overlay.Describe();
    EXPECT_EQ(og.empty(), new_rel.Contains(t));
  }

  // AllGaps set-equality.
  std::vector<DyadicBox> oa, fa;
  overlay.AllGaps(AppendTo(&oa));
  fresh.AllGaps(AppendTo(&fa));
  EXPECT_EQ(BoxKeys(oa), BoxKeys(fa)) << overlay.Describe();

  // GapsIntersecting on random subcubes (including the universal box).
  for (int probe = 0; probe < 8; ++probe) {
    DyadicBox box = DyadicBox::Universal(k);
    if (probe > 0) {
      for (int c = 0; c < k; ++c) {
        const int len = static_cast<int>(rng->Below(d + 1));
        box[c] = {rng->Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
      }
    }
    std::vector<DyadicBox> oi, fi;
    overlay.GapsIntersecting(box, AppendTo(&oi));
    fresh.GapsIntersecting(box, AppendTo(&fi));
    EXPECT_EQ(BoxKeys(oi), BoxKeys(fi))
        << overlay.Describe() << " box=" << box.ToString();
  }
}

TEST(SortedOverlayTest, PromotedMatchesFreshRebuildRandomized) {
  // Insert+delete mixes across arities and layouts; deltas small enough
  // to stay below the compaction threshold so the overlay path itself
  // is what gets exercised.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 977);
    const int k = 2 + static_cast<int>(seed % 2);  // arity 2 and 3
    const int d = 4;
    const size_t n = 120;
    auto old_rel =
        std::make_shared<const Relation>(RandomRel(&rng, k, d, n));

    std::vector<std::vector<int>> layouts;
    std::vector<int> identity(k), reversed(k);
    for (int c = 0; c < k; ++c) {
      identity[c] = c;
      reversed[c] = k - 1 - c;
    }
    layouts.push_back(identity);
    layouts.push_back(reversed);

    // Mixed delta: new rows, duplicate adds, real deletes, absent
    // deletes — the registry reduces these to the effective delta.
    std::vector<Tuple> add, del;
    for (int i = 0; i < 5; ++i) add.push_back(RandomTupleOf(&rng, k, d));
    add.push_back(old_rel->row(0).ToTuple());  // duplicate add (no-op)
    for (int i = 0; i < 4; ++i) {
      del.push_back(
          old_rel->row(rng.Below(old_rel->size())).ToTuple());
    }
    del.push_back(RandomTupleOf(&rng, k, d));  // likely-absent delete
    const EffectiveDelta eff = MakeEffective(*old_rel, add, del);
    const Relation new_rel = ApplyDeltaToRelation(*old_rel, eff);

    std::vector<Tuple> interesting = eff.added;
    interesting.insert(interesting.end(), eff.removed.begin(),
                       eff.removed.end());

    for (const std::vector<int>& layout : layouts) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      auto base = std::make_shared<const SortedIndex>(*old_rel, layout, d);
      bool compacted = true;
      auto promoted = SortedIndex::Promote(base, old_rel, new_rel, eff.added,
                                           eff.removed, &compacted);
      ASSERT_NE(promoted, nullptr);
      EXPECT_FALSE(compacted);  // delta is far below rows/8 + 8
      EXPECT_EQ(promoted->pin().get(), old_rel.get());
      EXPECT_EQ(promoted->overlay_rows(),
                eff.added.size() + eff.removed.size());
      // Permutation view + overlay footprint, never a materialized copy.
      EXPECT_LE(promoted->MemoryBytes(),
                old_rel->size() * sizeof(uint32_t) +
                    eff.added.size() * static_cast<size_t>(k) *
                        sizeof(uint64_t) +
                    eff.removed.size() * sizeof(uint32_t));
      SortedIndex fresh(new_rel, layout, d);
      ExpectIndexesAgree(*promoted, fresh, new_rel, &rng, d, interesting);
    }
  }
}

TEST(SortedOverlayTest, ChainedPromotionsStayExact) {
  Rng rng(4242);
  const int k = 2;
  const int d = 5;
  auto version = std::make_shared<const Relation>(RandomRel(&rng, k, d, 200));
  const auto original = version;
  auto index = std::make_shared<const SortedIndex>(*version, d);
  std::vector<Tuple> touched;
  for (int epoch = 0; epoch < 6; ++epoch) {
    std::vector<Tuple> add, del;
    add.push_back(RandomTupleOf(&rng, k, d));
    del.push_back(version->row(rng.Below(version->size())).ToTuple());
    const EffectiveDelta eff = MakeEffective(*version, add, del);
    auto next_version = std::make_shared<const Relation>(
        ApplyDeltaToRelation(*version, eff));
    bool compacted = false;
    index = SortedIndex::Promote(index, version, *next_version, eff.added,
                                 eff.removed, &compacted);
    ASSERT_FALSE(compacted);  // 12 overlay rows max, threshold ~33
    // A chain pins the ORIGINAL base version — that is the buffer the
    // shared permutation reads through.
    EXPECT_EQ(index->pin().get(), original.get());
    version = next_version;
    touched.insert(touched.end(), eff.added.begin(), eff.added.end());
    touched.insert(touched.end(), eff.removed.begin(), eff.removed.end());
    SortedIndex fresh(*version, d);
    ExpectIndexesAgree(*index, fresh, *version, &rng, d, touched);
  }
}

TEST(SortedOverlayTest, CompactionBoundaryFoldsTheOverlay) {
  Rng rng(7);
  const int k = 2;
  const int d = 6;
  auto old_rel = std::make_shared<const Relation>(RandomRel(&rng, k, d, 64));
  auto base = std::make_shared<const SortedIndex>(*old_rel, d);

  // Build an all-new-rows delta sized exactly at the threshold, then
  // one past it: overlay_rows > live/8 + 8 triggers the fold.
  auto fresh_rows = [&](size_t count) {
    std::vector<Tuple> rows;
    uint64_t v = (uint64_t{1} << d) - 1;
    while (rows.size() < count) {
      Tuple t{v, v};
      if (!old_rel->Contains(t)) rows.push_back(t);
      --v;
    }
    return rows;
  };

  // At-threshold: live = 64 + m rows; pick m where m <= live/8 + 8.
  {
    const std::vector<Tuple> add = fresh_rows(16);  // 16 <= 80/8 + 8 = 18
    const Relation new_rel =
        ApplyDeltaToRelation(*old_rel, EffectiveDelta{add, {}});
    ASSERT_FALSE(
        SortedIndex::ShouldCompact(add.size(), new_rel.size()));
    bool compacted = true;
    auto p = SortedIndex::Promote(base, old_rel, new_rel, add, {},
                                  &compacted);
    EXPECT_FALSE(compacted);
    EXPECT_EQ(p->overlay_rows(), add.size());
    EXPECT_EQ(p->pin().get(), old_rel.get());
    ExpectIndexesAgree(*p, SortedIndex(new_rel, d), new_rel, &rng, d, add);
  }

  // Past-threshold: the promotion folds into a fresh base permutation
  // over the new version and releases the pin.
  {
    const std::vector<Tuple> add = fresh_rows(30);  // 30 > 94/8 + 8 = 19
    const Relation new_rel =
        ApplyDeltaToRelation(*old_rel, EffectiveDelta{add, {}});
    ASSERT_TRUE(SortedIndex::ShouldCompact(add.size(), new_rel.size()));
    bool compacted = false;
    auto p = SortedIndex::Promote(base, old_rel, new_rel, add, {},
                                  &compacted);
    EXPECT_TRUE(compacted);
    EXPECT_EQ(p->overlay_rows(), 0u);
    EXPECT_EQ(p->pin(), nullptr);
    EXPECT_EQ(p->MemoryBytes(), new_rel.size() * sizeof(uint32_t));
    ExpectIndexesAgree(*p, SortedIndex(new_rel, d), new_rel, &rng, d, add);
  }
}

TEST(SortedOverlayTest, OverlayBookkeepingSemantics) {
  const int d = 4;
  auto rel = std::make_shared<const Relation>(Relation::Make(
      "R", {"A", "B"}, {{1, 1}, {2, 2}, {3, 3}}));
  auto base = std::make_shared<const SortedIndex>(*rel, d);
  EXPECT_EQ(base->MemoryBytes(), 3 * sizeof(uint32_t));
  EXPECT_EQ(base->Describe(), "btree(c0,c1)");

  // Remove a base row and add a new one.
  Relation v2 = Relation::Make("R", {"A", "B"}, {{1, 1}, {3, 3}, {5, 5}});
  auto p = SortedIndex::Promote(base, rel, v2, {{5, 5}}, {{2, 2}});
  EXPECT_EQ(p->rows(), 3u);
  EXPECT_EQ(p->overlay_rows(), 2u);
  EXPECT_EQ(p->MemoryBytes(),
            3 * sizeof(uint32_t) + 2 * sizeof(uint64_t) + sizeof(uint32_t));
  EXPECT_EQ(p->Describe(), "btree(c0,c1)+ovl{1a,1r}");
  EXPECT_FALSE(p->Contains({2, 2}));
  EXPECT_TRUE(p->Contains({5, 5}));

  // Re-adding the tombstoned row un-removes; removing the overlay row
  // un-adds — the overlay cancels back to empty.
  auto v2p = std::make_shared<const Relation>(std::move(v2));
  Relation v3 = Relation::Make("R", {"A", "B"}, {{1, 1}, {2, 2}, {3, 3}});
  auto q = SortedIndex::Promote(p, v2p, v3, {{2, 2}}, {{5, 5}});
  EXPECT_EQ(q->overlay_rows(), 0u);
  EXPECT_EQ(q->rows(), 3u);
  EXPECT_TRUE(q->Contains({2, 2}));
  EXPECT_FALSE(q->Contains({5, 5}));
  EXPECT_EQ(q->Describe(), "btree(c0,c1)");
}

TEST(SortedOverlayTest, ConcurrentProbesDuringPromotionChain) {
  // TSan coverage: promotion reads a shared base index while probe
  // threads hammer the published one — const probes keep no mutable
  // scratch, and Promote never mutates its input.
  Rng rng(99);
  const int k = 2;
  const int d = 5;
  auto version = std::make_shared<const Relation>(RandomRel(&rng, k, d, 150));
  auto index = std::make_shared<const SortedIndex>(*version, d);

  std::vector<std::thread> probers;
  for (int t = 0; t < 2; ++t) {
    probers.emplace_back([index, d, t]() {
      Rng prng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 200; ++i) {
        Tuple probe{prng.Below(uint64_t{1} << d),
                    prng.Below(uint64_t{1} << d)};
        std::vector<DyadicBox> gaps;
        index->GapsContaining(probe.data(), AppendTo(&gaps));
        if (index->Contains(probe)) {
          EXPECT_TRUE(gaps.empty());
        }
        std::vector<DyadicBox> all;
        index->AllGaps(AppendTo(&all));
      }
    });
  }

  auto chained = index;
  auto chained_version = version;
  for (int epoch = 0; epoch < 4; ++epoch) {
    std::vector<Tuple> add = {RandomTupleOf(&rng, k, d)};
    const EffectiveDelta eff = MakeEffective(*chained_version, add, {});
    auto next_version = std::make_shared<const Relation>(
        ApplyDeltaToRelation(*chained_version, eff));
    chained = SortedIndex::Promote(chained, chained_version, *next_version,
                                   eff.added, eff.removed);
    chained_version = next_version;
  }
  for (std::thread& t : probers) t.join();
  SortedIndex fresh(*chained_version, d);
  ExpectIndexesAgree(*chained, fresh, *chained_version, &rng, d, {});
}

}  // namespace
}  // namespace tetris
