// Differential suite for the SortedIndex permutation view + delta
// overlay (index/sorted_index.h): a promoted index must answer every
// probe entry point — GapsContaining, AllGaps, GapsIntersecting —
// exactly like a fresh rebuild over the mutated
// relation, across layouts, insert+delete mixes, chained promotions,
// and the compaction boundary. TSan runs this suite in CI (promotion
// races with in-flight probes).
#include "index/sorted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
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

// The fence a base permutation over `rows` rows carries: one 8-byte
// slot per 16 ranks, rounded up.
size_t FenceBytes(size_t rows) { return (rows + 15) / 16 * sizeof(uint64_t); }

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

  // GapsContaining: every live tuple, every delta tuple, and random
  // probes; no gap iff the probe is a live row.
  std::vector<Tuple> probes = interesting_probes;
  for (TupleRef t : new_rel.rows()) probes.push_back(t.ToTuple());
  for (int i = 0; i < 32; ++i) probes.push_back(RandomTupleOf(rng, k, d));
  for (const Tuple& t : probes) {
    std::vector<DyadicBox> og, fg;
    overlay.GapsContaining(t.data(), AppendTo(&og));
    fresh.GapsContaining(t.data(), AppendTo(&fg));
    EXPECT_EQ(BoxKeys(og), BoxKeys(fg))
        << overlay.Describe() << " t=" << t[0];
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
      // Permutation view + fence + overlay footprint, never a
      // materialized copy.
      EXPECT_EQ(promoted->MemoryBytes(),
                old_rel->size() * sizeof(uint32_t) +
                    FenceBytes(old_rel->size()) +
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
    EXPECT_EQ(p->MemoryBytes(), new_rel.size() * sizeof(uint32_t) +
                                    FenceBytes(new_rel.size()));
    ExpectIndexesAgree(*p, SortedIndex(new_rel, d), new_rel, &rng, d, add);
  }
}

TEST(SortedOverlayTest, OverlayBookkeepingSemantics) {
  const int d = 4;
  auto rel = std::make_shared<const Relation>(Relation::Make(
      "R", {"A", "B"}, {{1, 1}, {2, 2}, {3, 3}}));
  auto base = std::make_shared<const SortedIndex>(*rel, d);
  // Three ranks and one fence slot.
  EXPECT_EQ(base->MemoryBytes(), 3 * sizeof(uint32_t) + sizeof(uint64_t));
  EXPECT_EQ(base->Describe(), "btree(c0,c1)");

  // Remove a base row and add a new one.
  Relation v2 = Relation::Make("R", {"A", "B"}, {{1, 1}, {3, 3}, {5, 5}});
  auto p = SortedIndex::Promote(base, rel, v2, {{5, 5}}, {{2, 2}});
  EXPECT_EQ(p->rows(), 3u);
  EXPECT_EQ(p->overlay_rows(), 2u);
  EXPECT_EQ(p->MemoryBytes(), 3 * sizeof(uint32_t) + sizeof(uint64_t) +
                                  2 * sizeof(uint64_t) + sizeof(uint32_t));
  EXPECT_EQ(p->Describe(), "btree(c0,c1)+ovl{1a,1r}");
  EXPECT_FALSE(ProbeFindsNoGap(*p, {2, 2}));
  EXPECT_TRUE(ProbeFindsNoGap(*p, {5, 5}));

  // Re-adding the tombstoned row un-removes; removing the overlay row
  // un-adds — the overlay cancels back to empty.
  auto v2p = std::make_shared<const Relation>(std::move(v2));
  Relation v3 = Relation::Make("R", {"A", "B"}, {{1, 1}, {2, 2}, {3, 3}});
  auto q = SortedIndex::Promote(p, v2p, v3, {{2, 2}}, {{5, 5}});
  EXPECT_EQ(q->overlay_rows(), 0u);
  EXPECT_EQ(q->rows(), 3u);
  EXPECT_TRUE(ProbeFindsNoGap(*q, {2, 2}));
  EXPECT_FALSE(ProbeFindsNoGap(*q, {5, 5}));
  EXPECT_EQ(q->Describe(), "btree(c0,c1)");
}

// The overlay has no room for a 0-ary row, so a 0-ary promotion
// rebuilds: adding the empty tuple fills the relation, and removing it
// again leaves the one 0-dimension gap.
TEST(SortedOverlayTest, NullaryPromotionRebuilds) {
  auto empty = std::make_shared<const Relation>(Relation("E", {}));
  auto full = std::make_shared<const Relation>(
      Relation::Make("E", {}, {Tuple{}}));
  auto base = std::make_shared<const SortedIndex>(*empty, 3);
  bool compacted = false;
  auto filled = SortedIndex::Promote(base, empty, *full, {Tuple{}}, {},
                                     &compacted);
  EXPECT_TRUE(compacted);
  EXPECT_TRUE(ProbeFindsNoGap(*filled, Tuple{}));
  std::vector<DyadicBox> gaps;
  filled->AllGaps(AppendTo(&gaps));
  EXPECT_TRUE(gaps.empty());
  auto emptied = SortedIndex::Promote(filled, full, *empty, {}, {Tuple{}},
                                      &compacted);
  EXPECT_TRUE(compacted);
  EXPECT_FALSE(ProbeFindsNoGap(*emptied, Tuple{}));
  emptied->GapsContaining(nullptr, AppendTo(&gaps));
  EXPECT_EQ(gaps, std::vector<DyadicBox>{DyadicBox::Universal(0)});
}

// Reference for GapsContaining: the band at the first level where the
// permuted probe leaves `sorted` (the rows permuted into index order,
// sorted and deduplicated), as maximal aligned blocks left to right,
// each in relation column order under the probe's unit prefix. Empty
// when the probe is a row. A linear scan per level, independent of the
// index's search.
std::vector<DyadicBox> ReferenceBand(const std::vector<Tuple>& sorted,
                                     const std::vector<int>& order, int d,
                                     const Tuple& t) {
  const int k = static_cast<int>(order.size());
  const uint64_t dom_max = (uint64_t{1} << d) - 1;
  Tuple p(k);
  for (int l = 0; l < k; ++l) p[l] = t[order[l]];
  size_t lo = 0, hi = sorted.size();
  for (int level = 0; level < k; ++level) {
    uint64_t band_lo = 0, band_hi = dom_max;
    size_t eq_lo = hi, eq_hi = hi;
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t v = sorted[i][level];
      if (v < p[level]) {
        band_lo = v + 1;
      } else if (v > p[level]) {
        band_hi = std::min(band_hi, v - 1);
      } else {
        if (eq_lo == hi) eq_lo = i;
        eq_hi = i + 1;
      }
    }
    if (eq_lo < eq_hi) {
      lo = eq_lo;
      hi = eq_hi;
      continue;
    }
    std::vector<DyadicBox> out;
    for (uint64_t cur = band_lo; cur <= band_hi;) {
      int s = 0;
      while (s < d && cur % (uint64_t{2} << s) == 0 &&
             cur + (uint64_t{2} << s) - 1 <= band_hi) {
        ++s;
      }
      DyadicBox b = DyadicBox::Universal(k);
      for (int i = 0; i < level; ++i) {
        b[order[i]] = DyadicInterval::Unit(p[i], d);
      }
      b[order[level]] = {cur >> s, static_cast<uint8_t>(d - s)};
      out.push_back(b);
      cur += uint64_t{1} << s;
    }
    return out;
  }
  return {};
}

std::vector<std::string> BoxSequence(const std::vector<DyadicBox>& boxes) {
  std::vector<std::string> keys;
  for (const DyadicBox& b : boxes) keys.push_back(b.ToString());
  return keys;
}

// Every GapsContaining box sequence equals the reference band, which is
// empty iff the probe is a row.
void ExpectReferenceBands(const SortedIndex& index, const Relation& rel,
                          const std::vector<int>& order, int d,
                          const std::vector<Tuple>& probes) {
  std::vector<Tuple> sorted;
  for (TupleRef t : rel.rows()) {
    Tuple p(order.size());
    for (size_t l = 0; l < order.size(); ++l) p[l] = t[order[l]];
    sorted.push_back(std::move(p));
  }
  std::sort(sorted.begin(), sorted.end());
  for (const Tuple& t : probes) {
    std::vector<DyadicBox> got;
    index.GapsContaining(t.data(), AppendTo(&got));
    const std::vector<DyadicBox> want = ReferenceBand(sorted, order, d, t);
    ASSERT_EQ(BoxSequence(got), BoxSequence(want))
        << index.Describe() << " probe " << DyadicBox::Point(t, d).ToString();
    ASSERT_EQ(got.empty(), rel.Contains(t)) << index.Describe();
  }
}

// Probe exactness at the fence's scale: sizes around the 16-rank leaf
// (0, 1, 15, 16, 17, 33) and 4,099 rows, identity and reversed layouts,
// a uniform leading column and one with only two distinct values, and
// probes at 0 and 2^d - 1. A fresh build must match the reference band;
// a promotion with additions and tombstones (the slow neighbour path,
// fully tombstoned groups included) must match it too, and emit every
// enumeration in a fresh build's order.
TEST(SortedOverlayTest, ProbesExactAtFenceScale) {
  const int d = 12;
  const uint64_t dom_max = (uint64_t{1} << d) - 1;
  const size_t sizes[] = {0, 1, 15, 16, 17, 33, 4099};
  uint64_t seed = 0;
  for (int k : {2, 3}) {
    for (bool two_leads : {false, true}) {
      for (bool reversed : {false, true}) {
        std::vector<int> order(k);
        for (int c = 0; c < k; ++c) order[c] = reversed ? k - 1 - c : c;
        for (size_t n : sizes) {
          SCOPED_TRACE("k=" + std::to_string(k) + " two_leads=" +
                       std::to_string(two_leads) + " reversed=" +
                       std::to_string(reversed) + " n=" + std::to_string(n));
          Rng rng(++seed * 7919);
          auto draw = [&]() {
            Tuple t = RandomTupleOf(&rng, k, d);
            if (two_leads) t[order[0]] = rng.Below(2) ? 2 : dom_max;
            return t;
          };
          std::set<Tuple> distinct;
          if (n >= 2) {
            // The domain's ends appear in the data too.
            Tuple lo_row(k, 0), hi_row(k, dom_max);
            if (two_leads) lo_row[order[0]] = 2;
            distinct.insert(lo_row);
            distinct.insert(hi_row);
          }
          while (distinct.size() < n) distinct.insert(draw());
          auto rel = std::make_shared<const Relation>(Relation::Make(
              "R", k == 2 ? std::vector<std::string>{"A", "B"}
                          : std::vector<std::string>{"A", "B", "C"},
              std::vector<Tuple>(distinct.begin(), distinct.end())));
          ASSERT_EQ(rel->size(), n);

          // Rows, their neighbours and the domain's ends per component,
          // and random points.
          std::vector<Tuple> probes = {Tuple(k, 0), Tuple(k, dom_max)};
          for (int i = 0; i < 48 && n > 0; ++i) {
            const Tuple row = rel->row(rng.Below(n)).ToTuple();
            probes.push_back(row);
            for (int c = 0; c < k; ++c) {
              for (uint64_t v : {uint64_t{0}, dom_max, row[c] - 1, row[c] + 1}) {
                Tuple t = row;
                t[c] = v & dom_max;
                probes.push_back(t);
              }
            }
          }
          for (int i = 0; i < 48; ++i) probes.push_back(draw());
          for (int i = 0; i < 16; ++i) probes.push_back(RandomTupleOf(&rng, k, d));

          auto base = std::make_shared<const SortedIndex>(*rel, order, d);
          ASSERT_NO_FATAL_FAILURE(
              ExpectReferenceBands(*base, *rel, order, d, probes));

          // Additions and tombstones, within the overlay's budget: new
          // rows, random removals, and a whole leading-value group.
          std::vector<Tuple> add, del;
          const size_t budget = SortedIndex::kCompactSlack + n / 16;
          for (size_t i = 0; i < budget / 2; ++i) add.push_back(draw());
          if (n > 0) {
            const uint64_t lead = rel->row(rng.Below(n))[order[0]];
            std::vector<Tuple> group;
            for (TupleRef t : rel->rows()) {
              if (t[order[0]] == lead) group.push_back(t.ToTuple());
            }
            if (group.size() <= budget / 4) del = group;
            while (del.size() < budget / 2) {
              del.push_back(rel->row(rng.Below(n)).ToTuple());
            }
          }
          const EffectiveDelta eff = MakeEffective(*rel, add, del);
          const Relation next = ApplyDeltaToRelation(*rel, eff);
          bool compacted = true;
          auto promoted = SortedIndex::Promote(base, rel, next, eff.added,
                                               eff.removed, &compacted);
          ASSERT_FALSE(compacted);
          ASSERT_EQ(promoted->overlay_rows(),
                    eff.added.size() + eff.removed.size());
          probes.insert(probes.end(), eff.added.begin(), eff.added.end());
          probes.insert(probes.end(), eff.removed.begin(), eff.removed.end());
          ASSERT_NO_FATAL_FAILURE(
              ExpectReferenceBands(*promoted, next, order, d, probes));

          const SortedIndex fresh(next, order, d);
          std::vector<DyadicBox> pa, fa;
          promoted->AllGaps(AppendTo(&pa));
          fresh.AllGaps(AppendTo(&fa));
          EXPECT_EQ(BoxSequence(pa), BoxSequence(fa));
          for (int i = 0; i < 8; ++i) {
            DyadicBox box = DyadicBox::Universal(k);
            for (int c = 0; c < k; ++c) {
              const int len = static_cast<int>(rng.Below(d + 1));
              box[c] = {rng.Below(uint64_t{1} << len),
                        static_cast<uint8_t>(len)};
            }
            std::vector<DyadicBox> pi, fi, filtered;
            promoted->GapsIntersecting(box, AppendTo(&pi));
            fresh.GapsIntersecting(box, AppendTo(&fi));
            for (const DyadicBox& g : fa) {
              if (box.Intersects(g)) filtered.push_back(g);
            }
            EXPECT_EQ(BoxSequence(fi), BoxSequence(filtered))
                << "box=" << box.ToString();
            EXPECT_EQ(BoxSequence(pi), BoxSequence(fi))
                << "box=" << box.ToString();
          }
        }
      }
    }
  }
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
    probers.emplace_back([index, version, d, t]() {
      Rng prng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 200; ++i) {
        Tuple probe{prng.Below(uint64_t{1} << d),
                    prng.Below(uint64_t{1} << d)};
        std::vector<DyadicBox> gaps;
        index->GapsContaining(probe.data(), AppendTo(&gaps));
        EXPECT_EQ(gaps.empty(), version->Contains(probe));
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
