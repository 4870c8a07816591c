// Epoch/snapshot versioning of the resident relation store
// (server/relation_registry.h): every mutation installs a NEW immutable
// version under one global monotonic epoch, snapshots pin versions
// against concurrent mutations, and the registry's (relation, layout)
// IndexCache honors its lifetime contract — mutations evict promptly,
// retired versions are re-evicted and freed only once no snapshot pins
// them.
#include "server/relation_registry.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "box_collect.h"
#include "util/rng.h"

namespace tetris {
namespace {

Relation Pairs(const char* name, std::vector<Tuple> tuples) {
  return Relation::Make(name, {"a", "b"}, std::move(tuples));
}

TEST(RelationRegistryTest, MutationsBumpOneGlobalEpoch) {
  RelationRegistry reg;
  std::string error;
  EXPECT_EQ(reg.epoch(), 0u);
  ASSERT_TRUE(reg.Register(Pairs("R", {{1, 2}}), &error)) << error;
  ASSERT_TRUE(reg.Register(Pairs("S", {{2, 3}}), &error)) << error;
  EXPECT_EQ(reg.epoch(), 2u);
  EXPECT_EQ(reg.size(), 2u);

  // The counter is global, not per-name: a (name, epoch) pair names one
  // immutable version forever.
  RegistrySnapshot snap = reg.Snap();
  ASSERT_NE(snap.Find("R"), nullptr);
  EXPECT_EQ(snap.Find("R")->epoch, 1u);
  EXPECT_EQ(snap.Find("S")->epoch, 2u);
  EXPECT_EQ(snap.epoch, 2u);
  EXPECT_EQ(snap.Find("missing"), nullptr);

  // Replace / Append / Drop each take the next tick; untouched names
  // keep their stamp.
  ASSERT_TRUE(reg.Replace(Pairs("R", {{7, 8}}), &error)) << error;
  EXPECT_EQ(reg.Snap().Find("R")->epoch, 3u);
  EXPECT_EQ(reg.Snap().Find("S")->epoch, 2u);
  ASSERT_TRUE(reg.AppendRows("S", {{9, 9}}, &error)) << error;
  EXPECT_EQ(reg.Snap().Find("S")->epoch, 4u);
  ASSERT_TRUE(reg.Drop("S", &error)) << error;
  EXPECT_EQ(reg.epoch(), 5u);
  EXPECT_EQ(reg.Snap().Find("S"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RelationRegistryTest, RejectsBadMutations) {
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(Pairs("R", {{1, 2}}), &error)) << error;
  EXPECT_FALSE(reg.Register(Pairs("R", {{3, 4}}), &error));
  EXPECT_NE(error.find("already registered"), std::string::npos) << error;
  EXPECT_FALSE(reg.Replace(Pairs("Q", {}), &error));
  EXPECT_NE(error.find("not registered"), std::string::npos) << error;
  EXPECT_FALSE(reg.AppendRows("Q", {{1, 2}}, &error));
  EXPECT_FALSE(reg.Drop("Q", &error));

  // An arity-mismatched append fails without installing anything.
  const uint64_t before = reg.epoch();
  EXPECT_FALSE(reg.AppendRows("R", {{1, 2, 3}}, &error));
  EXPECT_NE(error.find("arity"), std::string::npos) << error;
  EXPECT_EQ(reg.epoch(), before);
  EXPECT_EQ(reg.Snap().Find("R")->rel->size(), 1u);
}

TEST(RelationRegistryTest, AppendIsCopyOnWrite) {
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(Pairs("R", {{1, 2}}), &error)) << error;
  RegistrySnapshot old = reg.Snap();
  ASSERT_TRUE(reg.AppendRows("R", {{3, 4}, {1, 2}}, &error)) << error;
  // The pinned old version is untouched; the new one merged and
  // deduplicated into a distinct Relation object.
  EXPECT_EQ(old.Find("R")->rel->size(), 1u);
  RegistrySnapshot now = reg.Snap();
  EXPECT_EQ(now.Find("R")->rel->size(), 2u);
  EXPECT_NE(old.Find("R")->rel.get(), now.Find("R")->rel.get());
  EXPECT_TRUE(now.Find("R")->rel->Contains({3, 4}));
}

// The one row-level write path: random appends and deletes — with
// duplicates inside a write, present appends, absent deletes, and rows
// below and above every row — each install exactly Relation::Make of the
// expected set, row for row and with the same MaxValue, and report the
// effective delta. Binary and 0-ary relations alike.
TEST(RelationRegistryTest, RowWritesInstallTheCanonicalRelation) {
  for (const std::vector<std::string>& attrs :
       {std::vector<std::string>{"a", "b"}, std::vector<std::string>{}}) {
    SCOPED_TRACE(attrs.size());
    Rng rng(31 + attrs.size());
    auto row = [&](uint64_t lo, uint64_t hi) {
      Tuple t;
      for (size_t c = 0; c < attrs.size(); ++c) {
        t.push_back(lo + rng.Below(hi - lo));
      }
      return t;
    };
    std::set<Tuple> want;
    std::vector<Tuple> initial;
    for (int i = 0; i < 12; ++i) initial.push_back(row(10, 30));
    want.insert(initial.begin(), initial.end());
    RelationRegistry reg;
    std::string error;
    ASSERT_TRUE(reg.Register(Relation::Make("R", attrs, initial), &error))
        << error;
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE(step);
      const bool remove = rng.Chance(0.5);
      std::vector<Tuple> rows;
      for (uint64_t i = 0, n = 1 + rng.Below(4); i < n; ++i) {
        rows.push_back(row(5, 35));
      }
      rows.push_back(rows[rng.Below(rows.size())]);  // a duplicate
      if (step % 5 == 0) rows.push_back(Tuple(attrs.size(), 0));
      if (step % 7 == 0) rows.push_back(Tuple(attrs.size(), 99));
      std::set<Tuple> effective;
      for (const Tuple& t : rows) {
        if ((want.count(t) > 0) == remove) effective.insert(t);
      }
      RelationDelta delta;
      ASSERT_TRUE(remove ? reg.DeleteRows("R", rows, &error, &delta)
                         : reg.AppendRows("R", rows, &error, &delta))
          << error;
      const std::vector<Tuple> changed(effective.begin(), effective.end());
      EXPECT_EQ(remove ? delta.removed : delta.added, changed);
      EXPECT_TRUE((remove ? delta.added : delta.removed).empty());
      for (const Tuple& t : changed) {
        if (remove) {
          want.erase(t);
        } else {
          want.insert(t);
        }
      }
      const Relation expect = Relation::Make(
          "R", attrs, std::vector<Tuple>(want.begin(), want.end()));
      const RegistrySnapshot snap = reg.Snap();
      const Relation& got = *snap.Find("R")->rel;
      ASSERT_EQ(got.size(), expect.size());
      EXPECT_EQ(got.raw(), expect.raw());
      EXPECT_EQ(got.MaxValue(), expect.MaxValue());
      EXPECT_EQ(got.attrs(), expect.attrs());
    }
  }
}

TEST(RelationRegistryTest, SnapshotIsolationUnderConcurrentReplace) {
  // A writer replaces R as fast as it can with single-marker versions
  // (every tuple of version k starts with k); readers snapshot and must
  // always see an internally consistent version — all four tuples, one
  // marker — never torn data.
  RelationRegistry reg;
  auto marked = [](uint64_t k) {
    return Pairs("R", {{k, 0}, {k, 1}, {k, 2}, {k, 3}});
  };
  std::string error;
  ASSERT_TRUE(reg.Register(marked(0), &error)) << error;

  constexpr uint64_t kReplaces = 200;
  std::atomic<bool> done{false};
  std::thread writer([&]() {
    for (uint64_t k = 1; k <= kReplaces; ++k) {
      std::string werr;
      EXPECT_TRUE(reg.Replace(marked(k), &werr)) << werr;
      if (k % 16 == 0) reg.PurgeRetired();
    }
    done.store(true);
  });

  // Keep snapshotting until the writer is done AND a minimum number of
  // reads happened — a slow-starting reader (sanitizer builds) must not
  // let the writer finish first and skip the checks entirely.
  size_t checked = 0;
  uint64_t last_epoch = 0;
  while (!done.load() || checked < 8) {
    RegistrySnapshot snap = reg.Snap();
    const RelationVersion* v = snap.Find("R");
    ASSERT_NE(v, nullptr);
    const Relation& rel = *v->rel;
    ASSERT_EQ(rel.size(), 4u);
    for (TupleRef t : rel.rows()) EXPECT_EQ(t[0], rel.row(0)[0]);
    // Epochs only grow across successive snapshots.
    EXPECT_GE(snap.epoch, last_epoch);
    last_epoch = snap.epoch;
    ++checked;
  }
  writer.join();
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(reg.Snap().Find("R")->rel->row(0)[0], kReplaces);

  // With every reader snapshot gone, the retired backlog drains fully.
  reg.PurgeRetired();
  EXPECT_EQ(reg.retired(), 0u);
}

TEST(RelationRegistryTest, MutationEvictsIndexesAndPurgeFreesRetired) {
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(Pairs("R", {{1, 2}, {2, 3}}), &error)) << error;
  RegistrySnapshot pin = reg.Snap();
  const Relation* v0 = pin.Find("R")->rel.get();

  IndexCache& cache = reg.index_cache();
  IndexLayout layout;
  layout.depth = 4;
  bool built = false;
  std::shared_ptr<const SortedIndex> idx = cache.Get(v0, layout, &built);
  ASSERT_NE(idx, nullptr);
  EXPECT_TRUE(built);
  EXPECT_EQ(cache.entries(), 1u);

  // Replace evicts the retired version's entries immediately, but parks
  // the version itself while the snapshot pins it — an in-flight query
  // over that snapshot may legally RE-insert entries for it.
  ASSERT_TRUE(reg.Replace(Pairs("R", {{5, 6}}), &error)) << error;
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(reg.retired(), 1u);
  EXPECT_EQ(reg.PurgeRetired(), 0u);
  std::shared_ptr<const SortedIndex> again = cache.Get(v0, layout, &built);
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(built);
  EXPECT_EQ(cache.entries(), 1u);

  // Once nothing pins the snapshot, the purge is final: the re-inserted
  // entry is evicted WITH the version, so a recycled heap address can
  // never resurrect another relation's index.
  pin.relations.clear();
  idx.reset();
  again.reset();
  EXPECT_EQ(reg.PurgeRetired(), 1u);
  EXPECT_EQ(reg.retired(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(RelationRegistryTest, RowMutationsPromoteIndexesAcrossEpochs) {
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(Pairs("R", {{1, 2}, {2, 3}, {4, 5}}), &error))
      << error;
  auto v0 = reg.Snap().Find("R")->rel;

  IndexCache& cache = reg.index_cache();
  IndexLayout layout;
  layout.depth = 4;
  bool built = false;
  std::shared_ptr<const SortedIndex> idx = cache.Get(v0.get(), layout, &built);
  ASSERT_TRUE(built);
  idx.reset();

  // AppendRows carries the entry to the new version with the delta in
  // its overlay: one promote, zero builds, zero evictions.
  ASSERT_TRUE(reg.AppendRows("R", {{7, 7}}, &error)) << error;
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.promotes(), 1u);
  EXPECT_EQ(cache.compactions(), 0u);

  auto v1 = reg.Snap().Find("R")->rel;
  ASSERT_NE(v0.get(), v1.get());
  std::shared_ptr<const SortedIndex> promoted =
      cache.Get(v1.get(), layout, &built);
  EXPECT_FALSE(built);  // served from the promoted entry
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_TRUE(ProbeFindsNoGap(*promoted, {7, 7}));
  EXPECT_EQ(promoted->rows(), 4u);
  // The promoted index reads the RETIRED version's buffer and pins it.
  EXPECT_EQ(promoted->pin().get(), v0.get());

  // DeleteRows promotes again (chained: still pinning v0).
  ASSERT_TRUE(reg.DeleteRows("R", {{1, 2}}, &error)) << error;
  EXPECT_EQ(cache.promotes(), 2u);
  EXPECT_EQ(cache.builds(), 1u);
  const auto v2 = reg.Snap().Find("R")->rel;
  std::shared_ptr<const SortedIndex> chained =
      cache.Get(v2.get(), layout, &built);
  EXPECT_FALSE(built);
  EXPECT_FALSE(ProbeFindsNoGap(*chained, {1, 2}));
  EXPECT_TRUE(ProbeFindsNoGap(*chained, {7, 7}));
  EXPECT_EQ(chained->pin().get(), v0.get());

  // The pin rides the retired-version parking: v0 survives the purge
  // while the promoted entries live (the test's own version handles are
  // dropped first so only the index pin holds it), then drains once the
  // entries die.
  promoted.reset();
  chained.reset();
  const Relation* v0_raw = v0.get();
  v0.reset();
  v1.reset();
  reg.PurgeRetired();
  EXPECT_GE(reg.retired(), 1u);
  EXPECT_EQ(cache.Get(v2.get(), layout)->pin().get(), v0_raw);
  cache.Clear();
  reg.PurgeRetired();
  EXPECT_EQ(reg.retired(), 0u);
}

TEST(RelationRegistryTest, NoopRowMutationsPromoteNothing) {
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(Pairs("R", {{1, 2}}), &error)) << error;
  const auto v0 = reg.Snap().Find("R")->rel;
  IndexCache& cache = reg.index_cache();
  IndexLayout layout;
  layout.depth = 4;
  cache.Get(v0.get(), layout);

  // An effectively empty append reuses the old version's storage — the
  // entry stays keyed under the SAME version, no promotion needed.
  ASSERT_TRUE(reg.AppendRows("R", {{1, 2}}, &error)) << error;
  EXPECT_EQ(reg.Snap().Find("R")->rel.get(), v0.get());
  EXPECT_EQ(cache.promotes(), 0u);
  EXPECT_EQ(cache.entries(), 1u);
}

}  // namespace
}  // namespace tetris
