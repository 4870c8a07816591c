// The byte-capped LRU result cache (server/result_cache.h): hit/miss
// accounting, LRU order under refreshes, relation-name invalidation,
// the zero-capacity / oversized-entry edge cases — and the delta
// layer: an entry survives a row-level delta iff its output space is
// disjoint from every touched box, otherwise it records the touched
// boxes and awaits a patch; a delta applies only to entries stamped at
// the version it was made against, so a result computed before a write
// the cache has processed is never served. Key semantics against the
// live registry are covered in join_service_test.cc — this suite tests
// the container itself.
#include "server/result_cache.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace tetris {
namespace {

// A synthetic ok-result with `tuples` binary rows — enough payload for
// EstimateBytes to be meaningfully nonzero.
std::shared_ptr<const EngineResult> FakeResult(size_t tuples) {
  auto r = std::make_shared<EngineResult>();
  r->ok = true;
  for (size_t i = 0; i < tuples; ++i) r->tuples.push_back(Tuple{i, i + 1});
  return r;
}

// A meta stamped at epoch 1 whose atoms all bind column c to attribute
// c (the touched-box tests below override var_ids where the binding
// matters).
CacheEntryMeta Meta(
    const std::vector<std::pair<std::string, std::vector<int>>>& atoms,
    int depth = 4, int num_attrs = 3,
    const std::string& engine = "tetris_preloaded") {
  CacheEntryMeta m;
  m.engine = engine;
  m.depth = depth;
  m.num_attrs = num_attrs;
  for (const auto& [name, var_ids] : atoms) {
    m.atoms.push_back({name, var_ids});
    m.epochs.emplace(name, 1);
  }
  return m;
}

// `meta` stamped at `epoch` for relation `name`.
CacheEntryMeta At(CacheEntryMeta meta, const std::string& name,
                  uint64_t epoch) {
  meta.epochs[name] = epoch;
  return meta;
}

// The effective delta of one row write to `name`.
RelationDelta Delta(const std::string& name, uint64_t from, uint64_t to,
                    std::vector<Tuple> added,
                    std::vector<Tuple> removed = {}) {
  RelationDelta d;
  d.name = name;
  d.from_epoch = from;
  d.to_epoch = to;
  d.added = std::move(added);
  d.removed = std::move(removed);
  return d;
}

TEST(ResultCacheTest, HitsMissesAndSharedOwnership) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}, {"S", {1, 2}}});
  EXPECT_EQ(cache.Lookup(meta).result, nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  auto result = FakeResult(8);
  cache.Put(meta, result);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.insertions(), 1u);
  EXPECT_EQ(cache.bytes(), ResultCache::EstimateBytes(*result));

  const CacheLookup hit = cache.Lookup(meta);
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.touched.empty());
  EXPECT_EQ(hit.result.get(), result.get());  // shared, not copied
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // The same shape at another version misses and leaves the entry.
  EXPECT_EQ(cache.Lookup(At(meta, "S", 2)).result, nullptr);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.entries(), 1u);

  // Entries survive for holders after removal from the cache.
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(hit.result->tuples.size(), 8u);
}

TEST(ResultCacheTest, LruEvictionRespectsLookupRefresh) {
  // Capacity for exactly two identically-sized entries.
  auto a = FakeResult(16);
  auto b = FakeResult(16);
  auto c = FakeResult(16);
  const size_t one = ResultCache::EstimateBytes(*a);
  ResultCache cache(2 * one);
  const CacheEntryMeta ma = Meta({{"A", {0, 1}}});
  const CacheEntryMeta mb = Meta({{"B", {0, 1}}});
  const CacheEntryMeta mc = Meta({{"C", {0, 1}}});
  cache.Put(ma, a);
  cache.Put(mb, b);
  EXPECT_EQ(cache.entries(), 2u);

  // Touching "a" makes "b" the LRU victim when "c" needs room.
  ASSERT_NE(cache.Lookup(ma).result, nullptr);
  cache.Put(mc, c);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Lookup(ma).result, nullptr);
  EXPECT_EQ(cache.Lookup(mb).result, nullptr);
  EXPECT_NE(cache.Lookup(mc).result, nullptr);
  EXPECT_LE(cache.bytes(), cache.capacity_bytes());
}

TEST(ResultCacheTest, InvalidateRelationFreesEveryTouchingEntry) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta tri = Meta({{"R", {0, 1}}, {"S", {1, 2}}, {"T", {0, 2}}});
  const CacheEntryMeta path = Meta({{"S", {0, 1}}, {"T", {1, 2}}});
  const CacheEntryMeta other = Meta({{"X", {0, 1}}});
  cache.Put(tri, FakeResult(4));
  cache.Put(path, FakeResult(4));
  cache.Put(other, FakeResult(4));
  EXPECT_EQ(cache.entries(), 3u);

  EXPECT_EQ(cache.InvalidateRelation("S"), 2u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.invalidations(), 2u);
  EXPECT_EQ(cache.Lookup(tri).result, nullptr);
  EXPECT_EQ(cache.Lookup(path).result, nullptr);
  EXPECT_NE(cache.Lookup(other).result, nullptr);
  // Invalidations are not LRU evictions.
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.InvalidateRelation("S"), 0u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}});
  cache.Put(meta, FakeResult(2));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.insertions(), 0u);
  EXPECT_EQ(cache.Lookup(meta).result, nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCacheTest, OversizedResultsAreNotCached) {
  auto small = FakeResult(2);
  auto big = FakeResult(4096);
  ResultCache cache(ResultCache::EstimateBytes(*small) + 1);
  const CacheEntryMeta msmall = Meta({{"R", {0, 1}}});
  const CacheEntryMeta mbig = Meta({{"B", {0, 1}}});
  cache.Put(mbig, big);
  EXPECT_EQ(cache.entries(), 0u);
  // A too-big Put must not evict what already fits.
  cache.Put(msmall, small);
  cache.Put(mbig, big);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Lookup(msmall).result, nullptr);
}

TEST(ResultCacheTest, PutReplacesTheEntryOfItsShape) {
  ResultCache cache(1u << 20);
  auto v1 = FakeResult(2);
  auto v2 = FakeResult(32);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}});
  cache.Put(meta, v1);
  cache.Put(meta, v2);
  EXPECT_EQ(cache.entries(), 1u);
  const CacheLookup got = cache.Lookup(meta);
  ASSERT_NE(got.result, nullptr);
  EXPECT_EQ(got.result.get(), v2.get());
  EXPECT_EQ(cache.bytes(), ResultCache::EstimateBytes(*v2));

  // One entry per shape across versions too: a patched read's result
  // at the new epoch replaces the entry it patched.
  cache.InvalidateDelta(Delta("R", 1, 2, {{1, 2}}));
  EXPECT_EQ(cache.patch_bases(), 1u);
  auto v3 = FakeResult(4);
  cache.Put(At(meta, "R", 2), v3);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.patch_bases(), 0u);
  EXPECT_EQ(cache.Lookup(At(meta, "R", 2)).result.get(), v3.get());
  EXPECT_EQ(cache.bytes(), ResultCache::EstimateBytes(*v3));
}

TEST(ResultCacheTest, EstimateBytesGrowsWithPayload) {
  auto empty = FakeResult(0);
  auto big = FakeResult(1000);
  const size_t base = ResultCache::EstimateBytes(*empty);
  EXPECT_GT(base, 0u);  // bookkeeping overhead, never free
  EXPECT_GE(ResultCache::EstimateBytes(*big), base + 1000 * 2 * 8);

  // A sharded result also holds its per-shard entries, stats and box
  // strings included: a cold served result carries one per shard.
  EngineResult sharded = *big;
  for (int id = 0; id < 4; ++id) {
    ShardRunInfo info;
    info.shard_id = id;
    info.box = "<" + std::to_string(id & 1) + ", " +
               std::to_string(id >> 1) + ", λ>";
    sharded.shard_runs.push_back(info);
  }
  size_t shard_bytes = 0;
  for (const ShardRunInfo& info : sharded.shard_runs) {
    shard_bytes += sizeof(ShardRunInfo) + info.box.size();
  }
  EXPECT_GE(ResultCache::EstimateBytes(sharded),
            ResultCache::EstimateBytes(*big) + shard_bytes);
}

// --- delta precision ---------------------------------------------------

// The survive-iff-disjoint property. An atom R(A,A) (var_ids {0,0})
// only projects tuples agreeing on both columns onto the output space:
// a delta of disagreeing tuples touches nothing, so the entry SURVIVES
// the epoch bump and is served at the new epoch; one agreeing tuple
// touches its unit box, and the entry awaits a patch.
TEST(ResultCacheTest, EntrySurvivesDeltaDisjointFromItsOutputSpace) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = Meta({{"R", {0, 0}}}, /*depth=*/3,
                                   /*num_attrs=*/1);
  auto result = FakeResult(4);
  cache.Put(meta, result);

  // Disagreeing delta tuples project onto no output point.
  EXPECT_EQ(cache.InvalidateDelta(Delta("R", 1, 2, {{1, 2}, {5, 3}})), 0u);
  EXPECT_EQ(cache.survivals(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.patch_bases(), 0u);
  // The old stamp misses, the new one hits.
  EXPECT_EQ(cache.Lookup(meta).result, nullptr);
  EXPECT_EQ(cache.Lookup(At(meta, "R", 2)).result.get(), result.get());

  // An agreeing tuple touches Unit(5): the entry awaits a patch over it.
  EXPECT_EQ(cache.InvalidateDelta(Delta("R", 2, 3, {}, {{5, 5}})), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.patch_bases(), 1u);
  const size_t hits = cache.hits();
  const CacheLookup patch = cache.Lookup(At(meta, "R", 3));
  EXPECT_EQ(patch.result.get(), result.get());
  ASSERT_EQ(patch.touched.size(), 1u);
  EXPECT_EQ(patch.touched[0][0], DyadicInterval::Unit(5, 3));
  EXPECT_EQ(cache.hits(), hits);  // a patched read is a miss
}

TEST(ResultCacheTest, EmptyDeltaRestampsEveryReferencingEntry) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta r = Meta({{"R", {0, 1}}});
  const CacheEntryMeta x = Meta({{"X", {0, 1}}});
  cache.Put(r, FakeResult(2));
  cache.Put(x, FakeResult(2));
  EXPECT_EQ(cache.InvalidateDelta(Delta("R", 1, 9, {})), 0u);
  EXPECT_EQ(cache.survivals(), 1u);  // only the referencing entry counts
  EXPECT_NE(cache.Lookup(At(r, "R", 9)).result, nullptr);
  EXPECT_NE(cache.Lookup(x).result, nullptr);
}

TEST(ResultCacheTest, OffGridDeltaValueDropsTheEntry) {
  ResultCache cache(1u << 20);
  // Even the repeated-binding entry cannot survive a value off the
  // depth-3 grid — the delta changes which depth is servable at all —
  // and no patch over a part of the output space can absorb it.
  const CacheEntryMeta meta = Meta({{"R", {0, 0}}}, /*depth=*/3,
                                   /*num_attrs=*/1);
  cache.Put(meta, FakeResult(2));
  EXPECT_EQ(cache.InvalidateDelta(Delta("R", 1, 2, {{100, 200}})), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.patch_bases(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResultCacheTest, TouchedBoxesGrowAcrossDeltasAndCountTowardBytes) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}}, /*depth=*/3,
                                   /*num_attrs=*/2);
  auto result = FakeResult(4);
  cache.Put(meta, result);
  const size_t base = ResultCache::EstimateBytes(*result);

  EXPECT_EQ(cache.InvalidateDelta(Delta("R", 1, 2, {{1, 2}})), 1u);
  EXPECT_EQ(cache.bytes(), base + sizeof(DyadicBox));
  // The second delta repeats one box and adds one; the entry already
  // awaits a patch, so it is not invalidated again.
  EXPECT_EQ(cache.InvalidateDelta(Delta("R", 2, 3, {{3, 3}}, {{1, 2}})), 0u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.survivals(), 0u);
  EXPECT_EQ(cache.bytes(), base + 2 * sizeof(DyadicBox));

  EXPECT_EQ(cache.Lookup(At(meta, "R", 2)).result, nullptr);
  const CacheLookup patch = cache.Lookup(At(meta, "R", 3));
  EXPECT_EQ(patch.result.get(), result.get());
  ASSERT_EQ(patch.touched.size(), 2u);
  EXPECT_EQ(patch.touched[0][0], DyadicInterval::Unit(1, 3));
  EXPECT_EQ(patch.touched[1][1], DyadicInterval::Unit(3, 3));
}

// A result computed at epoch 1 reaches the cache only after the 1 -> 2
// delta was applied (a reader whose snapshot predates a concurrent
// write). The next, effectively empty, 2 -> 3 delta must not restamp it
// past the write it never saw.
TEST(ResultCacheTest, ResultPutAfterAMissedDeltaIsNeverServed) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}}, /*depth=*/3,
                                   /*num_attrs=*/2);
  cache.InvalidateDelta(Delta("R", 1, 2, {{1, 2}}));
  cache.Put(meta, FakeResult(4));
  cache.InvalidateDelta(Delta("R", 2, 3, {}));
  EXPECT_EQ(cache.Lookup(At(meta, "R", 3)).result, nullptr);
  EXPECT_EQ(cache.Lookup(At(meta, "R", 2)).result, nullptr);
  EXPECT_EQ(cache.entries(), 0u);  // dropped, not restamped
  EXPECT_EQ(cache.survivals(), 0u);
}

// The same with a Replace (InvalidateRelation) in place of the 1 -> 2
// delta: the pre-Replace result must never be served after it.
TEST(ResultCacheTest, ResultPutAfterAReplaceIsNeverServed) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}}, /*depth=*/3,
                                   /*num_attrs=*/2);
  cache.InvalidateRelation("R");
  cache.Put(meta, FakeResult(4));
  cache.InvalidateDelta(Delta("R", 2, 3, {}));
  EXPECT_EQ(cache.Lookup(At(meta, "R", 3)).result, nullptr);
  EXPECT_EQ(cache.entries(), 0u);
}

// A result computed past a delta the cache has not processed yet (the
// write's version was installed, its cache side is still to come)
// already reflects it: the late delta leaves the entry alone.
TEST(ResultCacheTest, EntryStampedPastTheDeltaIsLeftAlone) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = At(
      Meta({{"R", {0, 1}}}, /*depth=*/3, /*num_attrs=*/2), "R", 2);
  auto result = FakeResult(4);
  cache.Put(meta, result);
  EXPECT_EQ(cache.InvalidateDelta(Delta("R", 1, 2, {{1, 2}})), 0u);
  EXPECT_EQ(cache.survivals(), 0u);
  EXPECT_EQ(cache.Lookup(meta).result.get(), result.get());
}

TEST(ResultCacheTest, EntriesAwaitingAPatchEvictInLruOrder) {
  auto a = FakeResult(16);
  const size_t one = ResultCache::EstimateBytes(*a);
  ResultCache cache(3 * one);
  const CacheEntryMeta ma = Meta({{"A", {0, 1}}}, /*depth=*/3,
                                 /*num_attrs=*/2);
  const CacheEntryMeta mb = Meta({{"B", {0, 1}}}, /*depth=*/3,
                                 /*num_attrs=*/2);
  const CacheEntryMeta mc = Meta({{"C", {0, 1}}}, /*depth=*/3,
                                 /*num_attrs=*/2);
  cache.Put(mb, FakeResult(16));
  cache.Put(ma, a);
  cache.InvalidateDelta(Delta("A", 1, 2, {{1, 1}}));  // awaits a patch
  EXPECT_EQ(cache.patch_bases(), 1u);

  // "B" is older than "A", so it goes first, not the entry awaiting a
  // patch.
  cache.Put(mc, FakeResult(16));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.patch_bases(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Lookup(mb).result, nullptr);
  EXPECT_NE(cache.Lookup(mc).result, nullptr);
  EXPECT_EQ(cache.Lookup(At(ma, "A", 2)).result.get(), a.get());
}

TEST(ResultCacheTest, InvalidateRelationFreesEntriesAwaitingAPatch) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}}, /*depth=*/3,
                                   /*num_attrs=*/2);
  cache.Put(meta, FakeResult(2));
  cache.InvalidateDelta(Delta("R", 1, 2, {{1, 2}}));
  EXPECT_EQ(cache.patch_bases(), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  // Replace/Drop carry no delta — nothing can patch R's entry now. It
  // was counted when it stopped serving, so not again.
  EXPECT_EQ(cache.InvalidateRelation("R"), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.patch_bases(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

}  // namespace
}  // namespace tetris
