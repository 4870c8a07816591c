// The byte-capped LRU result cache (server/result_cache.h): hit/miss
// accounting, LRU order under refreshes, relation-name invalidation,
// the zero-capacity / oversized-entry edge cases — and the delta
// precision layer: entries survive a row-level delta iff their output
// space is disjoint from every touched box, intersecting entries demote
// to patch bases, and bases evict before servable entries. Key
// *semantics* against the live registry (epoch stamps keeping stale
// entries unreachable) are covered in join_service_test.cc — this suite
// tests the container itself.
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

// A meta whose atoms all bind column c to attribute c (the touched-box
// tests below override var_ids where the binding matters).
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

TEST(ResultCacheTest, HitsMissesAndSharedOwnership) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}, {"S", {1, 2}}});
  const std::string key = ResultCache::Key(meta);
  EXPECT_EQ(cache.Get(key), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  auto result = FakeResult(8);
  cache.Put(meta, result);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.insertions(), 1u);
  EXPECT_EQ(cache.bytes(), ResultCache::EstimateBytes(*result));

  std::shared_ptr<const EngineResult> hit = cache.Get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), result.get());  // shared, not copied
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Entries survive for holders after removal from the cache.
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(hit->tuples.size(), 8u);
}

TEST(ResultCacheTest, KeyStampsEpochsAndBaseKeyDoesNot) {
  CacheEntryMeta meta = Meta({{"R", {0, 1}}});
  meta.epochs["R"] = 7;
  const std::string key = ResultCache::Key(meta);
  EXPECT_NE(key.find("R@7:0,1,"), std::string::npos) << key;
  EXPECT_EQ(ResultCache::BaseKey(meta).find("@"), std::string::npos);
  // Same shape at another version: different key, same base key.
  CacheEntryMeta later = meta;
  later.epochs["R"] = 8;
  EXPECT_NE(ResultCache::Key(later), key);
  EXPECT_EQ(ResultCache::BaseKey(later), ResultCache::BaseKey(meta));
}

TEST(ResultCacheTest, LruEvictionRespectsGetRefresh) {
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
  ASSERT_NE(cache.Get(ResultCache::Key(ma)), nullptr);
  cache.Put(mc, c);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Get(ResultCache::Key(ma)), nullptr);
  EXPECT_EQ(cache.Get(ResultCache::Key(mb)), nullptr);
  EXPECT_NE(cache.Get(ResultCache::Key(mc)), nullptr);
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
  EXPECT_EQ(cache.Get(ResultCache::Key(tri)), nullptr);
  EXPECT_EQ(cache.Get(ResultCache::Key(path)), nullptr);
  EXPECT_NE(cache.Get(ResultCache::Key(other)), nullptr);
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
  EXPECT_EQ(cache.Get(ResultCache::Key(meta)), nullptr);
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
  EXPECT_NE(cache.Get(ResultCache::Key(msmall)), nullptr);
}

TEST(ResultCacheTest, PutRefreshesAnExistingKey) {
  ResultCache cache(1u << 20);
  auto v1 = FakeResult(2);
  auto v2 = FakeResult(32);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}});
  cache.Put(meta, v1);
  cache.Put(meta, v2);
  EXPECT_EQ(cache.entries(), 1u);
  std::shared_ptr<const EngineResult> got = cache.Get(ResultCache::Key(meta));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), v2.get());
  EXPECT_EQ(cache.bytes(), ResultCache::EstimateBytes(*v2));
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
// the epoch bump and is served under its restamped key; one agreeing
// tuple touches its unit box, and the entry demotes.
TEST(ResultCacheTest, EntrySurvivesDeltaDisjointFromItsOutputSpace) {
  ResultCache cache(1u << 20);
  CacheEntryMeta meta = Meta({{"R", {0, 0}}}, /*depth=*/3, /*num_attrs=*/1);
  auto result = FakeResult(4);
  cache.Put(meta, result);

  // Disagreeing delta tuples project onto no output point.
  EXPECT_EQ(cache.InvalidateDelta("R", {{1, 2}, {5, 3}}, /*new_epoch=*/2), 0u);
  EXPECT_EQ(cache.survivals(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.patch_bases(), 0u);
  // The old key is gone, the restamped key hits.
  EXPECT_EQ(cache.Get(ResultCache::Key(meta)), nullptr);
  meta.epochs["R"] = 2;
  EXPECT_EQ(cache.Get(ResultCache::Key(meta)).get(), result.get());

  // An agreeing tuple touches Unit(5) — the entry demotes.
  EXPECT_EQ(cache.InvalidateDelta("R", {{5, 5}}, /*new_epoch=*/3), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.patch_bases(), 1u);
}

TEST(ResultCacheTest, EmptyDeltaRestampsEveryReferencingEntry) {
  ResultCache cache(1u << 20);
  CacheEntryMeta r = Meta({{"R", {0, 1}}});
  const CacheEntryMeta x = Meta({{"X", {0, 1}}});
  cache.Put(r, FakeResult(2));
  cache.Put(x, FakeResult(2));
  EXPECT_EQ(cache.InvalidateDelta("R", {}, /*new_epoch=*/9), 0u);
  EXPECT_EQ(cache.survivals(), 1u);  // only the referencing entry counts
  r.epochs["R"] = 9;
  EXPECT_NE(cache.Get(ResultCache::Key(r)), nullptr);
  EXPECT_NE(cache.Get(ResultCache::Key(x)), nullptr);
}

TEST(ResultCacheTest, OffGridDeltaValueTouchesEverything) {
  ResultCache cache(1u << 20);
  // Even the repeated-binding entry cannot survive a value off the
  // depth-3 grid — the delta changes which depth is servable at all.
  const CacheEntryMeta meta = Meta({{"R", {0, 0}}}, /*depth=*/3,
                                   /*num_attrs=*/1);
  cache.Put(meta, FakeResult(2));
  EXPECT_EQ(cache.InvalidateDelta("R", {{100, 200}}, /*new_epoch=*/2), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.patch_bases(), 1u);
}

TEST(ResultCacheTest, DemotedEntryIsFoundByBaseKeyWithItsOldEpochs) {
  ResultCache cache(1u << 20);
  CacheEntryMeta meta = Meta({{"R", {0, 1}}}, /*depth=*/3, /*num_attrs=*/2);
  meta.epochs["R"] = 5;
  auto result = FakeResult(4);
  cache.Put(meta, result);
  EXPECT_EQ(cache.InvalidateDelta("R", {{1, 2}}, /*new_epoch=*/6), 1u);

  std::optional<PatchBase> base =
      cache.FindPatchBase(ResultCache::BaseKey(meta));
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->result.get(), result.get());
  // The base's meta still names the versions it was computed over —
  // exactly what DeltasSince needs as its starting epoch.
  EXPECT_EQ(base->meta.epochs.at("R"), 5u);
  // Not servable as a hit anymore.
  EXPECT_EQ(cache.Get(ResultCache::Key(meta)), nullptr);
  // The base stays for later misses.
  EXPECT_TRUE(cache.FindPatchBase(ResultCache::BaseKey(meta)).has_value());
}

TEST(ResultCacheTest, NewerDemotionSupersedesTheOlderBase) {
  ResultCache cache(1u << 20);
  CacheEntryMeta meta = Meta({{"R", {0, 1}}}, /*depth=*/3, /*num_attrs=*/2);
  auto v1 = FakeResult(2);
  cache.Put(meta, v1);
  cache.InvalidateDelta("R", {{1, 2}}, /*new_epoch=*/2);

  CacheEntryMeta meta2 = meta;
  meta2.epochs["R"] = 2;
  auto v2 = FakeResult(4);
  cache.Put(meta2, v2);
  cache.InvalidateDelta("R", {{3, 3}}, /*new_epoch=*/3);

  EXPECT_EQ(cache.patch_bases(), 1u);  // one slot per base key
  std::optional<PatchBase> base =
      cache.FindPatchBase(ResultCache::BaseKey(meta));
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->result.get(), v2.get());  // the newest, shortest chain
  EXPECT_EQ(base->meta.epochs.at("R"), 2u);
}

TEST(ResultCacheTest, PatchBasesEvictBeforeServableEntries) {
  auto a = FakeResult(16);
  const size_t one = ResultCache::EstimateBytes(*a);
  ResultCache cache(2 * one);
  const CacheEntryMeta ma = Meta({{"A", {0, 1}}}, /*depth=*/3,
                                 /*num_attrs=*/2);
  const CacheEntryMeta mb = Meta({{"B", {0, 1}}}, /*depth=*/3,
                                 /*num_attrs=*/2);
  const CacheEntryMeta mc = Meta({{"C", {0, 1}}}, /*depth=*/3,
                                 /*num_attrs=*/2);
  cache.Put(ma, a);
  cache.InvalidateDelta("A", {{1, 1}}, /*new_epoch=*/2);  // demote to base
  EXPECT_EQ(cache.patch_bases(), 1u);

  cache.Put(mb, FakeResult(16));
  cache.Put(mc, FakeResult(16));  // needs room: the base goes, not "B"
  EXPECT_EQ(cache.patch_bases(), 0u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.Get(ResultCache::Key(mb)), nullptr);
  EXPECT_NE(cache.Get(ResultCache::Key(mc)), nullptr);
  EXPECT_FALSE(cache.FindPatchBase(ResultCache::BaseKey(ma)).has_value());
}

TEST(ResultCacheTest, InvalidateRelationClearsPatchBasesToo) {
  ResultCache cache(1u << 20);
  const CacheEntryMeta meta = Meta({{"R", {0, 1}}}, /*depth=*/3,
                                   /*num_attrs=*/2);
  cache.Put(meta, FakeResult(2));
  cache.InvalidateDelta("R", {{1, 2}}, /*new_epoch=*/2);
  EXPECT_EQ(cache.patch_bases(), 1u);
  // Replace/Drop breaks the delta chain — a base for R is useless.
  EXPECT_EQ(cache.InvalidateRelation("R"), 1u);
  EXPECT_EQ(cache.patch_bases(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

}  // namespace
}  // namespace tetris
