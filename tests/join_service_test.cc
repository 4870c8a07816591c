// The resident join service (server/join_service.h): snapshot pinning
// under concurrent mutations, result-cache correctness (cached ==
// uncached on every engine; epoch bumps make stale entries
// unreachable), per-query deadlines, and the per-query error shape
// (failures ride in result->ok/error, like BatchResult).
#include "server/join_service.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "workload/generators.h"

namespace tetris {
namespace {

// Registers the canonical triangle pool {R(A,B), S(B,C), T(A,C)}.
void RegisterRandomTriangle(JoinService* service, size_t tuples, int d,
                            uint64_t seed) {
  const struct {
    const char* name;
    const char* a;
    const char* b;
  } specs[] = {{"R", "A", "B"}, {"S", "B", "C"}, {"T", "A", "C"}};
  uint64_t s = seed;
  for (const auto& spec : specs) {
    std::string error;
    ASSERT_TRUE(service->Register(
        RandomRelation(spec.name, {spec.a, spec.b}, tuples, d, ++s), &error))
        << error;
  }
}

QueryRequest Triangle(EngineKind kind) {
  QueryRequest q;
  q.relations = {"R", "S", "T"};
  q.engine = kind;
  return q;
}

TEST(JoinServiceTest, CachedMatchesUncachedAcrossAllEngines) {
  JoinService service;
  RegisterRandomTriangle(&service, /*tuples=*/40, /*d=*/5, /*seed=*/3);
  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindName(kind));
    const QueryRequest query = Triangle(kind);
    const QueryResponse cold = service.Execute(query);
    const QueryResponse hit = service.Execute(query);
    QueryRequest fresh = query;
    fresh.use_cache = false;
    const QueryResponse uncached = service.Execute(fresh);
    ASSERT_NE(cold.result, nullptr);
    EXPECT_EQ(cold.result->ok, uncached.result->ok)
        << uncached.result->error;
    if (!cold.result->ok) continue;  // the engine rejects this shape
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_FALSE(uncached.cache_hit);
    EXPECT_EQ(hit.result->tuples, uncached.result->tuples);
    EXPECT_EQ(cold.result->tuples, uncached.result->tuples);
  }
}

// A 0-ary relation is a boolean on the served path too: cold reads,
// reads patched after a write to it, and reads patched after a write to
// the other atom all answer like the relation's truth value.
TEST(JoinServiceTest, NullaryRelationActsAsABoolean) {
  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindName(kind));
    JoinService service;
    std::string error;
    ASSERT_TRUE(service.Register(Relation("E", {}), &error)) << error;
    ASSERT_TRUE(service.Register(Relation::Make("R", {"A"}, {{1}, {3}}),
                                 &error))
        << error;
    auto expect = [&](std::vector<std::string> relations,
                      const std::vector<Tuple>& want) {
      QueryRequest q;
      q.relations = std::move(relations);
      q.engine = kind;
      const QueryResponse r = service.Execute(q);
      ASSERT_TRUE(r.result->ok) << r.result->error;
      EXPECT_EQ(r.result->tuples, want);
    };
    expect({"E", "R"}, {});
    expect({"E"}, {});
    ASSERT_TRUE(service.AppendRows("E", {Tuple{}}, &error)) << error;
    expect({"E", "R"}, {{1}, {3}});
    expect({"E"}, {Tuple{}});
    ASSERT_TRUE(service.AppendRows("R", {{5}}, &error)) << error;
    expect({"E", "R"}, {{1}, {3}, {5}});
    ASSERT_TRUE(service.DeleteRows("E", {Tuple{}}, &error)) << error;
    expect({"E", "R"}, {});
    expect({"E"}, {});
  }
}

TEST(JoinServiceTest, EpochBumpMakesStaleEntriesUnreachable) {
  JoinService service;
  std::string error;
  // A one-triangle instance whose output we control exactly:
  // R(1,2) ⋈ S(2,3) ⋈ T(3,1) closes, so the join has one tuple.
  ASSERT_TRUE(service.Register(
      Relation::Make("R", {"A", "B"}, {{1, 2}}), &error)) << error;
  ASSERT_TRUE(service.Register(
      Relation::Make("S", {"B", "C"}, {{2, 3}}), &error)) << error;
  ASSERT_TRUE(service.Register(
      Relation::Make("T", {"C", "A"}, {{3, 1}}), &error)) << error;

  const QueryRequest query = Triangle(EngineKind::kTetrisPreloaded);
  const QueryResponse one = service.Execute(query);
  ASSERT_TRUE(one.result->ok) << one.result->error;
  EXPECT_EQ(one.result->tuples.size(), 1u);
  EXPECT_TRUE(service.Execute(query).cache_hit);

  // Replacing S breaks the triangle: the epoch bump means the next
  // lookup computes a key no stale entry can match — the cached
  // one-tuple result must never be served again.
  ASSERT_TRUE(service.Replace(
      Relation::Make("S", {"B", "C"}, {{2, 4}}), &error)) << error;
  const QueryResponse zero = service.Execute(query);
  EXPECT_FALSE(zero.cache_hit);
  ASSERT_TRUE(zero.result->ok) << zero.result->error;
  EXPECT_EQ(zero.result->tuples.size(), 0u);
  EXPECT_GT(zero.epoch, one.epoch);
  EXPECT_TRUE(service.Execute(query).cache_hit);  // new version re-cached

  // Appending the closing tuple restores the join through yet another
  // epoch; the empty cached result is equally unreachable.
  ASSERT_TRUE(service.AppendRows("S", {{2, 3}}, &error)) << error;
  const QueryResponse two = service.Execute(query);
  EXPECT_FALSE(two.cache_hit);
  ASSERT_TRUE(two.result->ok) << two.result->error;
  EXPECT_EQ(two.result->tuples.size(), 1u);
  EXPECT_GT(service.cache().invalidations(), 0u);
}

TEST(JoinServiceTest, OrderHintStaysOutOfTheCacheKeyButReachesTheEngine) {
  JoinService service;
  RegisterRandomTriangle(&service, /*tuples=*/30, /*d=*/5, /*seed=*/7);
  const QueryRequest plain = Triangle(EngineKind::kTetrisPreloaded);
  ASSERT_TRUE(service.Execute(plain).result->ok);

  // An order hint steers traversal, never the tuple set — so it is
  // deliberately NOT part of the key and hits the plain entry.
  QueryRequest hinted = plain;
  hinted.order = {2, 0, 1};
  const QueryResponse hit = service.Execute(hinted);
  EXPECT_TRUE(hit.cache_hit);

  // Off the cache path the hint reaches the engine, including its
  // validation: a non-permutation is a per-query error.
  QueryRequest bad = hinted;
  bad.use_cache = false;
  bad.order = {0, 0, 1};
  const QueryResponse rejected = service.Execute(bad);
  EXPECT_FALSE(rejected.result->ok);
  EXPECT_NE(rejected.result->error.find("order"), std::string::npos)
      << rejected.result->error;
  // And a valid hint produces the same tuples as no hint.
  QueryRequest good = hinted;
  good.use_cache = false;
  QueryRequest base = plain;
  base.use_cache = false;
  EXPECT_EQ(service.Execute(good).result->tuples,
            service.Execute(base).result->tuples);
}

TEST(JoinServiceTest, PerQueryErrorsDoNotPoisonTheService) {
  JoinService service;
  RegisterRandomTriangle(&service, /*tuples=*/20, /*d=*/5, /*seed=*/11);
  QueryRequest unknown;
  unknown.relations = {"R", "Nope"};
  const QueryResponse bad = service.Execute(unknown);
  ASSERT_NE(bad.result, nullptr);
  EXPECT_FALSE(bad.result->ok);
  EXPECT_NE(bad.result->error.find("unknown relation 'Nope'"),
            std::string::npos)
      << bad.result->error;

  QueryRequest empty;
  EXPECT_FALSE(service.Execute(empty).result->ok);

  // Failures never land in the cache and never block later queries.
  EXPECT_TRUE(service.Execute(Triangle(EngineKind::kLeapfrog)).result->ok);
}

TEST(JoinServiceTest, DeadlineExceededIsAPerQueryError) {
  ServiceOptions options;
  options.default_deadline_ms = 1e-6;  // effectively already expired
  JoinService service(options);
  RegisterRandomTriangle(&service, /*tuples=*/50, /*d=*/5, /*seed=*/13);

  // The service default applies when the request carries none.
  const QueryResponse expired =
      service.Execute(Triangle(EngineKind::kTetrisPreloaded));
  ASSERT_NE(expired.result, nullptr);
  EXPECT_FALSE(expired.result->ok);
  EXPECT_NE(expired.result->error.find("deadline exceeded"),
            std::string::npos)
      << expired.result->error;

  // The failure was not cached: the same query fails again instead of
  // being served a cached error.
  const QueryResponse again =
      service.Execute(Triangle(EngineKind::kTetrisPreloaded));
  EXPECT_FALSE(again.result->ok);
  EXPECT_FALSE(again.cache_hit);

  // deadline_ms = 0 opts out of the default; a generous explicit
  // deadline also passes. Both still produce correct tuples.
  QueryRequest no_deadline = Triangle(EngineKind::kTetrisPreloaded);
  no_deadline.deadline_ms = 0;
  const QueryResponse ok = service.Execute(no_deadline);
  ASSERT_TRUE(ok.result->ok) << ok.result->error;
  QueryRequest generous = Triangle(EngineKind::kTetrisPreloaded);
  generous.deadline_ms = 60000;
  const QueryResponse also_ok = service.Execute(generous);
  // (cache hit or fresh run — either way the deadline did not fire)
  ASSERT_TRUE(also_ok.result->ok) << also_ok.result->error;
  EXPECT_EQ(also_ok.result->tuples, ok.result->tuples);

  // With the ok result cached, even a default-deadline query succeeds:
  // the hit path never touches the engine, so there is nothing to
  // abandon. Serving under deadline pressure is exactly what the cache
  // is for.
  const QueryResponse served =
      service.Execute(Triangle(EngineKind::kTetrisPreloaded));
  EXPECT_TRUE(served.cache_hit);
  EXPECT_TRUE(served.result->ok);

  // A patched read honours the deadline as a cold read does. Append to S
  // a row (b, c) closing a triangle over R's (a, b) and T's (a, c), so
  // the shard holding the new output point has a task to abandon.
  Tuple row;
  {
    const RegistrySnapshot snap = service.registry().Snap();
    const Relation& s = *snap.Find("S")->rel;
    for (TupleRef r : snap.Find("R")->rel->rows()) {
      for (TupleRef t : snap.Find("T")->rel->rows()) {
        if (r[0] == t[0] && !s.Contains({r[1], t[1]})) row = {r[1], t[1]};
      }
    }
  }
  ASSERT_FALSE(row.empty());
  std::string error;
  ASSERT_TRUE(service.AppendRows("S", {row}, &error)) << error;
  const QueryResponse late =
      service.Execute(Triangle(EngineKind::kTetrisPreloaded));
  EXPECT_FALSE(late.result->ok);
  EXPECT_NE(late.result->error.find("deadline exceeded"), std::string::npos)
      << late.result->error;
  EXPECT_FALSE(late.patched);
  EXPECT_FALSE(late.cache_hit);

  // The late read cached nothing, so the entry still awaits its patch:
  // a read without a deadline patches it.
  const QueryResponse patched = service.Execute(no_deadline);
  ASSERT_TRUE(patched.result->ok) << patched.result->error;
  EXPECT_TRUE(patched.patched);
  EXPECT_FALSE(patched.cache_hit);
  QueryRequest scratch = no_deadline;
  scratch.use_cache = false;
  EXPECT_EQ(patched.result->tuples, service.Execute(scratch).result->tuples);
}

TEST(JoinServiceTest, ZeroCacheBytesDisablesCaching) {
  ServiceOptions options;
  options.cache_bytes = 0;
  JoinService service(options);
  RegisterRandomTriangle(&service, /*tuples=*/30, /*d=*/5, /*seed=*/19);
  const QueryRequest query = Triangle(EngineKind::kTetrisPreloaded);
  const QueryResponse first = service.Execute(query);
  const QueryResponse second = service.Execute(query);
  ASSERT_TRUE(first.result->ok) << first.result->error;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(first.result->tuples, second.result->tuples);
  EXPECT_EQ(service.cache().entries(), 0u);
}

TEST(JoinServiceTest, OneRowAppendPromotesIndexesWithZeroRebuilds) {
  // The rebuild-free maintenance contract (index/sorted_index.h): a
  // 1-row append promotes every cached index of the mutated relation to
  // the new epoch with a delta overlay — re-serving a cache-miss query
  // afterwards performs ZERO full SortedIndex builds.
  JoinService service;
  RegisterRandomTriangle(&service, /*tuples=*/60, /*d=*/5, /*seed=*/11);
  QueryRequest query = Triangle(EngineKind::kTetrisPreloaded);
  query.depth = 6;  // stable across the append

  const QueryResponse cold = service.Execute(query);
  ASSERT_TRUE(cold.result->ok) << cold.result->error;
  const IndexCache& ix = service.registry().index_cache();
  const size_t builds_before = ix.builds();
  const size_t promotes_before = ix.promotes();
  EXPECT_GT(builds_before, 0u);

  // Append one genuinely new row to S (an effective, non-noop delta).
  Tuple row{31, 31};
  {
    const auto snap = service.registry().Snap();
    while (snap.Find("S")->rel->Contains(row)) --row[1];
  }
  std::string error;
  ASSERT_TRUE(service.AppendRows("S", {row}, &error)) << error;

  // The mutation itself performed no builds, only promotions (S had at
  // least its default-layout index cached).
  EXPECT_EQ(ix.builds(), builds_before);
  EXPECT_GE(ix.promotes(), promotes_before + 1);
  EXPECT_EQ(ix.compactions(), 0u);  // 1 overlay row is far below threshold
  // The promoted index pins the retired version's buffer: it survives
  // the purge until its cache entry dies.
  service.registry().PurgeRetired();
  EXPECT_GE(service.registry().retired(), 1u);

  // Re-serve as a cache miss (use_cache=false forces a cold run through
  // the shard pipeline and the index cache): still zero builds — R and
  // T hit their unchanged entries, S hits its promoted overlay.
  QueryRequest miss = query;
  miss.use_cache = false;
  const QueryResponse reserved = service.Execute(miss);
  ASSERT_TRUE(reserved.result->ok) << reserved.result->error;
  EXPECT_FALSE(reserved.cache_hit);
  EXPECT_EQ(ix.builds(), builds_before);

  // And the overlay-served result agrees with the service's own
  // cached/patched answer for the new epoch.
  const QueryResponse patched = service.Execute(query);
  ASSERT_TRUE(patched.result->ok) << patched.result->error;
  EXPECT_EQ(reserved.result->tuples, patched.result->tuples);

  // Dropping the promoted entries releases the pin and the retired
  // version drains.
  service.registry().index_cache().Clear();
  service.registry().PurgeRetired();
  EXPECT_EQ(service.registry().retired(), 0u);
}

TEST(JoinServiceTest, PatchedReadTakesEveryBaseIndexFromTheCache) {
  // A patched read runs the Tetris family over the registry's cached
  // base indexes, which the write promoted, fetched under the shard
  // pipeline's layout rule (LayoutFor): one cache hit per atom, no build.
  JoinService service;
  RegisterRandomTriangle(&service, /*tuples=*/60, /*d=*/5, /*seed=*/11);
  QueryRequest query = Triangle(EngineKind::kTetrisPreloaded);
  query.depth = 5;  // stable across the append
  ASSERT_TRUE(service.Execute(query).result->ok);

  Tuple row{31, 31};
  {
    const auto snap = service.registry().Snap();
    while (snap.Find("S")->rel->Contains(row)) --row[1];
  }
  std::string error;
  ASSERT_TRUE(service.AppendRows("S", {row}, &error)) << error;

  const IndexCache& ix = service.registry().index_cache();
  const size_t hits_before = ix.hits();
  const size_t builds_before = ix.builds();
  const QueryResponse patched = service.Execute(query);
  ASSERT_TRUE(patched.result->ok) << patched.result->error;
  EXPECT_TRUE(patched.patched);
  EXPECT_EQ(ix.hits(), hits_before + 3);
  EXPECT_EQ(ix.builds(), builds_before);

  QueryRequest scratch = query;
  scratch.use_cache = false;
  EXPECT_EQ(patched.result->tuples, service.Execute(scratch).result->tuples);
}

TEST(JoinServiceTest, SnapshotsStayConsistentUnderConcurrentMutations) {
  // A writer alternates replace/append on S while readers execute
  // cached and uncached triangle queries: every admitted query must
  // complete ok over SOME pinned snapshot (never torn state, never a
  // stale cache entry — the tuple count always matches one of the
  // versions), and per-reader epochs never go backwards.
  JoinService service;
  RegisterRandomTriangle(&service, /*tuples=*/60, /*d=*/5, /*seed=*/23);
  std::atomic<bool> readers_done{false};
  std::thread writer([&]() {
    // Mutate until every reader finished, so the mutation stream spans
    // the readers' whole lifetime no matter how the scheduler slices
    // the threads.
    for (int k = 0; !readers_done.load(); ++k) {
      std::string error;
      if (k % 2 == 0) {
        EXPECT_TRUE(service.Replace(
            RandomRelation("S", {"B", "C"}, 60, 5,
                           static_cast<uint64_t>(100 + k)), &error))
            << error;
      } else {
        EXPECT_TRUE(service.AppendRows(
            "S", {{static_cast<uint64_t>(k % 32), 1}}, &error))
            << error;
      }
    }
  });

  std::vector<std::thread> readers;
  std::atomic<size_t> queries{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r]() {
      uint64_t last_epoch = 0;
      for (int i = 0; i < 40; ++i) {
        QueryRequest query = Triangle(r == 0
                                          ? EngineKind::kTetrisPreloaded
                                          : EngineKind::kGenericJoin);
        query.use_cache = (i % 2) == 0;
        const QueryResponse resp = service.Execute(query);
        ASSERT_NE(resp.result, nullptr);
        EXPECT_TRUE(resp.result->ok) << resp.result->error;
        EXPECT_GE(resp.epoch, last_epoch);
        last_epoch = resp.epoch;
        queries.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  readers_done.store(true);
  writer.join();
  EXPECT_EQ(queries.load(), 80u);
  // With the service idle, the retired backlog drains completely once
  // the index cache lets go: an append after an uncached Tetris read
  // promotes that read's index, which pins the retired version
  // (SortedIndex::pin()) while its entry stays cached.
  service.registry().index_cache().Clear();
  service.registry().PurgeRetired();
  EXPECT_EQ(service.registry().retired(), 0u);
}

}  // namespace
}  // namespace tetris
