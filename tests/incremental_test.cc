// Incremental view maintenance (engine/incremental.h + the registry's
// effective deltas + the result cache's touched boxes + the service
// patch path), checked against the differential oracle of
// tests/incremental_oracle.h: every patched result must equal the
// from-scratch recomputation, across all engines, randomized
// insert/delete workloads, sharded + budgeted options, and the
// service's cached / restamped / patched serving paths.
#include "engine/incremental.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incremental_oracle.h"
#include "server/join_service.h"
#include "server/relation_registry.h"
#include "workload/generators.h"

namespace tetris {
namespace {

// Deterministic split-free PRNG for the randomized workloads.
uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

// --- TouchedBoxOfTuple / TouchedOutputBoxes ----------------------------

TEST(TouchedBoxTest, BindsUnitIntervalsAtBoundDimensions) {
  DyadicBox box;
  ASSERT_EQ(TouchedBoxOfTuple({0, 2}, /*num_attrs=*/3, /*depth=*/3,
                              Tuple{2, 5}, &box),
            TupleTouch::kBox);
  EXPECT_EQ(box[0], DyadicInterval::Unit(2, 3));
  EXPECT_TRUE(box[1].IsLambda());  // unbound attribute stays universal
  EXPECT_EQ(box[2], DyadicInterval::Unit(5, 3));
}

TEST(TouchedBoxTest, RepeatedVariableDisagreementTouchesNothing) {
  DyadicBox box;
  EXPECT_EQ(TouchedBoxOfTuple({0, 0}, /*num_attrs=*/1, /*depth=*/3,
                              Tuple{3, 4}, &box),
            TupleTouch::kNone);
  ASSERT_EQ(TouchedBoxOfTuple({0, 0}, /*num_attrs=*/1, /*depth=*/3,
                              Tuple{3, 3}, &box),
            TupleTouch::kBox);
  EXPECT_EQ(box[0], DyadicInterval::Unit(3, 3));
}

TEST(TouchedBoxTest, OffGridValueTouchesEverything) {
  DyadicBox box;
  EXPECT_EQ(TouchedBoxOfTuple({0, 1}, /*num_attrs=*/2, /*depth=*/2,
                              Tuple{7, 1}, &box),
            TupleTouch::kEverything);
}

TEST(TouchedBoxTest, OutputBoxesDeduplicateAndCollapseToUniversal) {
  QueryInstance tri = RandomTriangle(/*tuples_per_rel=*/10, /*d=*/4,
                                     /*seed=*/5);
  // The same changed tuple through the same atom yields one box.
  const std::vector<DyadicBox> one =
      TouchedOutputBoxes(tri.query, 4, "R", {{1, 2}, {1, 2}});
  EXPECT_EQ(one.size(), 1u);
  EXPECT_FALSE(one[0].Support().empty());
  // An unknown relation name touches nothing.
  EXPECT_TRUE(TouchedOutputBoxes(tri.query, 4, "Nope", {{1, 2}}).empty());
  // Any off-grid value collapses the set to the universal box.
  const std::vector<DyadicBox> all =
      TouchedOutputBoxes(tri.query, 4, "R", {{1, 2}, {99, 0}});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].Support().empty());
}

// --- registry effective deltas -----------------------------------------

TEST(RegistryDeltaTest, AppendAndDeleteRecordEffectiveDeltas) {
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(Relation::Make("R", {"a", "b"}, {{1, 2}, {3, 4}}),
                           &error))
      << error;
  const uint64_t e0 = reg.epoch();

  RelationDelta add;
  ASSERT_TRUE(reg.AppendRows("R", {{3, 4}, {5, 6}, {5, 6}}, &error, &add))
      << error;
  EXPECT_EQ(add.added, (std::vector<Tuple>{{5, 6}}));  // duplicate filtered
  EXPECT_TRUE(add.removed.empty());
  EXPECT_EQ(add.from_epoch, e0);
  EXPECT_EQ(add.to_epoch, reg.epoch());

  RelationDelta del;
  ASSERT_TRUE(reg.DeleteRows("R", {{1, 2}, {9, 9}}, &error, &del)) << error;
  EXPECT_EQ(del.removed, (std::vector<Tuple>{{1, 2}}));  // absentee filtered
  EXPECT_TRUE(del.added.empty());
  EXPECT_EQ(del.from_epoch, add.to_epoch);
  EXPECT_EQ(del.to_epoch, reg.epoch());
}

TEST(RegistryDeltaTest, NoopMutationsBumpTheEpochButReuseStorage) {
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(Relation::Make("R", {"a", "b"}, {{1, 2}}),
                           &error));
  const std::shared_ptr<const Relation> before = reg.Snap().Find("R")->rel;
  const uint64_t e0 = reg.epoch();

  RelationDelta delta;
  ASSERT_TRUE(reg.AppendRows("R", {{1, 2}}, &error, &delta));  // duplicate
  EXPECT_TRUE(delta.added.empty());
  ASSERT_TRUE(reg.DeleteRows("R", {{7, 7}}, &error, &delta));  // absent
  EXPECT_TRUE(delta.removed.empty());

  // Fresh epochs (cache keys must move), but the SAME version storage —
  // nothing was retired, so its indexes stay valid.
  EXPECT_GT(reg.epoch(), e0);
  EXPECT_EQ(reg.Snap().Find("R")->rel.get(), before.get());
  EXPECT_EQ(reg.retired(), 0u);
}

TEST(RegistryDeltaTest, RowMutationsValidateArity) {
  RelationRegistry reg;
  std::string error;
  ASSERT_TRUE(reg.Register(Relation::Make("R", {"a", "b"}, {{1, 2}}),
                           &error));
  EXPECT_FALSE(reg.AppendRows("R", {{1, 2, 3}}, &error));
  EXPECT_NE(error.find("arity"), std::string::npos) << error;
  EXPECT_FALSE(reg.DeleteRows("R", {{1}}, &error));
  EXPECT_NE(error.find("arity"), std::string::npos) << error;
  EXPECT_FALSE(reg.AppendRows("Nope", {{1, 2}}, &error));
}

// --- engine-level differential oracle ----------------------------------

// One mutable join instance: tuple sets the test edits, rebuilt into
// fresh Relation objects (the registry's copy-on-write, in miniature)
// after every delta.
struct MutableInstance {
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> attrs;
  std::vector<std::vector<Tuple>> tuples;
  std::vector<std::unique_ptr<Relation>> storage;
  JoinQuery query = JoinQuery::Build({});

  void Rebind() {
    storage.clear();
    std::vector<const Relation*> ptrs;
    for (size_t i = 0; i < names.size(); ++i) {
      storage.push_back(std::make_unique<Relation>(
          Relation::Make(names[i], attrs[i], tuples[i])));
      ptrs.push_back(storage.back().get());
    }
    query = JoinQuery::Build(ptrs);
  }
};

MutableInstance TriangleInstance(size_t n, int d, uint64_t seed) {
  MutableInstance inst;
  inst.names = {"R", "S", "T"};
  inst.attrs = {{"A", "B"}, {"B", "C"}, {"A", "C"}};
  uint64_t s = seed;
  for (size_t i = 0; i < 3; ++i) {
    inst.tuples.push_back(
        RandomRelation(inst.names[i], inst.attrs[i], n, d, ++s).ToTuples());
  }
  inst.Rebind();
  return inst;
}

MutableInstance PathInstance(size_t n, int d, uint64_t seed) {
  MutableInstance inst;
  inst.names = {"R", "S"};
  inst.attrs = {{"A", "B"}, {"B", "C"}};
  uint64_t s = seed;
  for (size_t i = 0; i < 2; ++i) {
    inst.tuples.push_back(
        RandomRelation(inst.names[i], inst.attrs[i], n, d, ++s).ToTuples());
  }
  inst.Rebind();
  return inst;
}

// Applies `rounds` random insert/delete deltas to `inst`, asserting
// after each that PatchJoin over the touched boxes equals the
// from-scratch run for `kind` under `options`.
void RunRandomizedDifferential(MutableInstance* inst, EngineKind kind,
                               const EngineOptions& options, int d,
                               int rounds, uint64_t seed) {
  EngineResult old = RunJoin(inst->query, kind, options);
  if (!old.ok) {
    // Failure parity: the patch path must reject exactly what a fresh
    // run rejects (e.g. Yannakakis on a cyclic query).
    PatchResult patched =
        PatchJoin(inst->query, kind, options, {}, {});
    EXPECT_FALSE(patched.result.ok);
    EXPECT_EQ(patched.result.error, old.error);
    return;
  }
  uint64_t s = seed;
  for (int round = 0; round < rounds; ++round) {
    const size_t which = Next(&s) % inst->names.size();
    std::vector<Tuple>& rel = inst->tuples[which];
    std::vector<Tuple> changed;
    // A few inserts (sometimes duplicates of existing rows)...
    for (int k = 0; k < 3; ++k) {
      Tuple t;
      if (!rel.empty() && Next(&s) % 4 == 0) {
        t = rel[Next(&s) % rel.size()];  // duplicate: effectively empty
      } else {
        t = Tuple{Next(&s) % (1ull << d), Next(&s) % (1ull << d)};
      }
      changed.push_back(t);
      rel.push_back(t);
    }
    // ...and a few deletes of existing rows.
    for (int k = 0; k < 2 && !rel.empty(); ++k) {
      const size_t victim = Next(&s) % rel.size();
      changed.push_back(rel[victim]);
      rel.erase(rel.begin() + victim);
    }
    inst->Rebind();
    const std::vector<DyadicBox> touched =
        TouchedOutputBoxes(inst->query, d, inst->names[which], changed);
    PatchResult patched;
    const OracleVerdict verdict = PatchedEqualsScratch(
        inst->query, kind, options, old.tuples, touched, &patched);
    ASSERT_TRUE(verdict.ok) << "round " << round << ": " << verdict.message;
    ASSERT_TRUE(patched.result.ok) << patched.result.error;
    EXPECT_LE(patched.shards_rerun, patched.shards_total);
    old = std::move(patched.result);
  }
}

TEST(IncrementalDifferentialTest, TriangleAcrossAllEngines) {
  constexpr int d = 5;
  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindName(kind));
    MutableInstance inst = TriangleInstance(/*n=*/40, d, /*seed=*/29);
    EngineOptions options;
    options.depth = d;
    RunRandomizedDifferential(&inst, kind, options, d, /*rounds=*/4,
                              /*seed=*/31);
  }
}

TEST(IncrementalDifferentialTest, PathAcrossAllEnginesShardedAndBudgeted) {
  // The α-acyclic shape every engine (Yannakakis included) supports,
  // under the sharded + memory-budgeted option mix the serving stack
  // runs with.
  constexpr int d = 5;
  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindName(kind));
    MutableInstance inst = PathInstance(/*n=*/50, d, /*seed=*/37);
    EngineOptions options;
    options.depth = d;
    options.shards = 8;
    options.threads = 0;
    options.memory_budget_bytes = 1u << 20;
    RunRandomizedDifferential(&inst, kind, options, d, /*rounds=*/4,
                              /*seed=*/41);
  }
}

TEST(IncrementalDifferentialTest, EmptyDeltaReturnsOldResultWithoutPlanning) {
  MutableInstance inst = TriangleInstance(/*n=*/30, /*d=*/4, /*seed=*/43);
  EngineOptions options;
  options.depth = 4;
  const EngineResult old =
      RunJoin(inst.query, EngineKind::kTetrisPreloaded, options);
  ASSERT_TRUE(old.ok);
  const PatchResult patched = PatchJoin(inst.query,
                                        EngineKind::kTetrisPreloaded,
                                        options, old.tuples, {});
  ASSERT_TRUE(patched.result.ok);
  EXPECT_EQ(patched.result.tuples, old.tuples);
  EXPECT_EQ(patched.shards_rerun, 0u);
  EXPECT_EQ(patched.shards_total, 0u);
  EXPECT_FALSE(patched.full_recompute);
}

TEST(IncrementalDifferentialTest, DeleteEverythingEmptiesTheJoin) {
  MutableInstance inst = TriangleInstance(/*n=*/30, /*d=*/4, /*seed=*/47);
  EngineOptions options;
  options.depth = 4;
  const EngineResult old =
      RunJoin(inst.query, EngineKind::kGenericJoin, options);
  ASSERT_TRUE(old.ok);

  const std::vector<Tuple> removed = inst.tuples[1];  // all of S
  inst.tuples[1].clear();
  inst.Rebind();
  const std::vector<DyadicBox> touched =
      TouchedOutputBoxes(inst.query, 4, "S", removed);
  PatchResult patched;
  const OracleVerdict verdict =
      PatchedEqualsScratch(inst.query, EngineKind::kGenericJoin, options,
                           old.tuples, touched, &patched);
  ASSERT_TRUE(verdict.ok) << verdict.message;
  EXPECT_TRUE(patched.result.tuples.empty());
}

TEST(IncrementalDifferentialTest, UniversalTouchedBoxFallsBackToFullRun) {
  MutableInstance inst = TriangleInstance(/*n=*/20, /*d=*/4, /*seed=*/53);
  EngineOptions options;
  options.depth = 4;
  const EngineResult old =
      RunJoin(inst.query, EngineKind::kTetrisPreloaded, options);
  ASSERT_TRUE(old.ok);
  PatchResult patched;
  const OracleVerdict verdict = PatchedEqualsScratch(
      inst.query, EngineKind::kTetrisPreloaded, options, old.tuples,
      {DyadicBox::Universal(inst.query.num_attrs())}, &patched);
  ASSERT_TRUE(verdict.ok) << verdict.message;
  EXPECT_TRUE(patched.full_recompute);
  // The recompute is the patch's one unfiltered pipeline call: its
  // result carries the one-shard plan, not a plain run's zeros, and
  // the patch's counts say that shard re-ran.
  EXPECT_EQ(patched.result.stats.shards, 1u);
  EXPECT_EQ(patched.result.shard_runs.size(), 1u);
  EXPECT_EQ(patched.shards_total, 1u);
  EXPECT_EQ(patched.shards_rerun, 1u);
}

// --- locality: a patch stays inside the touched boxes -----------------

constexpr EngineKind kPatchLocalEngines[] = {
    EngineKind::kTetrisPreloaded, EngineKind::kTetrisReloaded,
    EngineKind::kTetrisPreloadedNoCache};

// Appends `rows` fresh random rows to S of `inst` and returns them.
std::vector<Tuple> AppendFreshRowsToS(MutableInstance* inst, size_t rows,
                                      int d, uint64_t seed) {
  std::vector<Tuple>& s_rows = inst->tuples[1];
  std::vector<Tuple> added;
  uint64_t s = seed;
  while (added.size() < rows) {
    const Tuple t{Next(&s) % (1ull << d), Next(&s) % (1ull << d)};
    if (std::find(s_rows.begin(), s_rows.end(), t) != s_rows.end()) continue;
    s_rows.push_back(t);
    added.push_back(t);
  }
  inst->Rebind();
  return added;
}

TEST(IncrementalLocalityTest, OneRowAppendOnOneShardReRunsOneLine) {
  // A 1-worker service plans one shard, which every touched box meets.
  // The patch must still re-run only the touched line of the output
  // space, not the whole shard.
  constexpr int d = 8;
  for (EngineKind kind : kPatchLocalEngines) {
    SCOPED_TRACE(EngineKindName(kind));
    MutableInstance inst = TriangleInstance(/*n=*/600, d, /*seed=*/83);
    EngineOptions options;
    options.depth = d;
    options.shards = 1;
    const EngineResult old = RunJoin(inst.query, kind, options);
    ASSERT_TRUE(old.ok) << old.error;
    const std::vector<Tuple> added =
        AppendFreshRowsToS(&inst, /*rows=*/1, d, /*seed=*/89);
    const PatchResult patched =
        PatchJoin(inst.query, kind, options, old.tuples,
                  TouchedOutputBoxes(inst.query, d, "S", added));
    const EngineResult scratch = RunJoin(inst.query, kind, options);
    ASSERT_TRUE(patched.result.ok) << patched.result.error;
    ASSERT_TRUE(scratch.ok) << scratch.error;
    EXPECT_FALSE(patched.full_recompute);
    EXPECT_EQ(patched.shards_total, 1u);
    EXPECT_EQ(patched.shards_rerun, 1u);
    EXPECT_EQ(patched.result.tuples, scratch.tuples);
    EXPECT_LE(patched.result.stats.tetris.resolutions * 100,
              scratch.stats.tetris.resolutions)
        << "patched " << patched.result.stats.tetris.resolutions
        << " vs scratch " << scratch.stats.tetris.resolutions;
  }
}

TEST(IncrementalLocalityTest, OverlappingTouchedBoxesAcrossAllEngines) {
  // A base two writes behind: one patch carries an S delete and an R
  // append that share their B value, so their touched boxes overlap.
  // The deleted S row carries an output point outside the R box, so a
  // re-run box that misses either touched box leaves a wrong answer.
  constexpr int d = 4;
  for (int shards : {0, 8}) {
    for (EngineKind kind : AllEngineKinds()) {
      SCOPED_TRACE(std::string(EngineKindName(kind)) + ", shards " +
                   std::to_string(shards));
      MutableInstance inst = TriangleInstance(/*n=*/60, d, /*seed=*/97);
      ASSERT_EQ(inst.query.attrs(), (std::vector<std::string>{"A", "B", "C"}));
      EngineOptions options;
      options.depth = d;
      options.shards = shards;
      const EngineResult old = RunJoin(inst.query, kind, options);
      const std::vector<Tuple> points =
          RunJoin(inst.query, EngineKind::kLeapfrog).tuples;
      ASSERT_FALSE(points.empty());
      const Tuple& p = points.front();  // (A, B, C)
      const Tuple removed{p[1], p[2]};  // S(B, C)
      Tuple added{0, p[1]};             // R(A, B), same B, another A
      while (added[0] == p[0] ||
             std::find(inst.tuples[0].begin(), inst.tuples[0].end(),
                       added) != inst.tuples[0].end()) {
        ++added[0];
      }
      std::vector<Tuple>& s_rows = inst.tuples[1];
      s_rows.erase(std::find(s_rows.begin(), s_rows.end(), removed));
      inst.tuples[0].push_back(added);
      inst.Rebind();
      std::vector<DyadicBox> touched =
          TouchedOutputBoxes(inst.query, d, "R", {added});
      const std::vector<DyadicBox> s_boxes =
          TouchedOutputBoxes(inst.query, d, "S", {removed});
      ASSERT_EQ(touched.size(), 1u);
      ASSERT_EQ(s_boxes.size(), 1u);
      ASSERT_TRUE(touched[0].Intersects(s_boxes[0]));
      touched.push_back(s_boxes[0]);
      const OracleVerdict verdict = PatchedEqualsScratch(
          inst.query, kind, options, old.tuples, touched);
      EXPECT_TRUE(verdict.ok) << verdict.message;
    }
  }
}

TEST(IncrementalLocalityTest, MultiRowDeltasNeverOutworkScratch) {
  // The span re-run inside a met shard is never larger than the shard,
  // so no delta size makes a patch cost more than the from-scratch run.
  constexpr int d = 8;
  for (int shards : {1, 32}) {
    for (size_t rows : {6u, 60u, 600u}) {
      for (EngineKind kind : kPatchLocalEngines) {
        SCOPED_TRACE(std::string(EngineKindName(kind)) + ", " +
                     std::to_string(rows) + " rows, shards " +
                     std::to_string(shards));
        MutableInstance inst = TriangleInstance(/*n=*/600, d, /*seed=*/83);
        EngineOptions options;
        options.depth = d;
        options.shards = shards;
        const EngineResult old = RunJoin(inst.query, kind, options);
        ASSERT_TRUE(old.ok) << old.error;
        const std::vector<Tuple> added =
            AppendFreshRowsToS(&inst, rows, d, /*seed=*/101 + rows);
        const PatchResult patched =
            PatchJoin(inst.query, kind, options, old.tuples,
                      TouchedOutputBoxes(inst.query, d, "S", added));
        const EngineResult scratch = RunJoin(inst.query, kind, options);
        ASSERT_TRUE(patched.result.ok) << patched.result.error;
        ASSERT_TRUE(scratch.ok) << scratch.error;
        EXPECT_EQ(patched.result.tuples, scratch.tuples);
        EXPECT_LE(patched.result.stats.tetris.resolutions,
                  scratch.stats.tetris.resolutions);
      }
    }
  }
}

// --- service-level differential ----------------------------------------

void RegisterTriangle(JoinService* service, size_t n, int d, uint64_t seed) {
  const struct {
    const char* name;
    const char* a;
    const char* b;
  } specs[] = {{"R", "A", "B"}, {"S", "B", "C"}, {"T", "A", "C"}};
  uint64_t s = seed;
  for (const auto& spec : specs) {
    std::string error;
    ASSERT_TRUE(service->Register(
        RandomRelation(spec.name, {spec.a, spec.b}, n, d, ++s), &error))
        << error;
  }
}

QueryRequest TriangleQuery(EngineKind kind, int depth) {
  QueryRequest q;
  q.relations = {"R", "S", "T"};
  q.engine = kind;
  // An explicit depth keeps the output-space signature stable across
  // deltas (MinDepth would drift with the value range), which is what
  // lets the cached entry match.
  q.depth = depth;
  return q;
}

TEST(IncrementalServiceTest, AppendAndDeletePatchInsteadOfRecomputing) {
  ServiceOptions options;
  options.shards = 8;
  JoinService service(options);
  RegisterTriangle(&service, /*n=*/50, /*d=*/5, /*seed=*/59);
  const QueryRequest query = TriangleQuery(EngineKind::kTetrisPreloaded, 6);

  // Warm the cache, then a two-tuple append leaves the entry awaiting a
  // patch.
  ASSERT_TRUE(service.Execute(query).result->ok);
  std::string error;
  ASSERT_TRUE(service.AppendRows("S", {{1, 3}, {2, 7}}, &error)) << error;
  EXPECT_EQ(service.cache().patch_bases(), 1u);

  QueryResponse resp;
  OracleVerdict verdict = ExecuteMatchesScratch(&service, query, &resp);
  ASSERT_TRUE(verdict.ok) << verdict.message;
  EXPECT_TRUE(resp.patched);
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_LE(resp.shards_rerun, resp.shards_total);
  EXPECT_EQ(service.patched(), 1u);

  // The patched result was re-cached; deleting rows leaves it awaiting
  // a patch again, and the next execution patches through the delete.
  ASSERT_TRUE(service.DeleteRows("S", {{1, 3}}, &error)) << error;
  verdict = ExecuteMatchesScratch(&service, query, &resp);
  ASSERT_TRUE(verdict.ok) << verdict.message;
  EXPECT_TRUE(resp.patched);
  EXPECT_EQ(service.patched(), 2u);
}

TEST(IncrementalServiceTest, EffectivelyEmptyDeltasKeepCacheEntriesServable) {
  JoinService service;
  RegisterTriangle(&service, /*n=*/40, /*d=*/5, /*seed=*/61);
  const QueryRequest query = TriangleQuery(EngineKind::kTetrisPreloaded, 6);
  const QueryResponse cold = service.Execute(query);
  ASSERT_TRUE(cold.result->ok) << cold.result->error;

  // Append a duplicate of an existing row and delete an absent one:
  // both bump the epoch, neither changes the relation — the cached
  // entry must survive (restamped) and keep serving hits.
  const Tuple existing =
      service.registry().Snap().Find("S")->rel->row(0).ToTuple();
  std::string error;
  ASSERT_TRUE(service.AppendRows("S", {existing}, &error)) << error;
  ASSERT_TRUE(service.DeleteRows("S", {{63, 63}}, &error)) << error;

  const QueryResponse warm = service.Execute(query);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_GT(warm.epoch, cold.epoch);
  EXPECT_EQ(warm.result->tuples, cold.result->tuples);
  EXPECT_GE(service.cache().survivals(), 2u);
  EXPECT_EQ(service.cache().patch_bases(), 0u);
  EXPECT_EQ(service.patched(), 0u);  // a hit, not a patch
}

TEST(IncrementalServiceTest, DeleteEverythingServesTheEmptyJoin) {
  JoinService service;
  RegisterTriangle(&service, /*n=*/30, /*d=*/4, /*seed=*/67);
  const QueryRequest query = TriangleQuery(EngineKind::kGenericJoin, 5);
  ASSERT_TRUE(service.Execute(query).result->ok);

  const std::vector<Tuple> all =
      service.registry().Snap().Find("S")->rel->ToTuples();
  std::string error;
  ASSERT_TRUE(service.DeleteRows("S", all, &error)) << error;
  QueryResponse resp;
  const OracleVerdict verdict = ExecuteMatchesScratch(&service, query, &resp);
  ASSERT_TRUE(verdict.ok) << verdict.message;
  EXPECT_TRUE(resp.result->tuples.empty());
}

TEST(IncrementalServiceTest, RandomizedWorkloadAcrossAllEngines) {
  constexpr int d = 5;
  uint64_t s = 71;
  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindName(kind));
    ServiceOptions options;
    options.shards = 4;
    JoinService service(options);
    // The 2-hop path: α-acyclic, so every engine serves it.
    std::string error;
    ASSERT_TRUE(service.Register(
        RandomRelation("R", {"A", "B"}, 40, d, ++s), &error)) << error;
    ASSERT_TRUE(service.Register(
        RandomRelation("S", {"B", "C"}, 40, d, ++s), &error)) << error;
    QueryRequest query;
    query.relations = {"R", "S"};
    query.engine = kind;
    query.depth = d + 1;

    for (int round = 0; round < 3; ++round) {
      const std::string name = Next(&s) % 2 == 0 ? "R" : "S";
      if (Next(&s) % 3 != 0) {
        std::vector<Tuple> add;
        for (int k = 0; k < 3; ++k) {
          add.push_back({Next(&s) % (1ull << d), Next(&s) % (1ull << d)});
        }
        ASSERT_TRUE(service.AppendRows(name, add, &error)) << error;
      } else {
        const Relation& rel = *service.registry().Snap().Find(name)->rel;
        std::vector<Tuple> del;
        if (rel.size() > 0) {
          del.push_back(rel.row(Next(&s) % rel.size()).ToTuple());
        }
        ASSERT_TRUE(service.DeleteRows(name, del, &error)) << error;
      }
      const OracleVerdict verdict = ExecuteMatchesScratch(&service, query);
      ASSERT_TRUE(verdict.ok)
          << "round " << round << ": " << verdict.message;
    }
  }
}

TEST(IncrementalServiceTest, ConcurrentRowMutationsNeverTearQueries) {
  // A writer streams row-level appends/deletes on S, every fourth one
  // effectively empty (exercising InvalidateDelta's restamps, touched
  // boxes and the patch path), while readers execute cached queries:
  // every response is ok, epochs never go backwards, and every answer
  // equals a scratch join over the versions at the epoch it was served
  // at. The writer is the only one, so an epoch names one registry
  // state, recorded as the writer installs it. TSan runs this suite in
  // CI.
  ServiceOptions options;
  options.shards = 4;
  JoinService service(options);
  RegisterTriangle(&service, /*n=*/50, /*d=*/5, /*seed=*/73);
  std::map<uint64_t, RegistrySnapshot> states;  // the writer's, until joined
  RegistrySnapshot initial = service.registry().Snap();
  states.emplace(initial.epoch, std::move(initial));
  std::atomic<bool> readers_done{false};
  std::thread writer([&]() {
    uint64_t s = 79;
    for (int k = 0; !readers_done.load(); ++k) {
      std::string error;
      // Snapshot pointer keeps the version alive while we pick a row.
      const auto snap_rel = service.registry().Snap().Find("S")->rel;
      std::vector<Tuple> held;  // one row S holds, if it holds any
      if (snap_rel->size() > 0) {
        held.push_back(snap_rel->row(Next(&s) % snap_rel->size()).ToTuple());
      }
      if (k % 4 == 2) {
        EXPECT_TRUE(service.DeleteRows("S", held, &error)) << error;
      } else if (k % 4 == 3) {
        EXPECT_TRUE(service.AppendRows("S", held, &error)) << error;
      } else {
        EXPECT_TRUE(service.AppendRows(
            "S", {{Next(&s) % 32, Next(&s) % 32}}, &error))
            << error;
      }
      RegistrySnapshot state = service.registry().Snap();
      states.emplace(state.epoch, std::move(state));
    }
  });

  struct Served {
    uint64_t epoch;
    std::shared_ptr<const EngineResult> result;
  };
  std::vector<std::vector<Served>> served(2);
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r]() {
      uint64_t last_epoch = 0;
      const QueryRequest query = TriangleQuery(
          r == 0 ? EngineKind::kTetrisPreloaded : EngineKind::kGenericJoin,
          6);
      for (int i = 0; i < 30; ++i) {
        const QueryResponse resp = service.Execute(query);
        ASSERT_NE(resp.result, nullptr);
        EXPECT_TRUE(resp.result->ok) << resp.result->error;
        EXPECT_GE(resp.epoch, last_epoch);
        last_epoch = resp.epoch;
        served[r].push_back({resp.epoch, resp.result});
      }
    });
  }
  for (std::thread& t : readers) t.join();
  readers_done.store(true);
  writer.join();

  std::map<uint64_t, std::vector<Tuple>> want;  // by epoch
  size_t wrong = 0;
  size_t reads = 0;
  for (const std::vector<Served>& answers : served) {
    for (const Served& got : answers) {
      auto it = want.find(got.epoch);
      if (it == want.end()) {
        auto state = states.find(got.epoch);
        ASSERT_NE(state, states.end()) << "epoch " << got.epoch;
        std::vector<const Relation*> rels;
        for (const char* name : {"R", "S", "T"}) {
          rels.push_back(state->second.Find(name)->rel.get());
        }
        it = want.emplace(got.epoch,
                          RunJoin(JoinQuery::Build(rels),
                                  EngineKind::kLeapfrog)
                              .tuples)
                 .first;
      }
      ++reads;
      if (got.result->tuples != it->second) ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u) << "of " << reads << " answers, over "
                       << states.size() << " writer states";
  states.clear();
  EXPECT_EQ(service.inflight(), 0u);
  // Row mutations promote cached indexes instead of evicting them, and
  // a promoted index pins its base version (SortedIndex::pin()), so
  // retired versions may legally outlive the purge while their overlay
  // entries stay cached. Dropping the entries releases every pin and
  // the parked versions drain fully.
  service.registry().index_cache().Clear();
  service.registry().PurgeRetired();
  EXPECT_EQ(service.registry().retired(), 0u);
}

}  // namespace
}  // namespace tetris
