// Cross-validation of every evaluator behind the JoinEngine facade: on
// random workloads from src/workload/generators.h, all supported engines
// must produce the same canonical tuple set (engine-agnostic semantics).
#include "engine/join_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "box_collect.h"
#include "engine/batch_runner.h"
#include "engine/incremental.h"
#include "engine/parallel_executor.h"
#include "index/dyadic_index.h"
#include "index/kdtree_index.h"
#include "index/sorted_index.h"
#include "server/join_service.h"
#include "workload/generators.h"

namespace tetris {
namespace {

// Runs every engine that supports `q` and checks all outputs agree with
// the first engine's (and, when small enough, with brute force).
void CrossValidate(const QueryInstance& q, bool check_brute_force = false) {
  bool have_reference = false;
  std::vector<Tuple> reference;
  EngineKind reference_kind = EngineKind::kTetrisPreloaded;
  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindName(kind));
    if (!EngineSupports(kind, q.query)) {
      EngineResult r = RunJoin(q.query, kind);
      EXPECT_FALSE(r.ok);
      EXPECT_FALSE(r.error.empty());
      continue;
    }
    EngineResult r = RunJoin(q.query, kind);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.stats.output_tuples, r.tuples.size());
    EXPECT_EQ(r.stats.engine, kind);
    if (!have_reference) {
      reference = r.tuples;
      reference_kind = kind;
      have_reference = true;
    } else {
      EXPECT_EQ(r.tuples, reference)
          << EngineKindName(kind) << " disagrees with "
          << EngineKindName(reference_kind);
    }
  }
  ASSERT_TRUE(have_reference);
  if (check_brute_force) {
    std::vector<Tuple> brute = q.query.BruteForceJoin(q.depth);
    std::sort(brute.begin(), brute.end());
    brute.erase(std::unique(brute.begin(), brute.end()), brute.end());
    EXPECT_EQ(reference, brute);
  }
}

// This process's thread count, or -1 where /proc/self/status is absent.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// A plain run executes inline on the calling thread: it starts no
// thread, so it does not create the process-global executor either.
// This test comes first, before any sharded run of this suite has
// created that executor.
TEST(JoinEngineTest, PlainRunsStartNoThread) {
  const int before = ThreadCount();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/31);
  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindName(kind));
    if (!EngineSupports(kind, q.query)) continue;
    EXPECT_TRUE(RunJoin(q.query, kind).ok);
    EXPECT_EQ(ThreadCount(), before);
  }
}

TEST(JoinEngineTest, EngineKindNamesAreUniqueAndStable) {
  std::vector<std::string> names;
  for (EngineKind kind : AllEngineKinds()) {
    names.emplace_back(EngineKindName(kind));
  }
  EXPECT_EQ(names.size(), 11u);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(JoinEngineTest, RandomTriangles) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4, seed);
    CrossValidate(q, /*check_brute_force=*/true);
  }
}

TEST(JoinEngineTest, FullGridTriangleMatchesAgmCount) {
  QueryInstance q = FullGridTriangle(/*m=*/4);
  CrossValidate(q);
  EngineResult r = RunJoin(q.query, EngineKind::kLeapfrog);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.tuples.size(), 64u);  // m^3
}

TEST(JoinEngineTest, MsbTriangleBothVariants) {
  CrossValidate(MsbTriangle(/*d=*/4, /*closed_variant=*/false));
  CrossValidate(MsbTriangle(/*d=*/4, /*closed_variant=*/true));
}

TEST(JoinEngineTest, RandomPathsAreAcyclic) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    QueryInstance q = RandomPath(/*hops=*/3, /*tuples_per_rel=*/60, /*d=*/4,
                                 seed);
    EXPECT_TRUE(EngineSupports(EngineKind::kYannakakis, q.query));
    CrossValidate(q);
  }
}

TEST(JoinEngineTest, RandomCyclesRejectYannakakis) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    QueryInstance q = RandomCycle(/*len=*/4, /*tuples_per_rel=*/50, /*d=*/4,
                                  seed);
    EXPECT_FALSE(EngineSupports(EngineKind::kYannakakis, q.query));
    CrossValidate(q);
  }
}

TEST(JoinEngineTest, StripedEmptyInstancesHaveEmptyOutput) {
  QueryInstance path = StripedEmptyPath(/*stripes_log2=*/2,
                                        /*tuples_per_rel=*/80, /*d=*/6,
                                        /*seed=*/7);
  CrossValidate(path);
  EngineResult r = RunJoin(path.query, EngineKind::kTetrisReloaded);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.tuples.empty());

  QueryInstance cycle = StripedEmptyCycle(/*stripes_log2=*/2,
                                          /*tuples_per_rel=*/80, /*d=*/6,
                                          /*seed=*/7);
  CrossValidate(cycle);
}

// A 0-ary atom is a boolean: the empty relation E() empties any join it
// takes part in, and F() = {()} leaves it unchanged. Every engine, plain,
// sharded and batched, must agree; before the fix each engine group got
// half of these four queries wrong.
TEST(JoinEngineTest, NullaryAtomsActAsBooleans) {
  const Relation e("E", {});
  const Relation f = Relation::Make("F", {}, {Tuple{}});
  const Relation r = Relation::Make("R", {"A"}, {{1}, {3}});
  struct Case {
    const char* name;
    std::vector<const Relation*> rels;
    std::vector<Tuple> want;
  };
  const Case cases[] = {{"E()", {&e}, {}},
                        {"E()*R(A)", {&e, &r}, {}},
                        {"F()", {&f}, {Tuple{}}},
                        {"F()*R(A)", {&f, &r}, {{1}, {3}}}};
  EngineOptions plain;
  EngineOptions sharded;
  sharded.shards = 4;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const JoinQuery q = JoinQuery::Build(c.rels);
    for (EngineKind kind : AllEngineKinds()) {
      SCOPED_TRACE(EngineKindName(kind));
      for (const EngineOptions& opt : {plain, sharded}) {
        SCOPED_TRACE(opt.shards);
        const EngineResult got = RunJoin(q, kind, opt);
        ASSERT_TRUE(got.ok) << got.error;
        EXPECT_EQ(got.tuples, c.want);
      }
      const BatchResult batch = RunBatch({}, {q}, kind);
      ASSERT_TRUE(batch.ok) << batch.error;
      EXPECT_EQ(batch.results[0].tuples, c.want);
    }
  }
}

// R(a,b) = {(v,2),(3,4)} and S(b,c) = {(2,5),(4,6)}: the join is
// {(v,2,5),(3,4,6)} whatever v is.
QueryInstance TwoRowPath(uint64_t v) {
  QueryInstance q;
  q.storage.push_back(std::make_unique<Relation>(Relation::Make(
      "R", {"a", "b"}, {{v, 2}, {3, 4}})));
  q.storage.push_back(std::make_unique<Relation>(Relation::Make(
      "S", {"b", "c"}, {{2, 5}, {4, 6}})));
  q.Bind();
  return q;
}

std::vector<Tuple> TwoRowPathJoin(uint64_t v) {
  std::vector<Tuple> want = {{v, 2, 5}, {3, 4, 6}};
  std::sort(want.begin(), want.end());
  return want;
}

TEST(JoinEngineTest, MinDepthIsTheBitWidthOfTheLargestValue) {
  EXPECT_EQ(TwoRowPath(1).query.MinDepth(), 3);  // 6 = 0b110
  EXPECT_EQ(TwoRowPath(uint64_t{1} << 62).query.MinDepth(), 63);
  EXPECT_EQ(TwoRowPath(uint64_t{1} << 63).query.MinDepth(), 64);
  // max + 1 wraps at UINT64_MAX; the width must not.
  EXPECT_EQ(TwoRowPath(UINT64_MAX).query.MinDepth(), 64);
}

// Dyadic arithmetic is defined up to kMaxDepth bits. Every Tetris path
// must refuse a deeper grid, requested or forced by the values, with
// the one error string instead of answering wrong or never finishing;
// Leapfrog, which plans no split there, keeps answering.
TEST(JoinEngineTest, GridsDeeperThanMaxDepthAreRejected) {
  // The two cases that would answer wrong rather than run forever come
  // first, so a regression fails fast instead of at the ctest timeout.
  EngineOptions depth64;
  depth64.depth = 64;
  EngineResult r =
      RunJoin(TwoRowPath(1).query, EngineKind::kTetrisPreloaded, depth64);
  ASSERT_FALSE(r.ok) << r.tuples.size() << " tuples";
  EXPECT_EQ(r.error, kGridTooDeepError);
  r = RunJoin(TwoRowPath(UINT64_MAX).query, EngineKind::kTetrisReloaded);
  ASSERT_FALSE(r.ok) << r.tuples.size() << " tuples";
  EXPECT_EQ(r.error, kGridTooDeepError);

  struct Case {
    uint64_t v;
    int depth;  // 0 = the data's MinDepth
  };
  const Case cases[] = {{1, 63},
                        {1, 64},
                        {1, 100},
                        {uint64_t{1} << 63, 0},
                        {UINT64_MAX, 0}};
  for (const Case& c : cases) {
    SCOPED_TRACE("v=" + std::to_string(c.v) +
                 " depth=" + std::to_string(c.depth));
    QueryInstance q = TwoRowPath(c.v);
    EngineOptions plain;
    plain.depth = c.depth;
    EngineOptions sharded = plain;
    sharded.shards = 4;
    BatchOptions batched;
    batched.depth = c.depth;
    for (EngineKind kind : AllEngineKinds()) {
      SCOPED_TRACE(EngineKindName(kind));
      if (!TetrisAlgorithmOf(kind).has_value()) continue;
      for (const EngineOptions& opt : {plain, sharded}) {
        r = RunJoin(q.query, kind, opt);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error, kGridTooDeepError);
      }
      const BatchResult batch = RunBatch({}, {q.query}, kind, batched);
      EXPECT_FALSE(batch.ok);
      EXPECT_EQ(batch.error, kGridTooDeepError);
      const PatchResult patch = PatchJoin(q.query, kind, plain, {}, {});
      EXPECT_FALSE(patch.result.ok);
      EXPECT_EQ(patch.result.error, kGridTooDeepError);
    }
    for (const EngineOptions& opt : {plain, sharded}) {
      r = RunJoin(q.query, EngineKind::kLeapfrog, opt);
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.tuples, TwoRowPathJoin(c.v));
    }
    const BatchResult batch =
        RunBatch({}, {q.query}, EngineKind::kLeapfrog, batched);
    ASSERT_TRUE(batch.ok) << batch.error;
    EXPECT_EQ(batch.results[0].tuples, TwoRowPathJoin(c.v));
  }
  // The deepest legal grid still answers on the Tetris family.
  EngineOptions deepest;
  deepest.depth = kMaxDepth;
  r = RunJoin(TwoRowPath(1).query, EngineKind::kTetrisReloaded, deepest);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.tuples, TwoRowPathJoin(1));
}

// A path A0 - A1 - ... over {0, 1} with `attrs` attributes whose every
// edge relation E<i>(A<i>, A<i+1>) forbids (1, 1): its answers are the
// attrs-bit strings with no two adjacent ones, Fibonacci(attrs + 2) of
// them.
QueryInstance NoAdjacentOnesPath(int attrs) {
  QueryInstance q;
  for (int i = 0; i + 1 < attrs; ++i) {
    q.storage.push_back(std::make_unique<Relation>(Relation::Make(
        "E" + std::to_string(i),
        {"A" + std::to_string(i), "A" + std::to_string(i + 1)},
        {{0, 0}, {0, 1}, {1, 0}})));
  }
  q.Bind();
  return q;
}

size_t Fibonacci(int k) {
  size_t a = 0, b = 1;
  for (int i = 0; i < k; ++i) {
    const size_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

// A DyadicBox holds kMaxDims = 16 components. The Tetris family builds
// boxes of the query's dimensions on every path (2n-2 of them on the
// Balance-lifted variants), and every engine does once its path plans
// shard boxes: sharded, batched, patched and served runs. Each such path
// refuses a wider query with one error instead of crashing or answering
// wrong; a plain baseline builds no box and keeps answering.
TEST(JoinEngineTest, QueriesWiderThanADyadicBoxAreRejected) {
  for (int attrs : {9, 10, 16, 17}) {
    SCOPED_TRACE(std::to_string(attrs) + " attributes");
    QueryInstance q = NoAdjacentOnesPath(attrs);
    ASSERT_EQ(q.query.num_attrs(), attrs);
    const size_t want = Fibonacci(attrs + 2);
    // A changed E0 row touches one box; a box of 17 dimensions cannot
    // even be formed, so the widest case patches on no touched box.
    const std::vector<DyadicBox> touched =
        attrs <= kMaxDims
            ? TouchedOutputBoxes(q.query, q.depth, "E0", {{1, 1}})
            : std::vector<DyadicBox>{};
    JoinService service;
    std::string error;
    QueryRequest request;
    for (const auto& rel : q.storage) {
      ASSERT_TRUE(service.Register(*rel, &error)) << error;
      request.relations.push_back(rel->name());
    }
    EngineOptions sharded;
    sharded.shards = 4;
    for (EngineKind kind : AllEngineKinds()) {
      SCOPED_TRACE(EngineKindName(kind));
      const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind);
      const int dims =
          algo.has_value() && ChoosesOwnSao(*algo) ? 2 * attrs - 2 : attrs;
      const bool fits = dims <= kMaxDims;
      auto expect = [&](const EngineResult& r, bool ok) {
        if (ok) {
          ASSERT_TRUE(r.ok) << r.error;
          EXPECT_EQ(r.tuples.size(), want);
        } else {
          EXPECT_FALSE(r.ok) << r.tuples.size() << " tuples";
          EXPECT_EQ(r.error, kQueryTooWideError);
        }
      };
      expect(RunJoin(q.query, kind), fits || !algo.has_value());
      expect(RunJoin(q.query, kind, sharded), fits);
      const BatchResult batch = RunBatch({}, {q.query}, kind);
      ASSERT_TRUE(batch.ok) << batch.error;
      expect(batch.results[0], fits);
      const std::vector<Tuple> old =
          RunJoin(q.query, EngineKind::kLeapfrog).tuples;
      expect(PatchJoin(q.query, kind, {}, old, touched).result, fits);
      request.engine = kind;
      expect(*service.Execute(request).result, fits);
    }
  }

  // An atom may repeat an attribute: one relation W of 16 or 17 columns,
  // all named A, is a 1-attribute query, but the Tetris family builds a
  // box component per column for its gaps and probes. So 17 columns are
  // refused on every Tetris path, while 16 answer there, and every
  // baseline answers both. The answers are the rows whose columns
  // agree: (0) and (1), not the mixed row.
  for (int cols : {16, 17}) {
    SCOPED_TRACE(std::to_string(cols) + " columns of one attribute");
    Tuple mixed(cols, 0);
    mixed.back() = 1;
    QueryInstance q;
    q.storage.push_back(std::make_unique<Relation>(
        Relation::Make("W", std::vector<std::string>(cols, "A"),
                       {Tuple(cols, 0), Tuple(cols, 1), mixed})));
    q.Bind();
    ASSERT_EQ(q.query.num_attrs(), 1);
    const std::vector<Tuple> want = {{0}, {1}};
    const std::vector<DyadicBox> touched =
        TouchedOutputBoxes(q.query, q.depth, "W", {Tuple(cols, 1)});
    ASSERT_EQ(touched.size(), 1u);
    JoinService service;
    std::string error;
    ASSERT_TRUE(service.Register(*q.storage[0], &error)) << error;
    QueryRequest request;
    request.relations = {"W"};
    EngineOptions sharded;
    sharded.shards = 2;
    for (EngineKind kind : AllEngineKinds()) {
      SCOPED_TRACE(EngineKindName(kind));
      const bool fits =
          cols <= kMaxDims || !TetrisAlgorithmOf(kind).has_value();
      auto expect = [&](const EngineResult& r) {
        if (fits) {
          ASSERT_TRUE(r.ok) << r.error;
          EXPECT_EQ(r.tuples, want);
        } else {
          EXPECT_FALSE(r.ok) << r.tuples.size() << " tuples";
          EXPECT_EQ(r.error, kQueryTooWideError);
        }
      };
      expect(RunJoin(q.query, kind));
      expect(RunJoin(q.query, kind, sharded));
      const BatchResult batch = RunBatch({}, {q.query}, kind);
      ASSERT_TRUE(batch.ok) << batch.error;
      expect(batch.results[0]);
      expect(PatchJoin(q.query, kind, {}, want, touched).result);
      request.engine = kind;
      expect(*service.Execute(request).result);
    }
  }
}

// Every entry point runs the one option check, ValidateEngineOptions, so
// a bad input fails plain and sharded RunJoin, RunBatch and PatchJoin
// with the same text. RunBatch reports a bad shard or thread count for
// the whole batch and a bad order hint for its query alone; it takes no
// custom indexes.
TEST(JoinEngineTest, BadOptionsFailAlikeOnEveryPath) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/7);
  const auto owned = MakeSaoConsistentIndexes(q.query, {0, 1, 2}, q.depth);
  const Relation unary = Relation::Make("U", {"A"}, {{1}});
  const SortedIndex unary_index(unary, q.depth);
  enum class Batch { kBatchLevel, kPerQuery, kNone };
  struct Case {
    std::string what;
    EngineKind kind;
    EngineOptions opts;
    Batch batch;
  };
  std::vector<Case> cases(6);
  cases[0] = {"threads -1", EngineKind::kTetrisPreloaded, {},
              Batch::kBatchLevel};
  cases[0].opts.threads = -1;
  cases[1] = {"shards -2", EngineKind::kLeapfrog, {}, Batch::kBatchLevel};
  cases[1].opts.shards = -2;
  cases[2] = {"one index for three atoms", EngineKind::kTetrisReloaded, {},
              Batch::kNone};
  cases[2].opts.indexes = {owned[0].get()};
  cases[3] = {"index arity mismatch", EngineKind::kTetrisPreloaded, {},
              Batch::kNone};
  cases[3].opts.order = {0, 1, 2};
  cases[3].opts.indexes = {&unary_index, owned[1].get(), owned[2].get()};
  cases[4] = {"order not a permutation", EngineKind::kGenericJoin, {},
              Batch::kPerQuery};
  cases[4].opts.order = {0, 0, 1};
  cases[5] = {"order on a Balance-lifted variant",
              EngineKind::kTetrisPreloadedLB, {}, Batch::kPerQuery};
  cases[5].opts.order = {2, 0, 1};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const EngineResult plain = RunJoin(q.query, c.kind, c.opts);
    ASSERT_FALSE(plain.ok);
    ASSERT_FALSE(plain.error.empty());
    EngineOptions sharded = c.opts;
    sharded.memory_budget_bytes = 1 << 20;  // shards whatever else is set
    const EngineResult s = RunJoin(q.query, c.kind, sharded);
    EXPECT_FALSE(s.ok);
    EXPECT_EQ(s.error, plain.error);
    const PatchResult patch = PatchJoin(q.query, c.kind, c.opts, {}, {});
    EXPECT_FALSE(patch.result.ok);
    EXPECT_EQ(patch.result.error, plain.error);
    if (c.batch == Batch::kNone) continue;
    BatchOptions bopts;
    bopts.shards = c.opts.shards == 0 ? kAutoShards : c.opts.shards;
    bopts.threads = c.opts.threads;
    if (!c.opts.order.empty()) bopts.orders = {c.opts.order};
    const BatchResult batch = RunBatch({}, {q.query}, c.kind, bopts);
    if (c.batch == Batch::kBatchLevel) {
      EXPECT_FALSE(batch.ok);
      EXPECT_EQ(batch.error, plain.error);
    } else {
      ASSERT_TRUE(batch.ok) << batch.error;
      EXPECT_FALSE(batch.results[0].ok);
      EXPECT_EQ(batch.results[0].error, plain.error);
    }
  }
}

TEST(JoinEngineTest, CliqueOnRandomGraph) {
  QueryInstance q = CliqueOnRandomGraph(/*k=*/3, /*nodes=*/24,
                                        /*edges=*/80, /*seed=*/11);
  CrossValidate(q);
}

TEST(JoinEngineTest, ExplicitOrderHintsAgree) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/5);
  EngineResult base = RunJoin(q.query, EngineKind::kTetrisPreloaded);
  ASSERT_TRUE(base.ok);
  EngineOptions opt;
  opt.order = {2, 0, 1};
  for (EngineKind kind :
       {EngineKind::kTetrisPreloaded, EngineKind::kTetrisReloaded,
        EngineKind::kLeapfrog, EngineKind::kGenericJoin}) {
    SCOPED_TRACE(EngineKindName(kind));
    EngineResult r = RunJoin(q.query, kind, opt);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.tuples, base.tuples);
  }
}

TEST(JoinEngineTest, InvalidOrderHintsAreRejected) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/20, /*d=*/4,
                                   /*seed=*/3);
  EngineOptions opt;
  for (std::vector<int> bad :
       {std::vector<int>{0, 1}, std::vector<int>{0, 1, 3},
        std::vector<int>{0, 1, 1}, std::vector<int>{0, -1, 2},
        std::vector<int>{0, 1, 2, 2}}) {
    opt.order = bad;
    EngineResult r = RunJoin(q.query, EngineKind::kTetrisPreloaded, opt);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
  }
  // The Balance-lifted variants choose their own SAO: even a valid
  // permutation must be rejected rather than silently ignored.
  opt.order = {2, 0, 1};
  for (EngineKind kind :
       {EngineKind::kTetrisPreloadedLB, EngineKind::kTetrisReloadedLB}) {
    SCOPED_TRACE(EngineKindName(kind));
    EngineResult r = RunJoin(q.query, kind, opt);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(JoinEngineTest, MemoryCountersPopulatedPerEngineFamily) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/4,
                                   /*seed=*/13);

  // Tetris family: knowledge base + indexes resident, no intermediates.
  for (EngineKind kind :
       {EngineKind::kTetrisPreloaded, EngineKind::kTetrisReloaded,
        EngineKind::kTetrisPreloadedLB, EngineKind::kTetrisReloadedLB}) {
    SCOPED_TRACE(EngineKindName(kind));
    EngineResult r = RunJoin(q.query, kind);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.stats.memory.kb_bytes, 0u);
    EXPECT_GT(r.stats.memory.index_bytes, 0u);
    EXPECT_EQ(r.stats.memory.intermediate_bytes, 0u);
    EXPECT_GE(r.stats.memory.PeakBytes(), r.stats.memory.kb_bytes);
  }

  // Pairwise / Yannakakis: intermediates resident, no KB or indexes.
  for (EngineKind kind :
       {EngineKind::kPairwiseHash, EngineKind::kPairwiseSortMerge,
        EngineKind::kPairwiseNestedLoop}) {
    SCOPED_TRACE(EngineKindName(kind));
    EngineResult r = RunJoin(q.query, kind);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.stats.memory.intermediate_bytes, 0u);
    EXPECT_EQ(r.stats.memory.kb_bytes, 0u);
    EXPECT_EQ(r.stats.memory.index_bytes, 0u);
  }

  // Everyone reports the output buffer, sized by |Q(D)|.
  EngineResult lf = RunJoin(q.query, EngineKind::kLeapfrog);
  ASSERT_TRUE(lf.ok);
  if (!lf.tuples.empty()) {
    EXPECT_GT(lf.stats.memory.output_bytes, 0u);
  }

  // An empty join has an empty output buffer but still pays for the KB.
  QueryInstance empty = StripedEmptyPath(/*stripes_log2=*/2,
                                         /*tuples_per_rel=*/80, /*d=*/6,
                                         /*seed=*/3);
  EngineResult er = RunJoin(empty.query, EngineKind::kTetrisReloaded);
  ASSERT_TRUE(er.ok);
  EXPECT_TRUE(er.tuples.empty());
  EXPECT_EQ(er.stats.memory.output_bytes, 0u);
  EXPECT_GT(er.stats.memory.kb_bytes, 0u);
}

TEST(JoinEngineTest, ExplicitIndexesAndDepthOptions) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/21);
  EngineResult base = RunJoin(q.query, EngineKind::kTetrisReloaded);
  ASSERT_TRUE(base.ok);

  // Pre-built indexes: same output, and the facade reports their bytes.
  auto owned = MakeSaoConsistentIndexes(q.query, {0, 1, 2}, q.depth);
  EngineOptions opt;
  opt.order = {0, 1, 2};
  opt.depth = q.depth;
  opt.indexes = IndexPtrs(owned);
  EngineResult with_ix = RunJoin(q.query, EngineKind::kTetrisReloaded, opt);
  ASSERT_TRUE(with_ix.ok) << with_ix.error;
  EXPECT_EQ(with_ix.tuples, base.tuples);
  EXPECT_GT(with_ix.stats.memory.index_bytes, 0u);

  // A depth override alone must also agree.
  EngineOptions deep;
  deep.depth = q.depth + 2;
  EngineResult deeper = RunJoin(q.query, EngineKind::kTetrisPreloaded, deep);
  ASSERT_TRUE(deeper.ok) << deeper.error;
  EXPECT_EQ(deeper.tuples, base.tuples);

  // Wrong index count is rejected, not asserted.
  EngineOptions bad;
  bad.indexes = {opt.indexes[0]};
  EngineResult rejected =
      RunJoin(q.query, EngineKind::kTetrisReloaded, bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_FALSE(rejected.error.empty());

  // Indexes deeper than the grid: with depth unset the facade adopts
  // the indexes' depth; with a mismatched explicit depth it must error
  // out (a silent mismatch would never terminate).
  auto deep_owned =
      MakeSaoConsistentIndexes(q.query, {0, 1, 2}, q.depth + 3);
  EngineOptions adopt;
  adopt.order = {0, 1, 2};
  adopt.indexes = IndexPtrs(deep_owned);
  EngineResult adopted =
      RunJoin(q.query, EngineKind::kTetrisReloaded, adopt);
  ASSERT_TRUE(adopted.ok) << adopted.error;
  EXPECT_EQ(adopted.tuples, base.tuples);

  EngineOptions mismatch = adopt;
  mismatch.depth = q.depth;
  EngineResult mismatched =
      RunJoin(q.query, EngineKind::kTetrisReloaded, mismatch);
  EXPECT_FALSE(mismatched.ok);
  EXPECT_NE(mismatched.error.find("depth"), std::string::npos);
}

// The seeded instances of the per-shape differentials: a triangle, a
// 3-hop path and a 4-cycle.
std::vector<QueryInstance> SaoDifferentialInstances(size_t rows, int d) {
  std::vector<QueryInstance> out;
  out.push_back(RandomTriangle(rows, d, /*seed=*/61));
  out.push_back(RandomPath(/*hops=*/3, rows, d, /*seed=*/62));
  out.push_back(RandomCycle(/*len=*/4, rows, d, /*seed=*/63));
  return out;
}

TEST(JoinEngineTest, StatsArePopulatedPerEngineFamily) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/4,
                                   /*seed=*/9);

  EngineResult pre = RunJoin(q.query, EngineKind::kTetrisPreloaded);
  ASSERT_TRUE(pre.ok);
  EXPECT_GT(pre.stats.input_gap_boxes, 0u);
  EXPECT_GT(pre.stats.tetris.skeleton_nodes, 0);

  // input_gap_boxes is |B(Q)|, counted off the run's own preload: it
  // equals a fresh count over the same indexes on every preloaded variant.
  for (const QueryInstance& qi :
       SaoDifferentialInstances(/*rows=*/60, /*d=*/5)) {
    for (EngineKind kind : {EngineKind::kTetrisPreloaded,
                            EngineKind::kTetrisPreloadedNoCache,
                            EngineKind::kTetrisPreloadedLB}) {
      SCOPED_TRACE(std::string(EngineKindName(kind)) + ", " +
                   std::to_string(qi.query.atoms().size()) + " atoms");
      const auto owned = MakeSaoConsistentIndexes(
          qi.query, DefaultSao(qi.query, *TetrisAlgorithmOf(kind)),
          qi.depth);
      EngineOptions opt;
      opt.indexes = IndexPtrs(owned);
      const EngineResult r = RunJoin(qi.query, kind, opt);
      ASSERT_TRUE(r.ok) << r.error;
      std::vector<DyadicBox> gaps;
      for (const Index* ix : opt.indexes) ix->AllGaps(AppendTo(&gaps));
      EXPECT_EQ(r.stats.input_gap_boxes, gaps.size());
    }
  }

  EngineResult lf = RunJoin(q.query, EngineKind::kLeapfrog);
  ASSERT_TRUE(lf.ok);
  EXPECT_GT(lf.stats.seeks, 0);

  EngineResult gj = RunJoin(q.query, EngineKind::kGenericJoin);
  ASSERT_TRUE(gj.ok);
  EXPECT_GT(gj.stats.probes, 0);

  EngineResult hash = RunJoin(q.query, EngineKind::kPairwiseHash);
  ASSERT_TRUE(hash.ok);
  EXPECT_GT(hash.stats.baseline.max_intermediate, 0u);
  EXPECT_GE(hash.stats.wall_ms, 0.0);
}

// A plain Tetris RunJoin is the shard pipeline's one-shard plan, which
// probes the base indexes themselves: it does exactly the work of a
// direct RunTetrisJoin on the same indexes, on every Tetris engine and
// on any index type, builds the same default indexes when given none,
// and reports no shard fields.
TEST(JoinEngineTest, PlainTetrisRunDoesTheWorkOfADirectRun) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/5,
                                   /*seed=*/17);
  std::vector<std::unique_ptr<Index>> kd;
  for (const Atom& atom : q.query.atoms()) {
    kd.push_back(std::make_unique<KdTreeIndex>(*atom.rel, q.depth));
  }
  auto expect_same_work = [](const EngineResult& got,
                             const JoinRunResult& want) {
    ASSERT_TRUE(got.ok) << got.error;
    const TetrisStats& g = got.stats.tetris;
    EXPECT_EQ(g.resolutions, want.stats.resolutions);
    EXPECT_EQ(g.boxes_loaded, want.stats.boxes_loaded);
    EXPECT_EQ(g.kb_inserts, want.stats.kb_inserts);
    EXPECT_EQ(g.skeleton_nodes, want.stats.skeleton_nodes);
    EXPECT_EQ(g.kb_nodes_visited, want.stats.kb_nodes_visited);
    EXPECT_EQ(got.stats.oracle_probes, want.oracle_probes);
    EXPECT_EQ(got.stats.input_gap_boxes, want.input_gap_boxes);
    EXPECT_EQ(got.stats.memory.index_bytes, want.index_bytes);
    EXPECT_EQ(got.stats.memory.kb_bytes,
              static_cast<size_t>(want.stats.kb_peak_bytes));
    std::vector<Tuple> tuples = want.tuples;
    CanonicalizeTuples(&tuples);
    EXPECT_EQ(got.tuples, tuples);
    // A plain run reports no shard plan.
    EXPECT_EQ(got.stats.shards, 0u);
    EXPECT_EQ(got.stats.threads, 0u);
    EXPECT_EQ(got.stats.plan_bytes, 0u);
    EXPECT_EQ(got.stats.max_shard_peak_bytes, 0u);
    EXPECT_EQ(got.stats.estimated_max_shard_peak_bytes, 0u);
    EXPECT_TRUE(got.shard_runs.empty());
  };
  for (EngineKind kind :
       {EngineKind::kTetrisPreloaded, EngineKind::kTetrisReloaded,
        EngineKind::kTetrisPreloadedNoCache, EngineKind::kTetrisPreloadedLB,
        EngineKind::kTetrisReloadedLB}) {
    SCOPED_TRACE(EngineKindName(kind));
    const JoinAlgorithm algo = *TetrisAlgorithmOf(kind);
    const std::vector<int> sao = DefaultSao(q.query, algo);
    const auto sorted = MakeSaoConsistentIndexes(q.query, sao, q.depth);
    for (const std::vector<const Index*>& indexes :
         {IndexPtrs(sorted), IndexPtrs(kd)}) {
      SCOPED_TRACE(indexes[0]->Describe());
      EngineOptions opts;
      opts.indexes = indexes;
      expect_same_work(
          RunJoin(q.query, kind, opts),
          RunTetrisJoin(q.query, opts.indexes, q.depth, algo, sao));
    }
    SCOPED_TRACE("default indexes");
    expect_same_work(RunJoin(q.query, kind),
                     RunTetrisJoinDefaultIndexes(q.query, algo));
  }
}

// Plain, sharded, batched and patched runs charge one result the same
// output_bytes: what its std::vector<Tuple> holds (TupleBytes).
TEST(JoinEngineTest, OutputBytesAgreeOnEveryPath) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/60, /*d=*/5,
                                   /*seed=*/3);
  for (EngineKind kind :
       {EngineKind::kTetrisPreloaded, EngineKind::kLeapfrog}) {
    SCOPED_TRACE(EngineKindName(kind));
    const EngineResult plain = RunJoin(q.query, kind);
    ASSERT_TRUE(plain.ok) << plain.error;
    ASSERT_FALSE(plain.tuples.empty());
    EXPECT_EQ(plain.stats.memory.output_bytes, TupleBytes(plain.tuples));
    EXPECT_EQ(plain.stats.memory.output_bytes,
              plain.tuples.size() *
                  (sizeof(Tuple) + q.query.num_attrs() * sizeof(uint64_t)));

    EngineOptions sharded_opts;
    sharded_opts.shards = 4;
    const EngineResult sharded = RunJoin(q.query, kind, sharded_opts);
    ASSERT_TRUE(sharded.ok) << sharded.error;
    EXPECT_EQ(sharded.stats.memory.output_bytes,
              plain.stats.memory.output_bytes);

    const BatchResult batch = RunBatch({}, {q.query}, kind);
    ASSERT_TRUE(batch.ok) << batch.error;
    ASSERT_TRUE(batch.results[0].ok) << batch.results[0].error;
    EXPECT_EQ(batch.results[0].stats.memory.output_bytes,
              plain.stats.memory.output_bytes);

    // A patch that re-runs the boxes of one row of R and keeps the rest.
    const Relation& r = *q.query.atoms()[0].rel;
    const std::vector<DyadicBox> touched = TouchedOutputBoxes(
        q.query, q.depth, r.name(), {r.row(0).ToTuple()});
    ASSERT_FALSE(touched.empty());
    const PatchResult patched =
        PatchJoin(q.query, kind, {}, plain.tuples, touched);
    ASSERT_TRUE(patched.result.ok) << patched.result.error;
    EXPECT_EQ(patched.result.tuples, plain.tuples);
    EXPECT_EQ(patched.result.stats.memory.output_bytes,
              plain.stats.memory.output_bytes);
  }
}

// Leapfrog / Generic Join derive their trie order (GAO) from SortedIndex
// column orders, so index ablations reach the WCOJ baselines too.
TEST(JoinEngineTest, WcojEnginesDeriveGaoFromSortedIndexes) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/31);
  // Triangle atoms R(A,B), S(B,C), T(A,C) with attribute ids A=0, B=1,
  // C=2. Tries sorted (B,A), (B,C), (A,C) are all consistent with the
  // global order B, A, C.
  SortedIndex r_ix(*q.query.atoms()[0].rel, {1, 0}, q.depth);
  SortedIndex s_ix(*q.query.atoms()[1].rel, {0, 1}, q.depth);
  SortedIndex t_ix(*q.query.atoms()[2].rel, {0, 1}, q.depth);
  EngineOptions opt;
  opt.indexes = {&r_ix, &s_ix, &t_ix};
  for (EngineKind kind :
       {EngineKind::kLeapfrog, EngineKind::kGenericJoin}) {
    SCOPED_TRACE(EngineKindName(kind));
    EngineResult base = RunJoin(q.query, kind);
    ASSERT_TRUE(base.ok);
    EngineResult derived = RunJoin(q.query, kind, opt);
    ASSERT_TRUE(derived.ok) << derived.error;
    EXPECT_EQ(derived.tuples, base.tuples);
  }
}

TEST(JoinEngineTest, WcojEnginesRejectConflictingTrieOrders) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/20, /*d=*/4,
                                   /*seed=*/32);
  // (A,B), (B,C), (C,A): the precedence constraints form the cycle
  // A -> B -> C -> A — no GAO is consistent with all three tries.
  SortedIndex r_ix(*q.query.atoms()[0].rel, {0, 1}, q.depth);
  SortedIndex s_ix(*q.query.atoms()[1].rel, {0, 1}, q.depth);
  SortedIndex t_ix(*q.query.atoms()[2].rel, {1, 0}, q.depth);
  EngineOptions opt;
  opt.indexes = {&r_ix, &s_ix, &t_ix};
  for (EngineKind kind :
       {EngineKind::kLeapfrog, EngineKind::kGenericJoin}) {
    SCOPED_TRACE(EngineKindName(kind));
    EngineResult r = RunJoin(q.query, kind, opt);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("conflict"), std::string::npos) << r.error;
  }

  // An explicit order hint sidesteps the derivation entirely.
  EngineOptions with_order = opt;
  with_order.order = {0, 1, 2};
  EngineResult r = RunJoin(q.query, EngineKind::kLeapfrog, with_order);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.tuples, RunJoin(q.query, EngineKind::kLeapfrog).tuples);
}

TEST(JoinEngineTest, WcojEnginesRejectNonSortedIndexes) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/20, /*d=*/4,
                                   /*seed=*/33);
  std::vector<std::unique_ptr<Index>> owned;
  std::vector<const Index*> ptrs;
  for (const Atom& a : q.query.atoms()) {
    owned.push_back(std::make_unique<DyadicTreeIndex>(*a.rel, q.depth));
    ptrs.push_back(owned.back().get());
  }
  EngineOptions opt;
  opt.indexes = ptrs;
  EngineResult r = RunJoin(q.query, EngineKind::kLeapfrog, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("SortedIndex"), std::string::npos) << r.error;
  // The Tetris family still accepts any Index implementation.
  EngineResult tetris = RunJoin(q.query, EngineKind::kTetrisReloaded, opt);
  EXPECT_TRUE(tetris.ok) << tetris.error;
}

void ExpectSameRun(const EngineResult& unhinted, const EngineResult& hinted) {
  ASSERT_TRUE(unhinted.ok) << unhinted.error;
  ASSERT_TRUE(hinted.ok) << hinted.error;
  EXPECT_EQ(unhinted.tuples, hinted.tuples);
  EXPECT_EQ(unhinted.stats.tetris.resolutions,
            hinted.stats.tetris.resolutions);
}

// With no order hint, every Tetris entry point runs under DefaultSao
// over indexes laid out for it: the same tuples and exactly the same
// resolutions as the same path hinted with that SAO. (Relation-order
// indexes under the same SAO give the same tuples with far more
// resolutions, so a path that skips the SAO-consistent layout fails.)
TEST(JoinEngineTest, UnhintedTetrisPathsRunUnderTheDefaultSao) {
  WorkStealingPool pool(2);
  for (const QueryInstance& qi :
       SaoDifferentialInstances(/*rows=*/200, /*d=*/7)) {
    const JoinQuery& q = qi.query;
    for (EngineKind kind :
         {EngineKind::kTetrisPreloaded, EngineKind::kTetrisReloaded,
          EngineKind::kTetrisPreloadedNoCache}) {
      SCOPED_TRACE(std::string(EngineKindName(kind)) + ", " +
                   std::to_string(q.atoms().size()) + " atoms over " +
                   std::to_string(q.num_attrs()) + " attributes");
      const std::vector<int> sao = DefaultSao(q, *TetrisAlgorithmOf(kind));
      ASSERT_TRUE(IsPermutation(sao, q.num_attrs()));

      {
        SCOPED_TRACE("plain RunJoin");
        EngineOptions hinted;
        hinted.order = sao;
        ExpectSameRun(RunJoin(q, kind), RunJoin(q, kind, hinted));
      }
      {
        SCOPED_TRACE("sharded RunJoin");
        EngineOptions sharded;
        sharded.shards = 4;
        sharded.executor = &pool;
        EngineOptions hinted = sharded;
        hinted.order = sao;
        ExpectSameRun(RunJoin(q, kind, sharded), RunJoin(q, kind, hinted));
      }
      {
        SCOPED_TRACE("RunBatch");
        BatchOptions batch;
        batch.executor = &pool;
        BatchOptions hinted = batch;
        hinted.orders = {sao};
        BatchResult a = RunBatch({}, {q}, kind, batch);
        BatchResult b = RunBatch({}, {q}, kind, hinted);
        ASSERT_TRUE(a.ok) << a.error;
        ASSERT_TRUE(b.ok) << b.error;
        ExpectSameRun(a.results[0], b.results[0]);
      }
      {
        SCOPED_TRACE("PatchJoin");
        // The post-delta instance: the first relation gains one row.
        std::vector<Relation> after;
        for (const auto& rel : qi.storage) after.push_back(*rel);
        const Tuple added = {1, 2};
        after[0].Add(added);
        after[0].Canonicalize();
        std::vector<const Relation*> ptrs;
        for (const Relation& rel : after) ptrs.push_back(&rel);
        const JoinQuery post = JoinQuery::Build(ptrs);
        ASSERT_EQ(DefaultSao(post, *TetrisAlgorithmOf(kind)), sao);
        const std::vector<Tuple> old_tuples =
            RunJoin(q, EngineKind::kLeapfrog).tuples;
        const std::vector<DyadicBox> touched =
            TouchedOutputBoxes(post, qi.depth, after[0].name(), {added});
        EngineOptions patch;
        patch.depth = qi.depth;
        patch.shards = 4;
        patch.executor = &pool;
        EngineOptions hinted = patch;
        hinted.order = sao;
        PatchResult a = PatchJoin(post, kind, patch, old_tuples, touched);
        PatchResult b = PatchJoin(post, kind, hinted, old_tuples, touched);
        EXPECT_FALSE(a.full_recompute)
            << a.shards_rerun << "/" << a.shards_total << " shards";
        ExpectSameRun(a.result, b.result);
        EXPECT_EQ(a.result.tuples, RunJoin(post, EngineKind::kLeapfrog).tuples);
      }
      {
        SCOPED_TRACE("JoinService cold read");
        ServiceOptions sopts;
        sopts.executor = &pool;
        JoinService service(sopts);
        QueryRequest request;
        request.engine = kind;
        request.use_cache = false;  // both reads run cold
        std::string error;
        for (const auto& rel : qi.storage) {
          ASSERT_TRUE(service.Register(*rel, &error)) << error;
          request.relations.push_back(rel->name());
        }
        QueryRequest hinted = request;
        hinted.order = sao;
        ExpectSameRun(*service.Execute(request).result,
                      *service.Execute(hinted).result);
      }
      {
        SCOPED_TRACE("JoinService patched read");
        // A cached read, then a fresh row in the first relation: the next
        // read patches the cached entry. One service per order, since the
        // order hint stays out of the cache key.
        const Relation& first = *qi.storage[0];
        Tuple added = {1, 2};
        while (first.Contains(added)) ++added[1];
        auto patched_read = [&](const std::vector<int>& order) {
          ServiceOptions sopts;
          sopts.executor = &pool;
          JoinService service(sopts);
          QueryRequest request;
          request.engine = kind;
          request.order = order;
          request.depth = qi.depth;  // stable across the append
          std::string error;
          for (const auto& rel : qi.storage) {
            EXPECT_TRUE(service.Register(*rel, &error)) << error;
            request.relations.push_back(rel->name());
          }
          EXPECT_TRUE(service.Execute(request).result->ok);
          EXPECT_TRUE(service.AppendRows(first.name(), {added}, &error))
              << error;
          const QueryResponse resp = service.Execute(request);
          EXPECT_TRUE(resp.patched);
          return resp.result;
        };
        ExpectSameRun(*patched_read({}), *patched_read(sao));
      }
    }
  }
}

// The Balance-lifted variants choose their own SAO, so their unhinted
// runs keep relation-column-order indexes.
TEST(JoinEngineTest, BalanceLiftedVariantsKeepRelationOrderIndexes) {
  for (const QueryInstance& qi :
       SaoDifferentialInstances(/*rows=*/60, /*d=*/5)) {
    for (EngineKind kind :
         {EngineKind::kTetrisPreloadedLB, EngineKind::kTetrisReloadedLB}) {
      SCOPED_TRACE(EngineKindName(kind));
      const JoinAlgorithm algo = *TetrisAlgorithmOf(kind);
      EXPECT_TRUE(DefaultSao(qi.query, algo).empty());
      std::vector<std::unique_ptr<SortedIndex>> owned;
      std::vector<const Index*> ptrs;
      for (const Atom& a : qi.query.atoms()) {
        owned.push_back(std::make_unique<SortedIndex>(*a.rel, qi.depth));
        ptrs.push_back(owned.back().get());
      }
      JoinRunResult want = RunTetrisJoin(qi.query, ptrs, qi.depth, algo);
      std::sort(want.tuples.begin(), want.tuples.end());
      want.tuples.erase(std::unique(want.tuples.begin(), want.tuples.end()),
                        want.tuples.end());
      EngineResult got = RunJoin(qi.query, kind);
      ASSERT_TRUE(got.ok) << got.error;
      EXPECT_EQ(got.tuples, want.tuples);
      EXPECT_EQ(got.stats.tetris.resolutions, want.stats.resolutions);
    }
  }
}

}  // namespace
}  // namespace tetris
