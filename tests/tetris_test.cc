#include "engine/tetris.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/join_engine.h"
#include "engine/join_runner.h"
#include "engine/measure.h"
#include "engine/proof_log.h"
#include "index/index_view.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace tetris {
namespace {

DyadicInterval Iv(uint64_t bits, int len) {
  return {bits, static_cast<uint8_t>(len)};
}
const DyadicInterval kLam = DyadicInterval::Lambda();

// Collects all Tetris outputs as sorted point tuples.
std::vector<std::vector<uint64_t>> RunCollect(const BoxOracle& oracle,
                                              const SplitSpace& space,
                                              TetrisOptions opt,
                                              TetrisStats* stats = nullptr) {
  Tetris engine(&oracle, &space, std::move(opt));
  std::vector<std::vector<uint64_t>> out;
  RunStatus status = engine.Run([&](const DyadicBox& p) {
    out.push_back(p.ToPoint());
    return true;
  });
  EXPECT_EQ(status, RunStatus::kCompleted);
  if (stats) *stats = engine.stats();
  std::sort(out.begin(), out.end());
  return out;
}

// Brute-force reference: every grid point not covered by any box.
std::vector<std::vector<uint64_t>> BruteUncovered(
    const std::vector<DyadicBox>& boxes, int n, int d) {
  std::vector<std::vector<uint64_t>> out;
  std::vector<uint64_t> t(n, 0);
  const uint64_t dom = uint64_t{1} << d;
  for (;;) {
    bool covered = false;
    for (const auto& b : boxes) {
      if (b.ContainsPoint(t, d)) {
        covered = true;
        break;
      }
    }
    if (!covered) out.push_back(t);
    int i = n - 1;
    while (i >= 0 && ++t[i] == dom) t[i--] = 0;
    if (i < 0) break;
  }
  return out;
}

// The paper's Example 4.4 / Figure 10 BCP instance.
std::vector<DyadicBox> Example44Boxes() {
  return {
      DyadicBox::Of({kLam, Iv(0b0, 1)}),
      DyadicBox::Of({Iv(0b00, 2), kLam}),
      DyadicBox::Of({kLam, Iv(0b11, 2)}),
      DyadicBox::Of({Iv(0b10, 2), Iv(0b1, 1)}),
  };
}

TEST(Tetris, PaperExample44OutputsTwoTuples) {
  MaterializedOracle oracle(2);
  oracle.AddAll(Example44Boxes());
  UniformSpace space(2, 2);
  for (auto init : {TetrisOptions::Init::kPreloaded,
                    TetrisOptions::Init::kReloaded}) {
    TetrisOptions opt;
    opt.init = init;
    auto out = RunCollect(oracle, space, opt);
    // Expected output tuples: <01,10> = (1,2) and <11,10> = (3,2).
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(out[1], (std::vector<uint64_t>{3, 2}));
  }
}

TEST(Tetris, EmptyInputEnumeratesWholeGrid) {
  MaterializedOracle oracle(2);
  UniformSpace space(2, 2);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  auto out = RunCollect(oracle, space, opt);
  EXPECT_EQ(out.size(), 16u);
}

TEST(Tetris, UniversalBoxGivesEmptyOutput) {
  MaterializedOracle oracle(3);
  oracle.Add(DyadicBox::Universal(3));
  UniformSpace space(3, 4);
  TetrisStats stats;
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kPreloaded;
  auto out = RunCollect(oracle, space, opt, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.outputs, 0);
  EXPECT_EQ(stats.resolutions, 0);  // covered at the root, nothing to do
}

// Paper Figure 5: triangle-query gap boxes whose union covers the whole
// cube -> empty output.
TEST(Tetris, PaperFigure5EmptyJoin) {
  const int d = 4;
  MaterializedOracle oracle(3);
  // R(A,B): gaps <0,0,λ>, <1,1,λ>; S(B,C): <λ,0,0>, <λ,1,1>;
  // T(A,C): <0,λ,0>, <1,λ,1>.
  oracle.Add(DyadicBox::Of({Iv(0, 1), Iv(0, 1), kLam}));
  oracle.Add(DyadicBox::Of({Iv(1, 1), Iv(1, 1), kLam}));
  oracle.Add(DyadicBox::Of({kLam, Iv(0, 1), Iv(0, 1)}));
  oracle.Add(DyadicBox::Of({kLam, Iv(1, 1), Iv(1, 1)}));
  oracle.Add(DyadicBox::Of({Iv(0, 1), kLam, Iv(0, 1)}));
  oracle.Add(DyadicBox::Of({Iv(1, 1), kLam, Iv(1, 1)}));
  UniformSpace space(3, d);
  for (auto init : {TetrisOptions::Init::kPreloaded,
                    TetrisOptions::Init::kReloaded}) {
    TetrisOptions opt;
    opt.init = init;
    auto out = RunCollect(oracle, space, opt);
    EXPECT_TRUE(out.empty());
  }
}

// Paper Figure 6: T' has msb(a) == msb(c); the output is non-empty.
TEST(Tetris, PaperFigure6NonEmptyJoin) {
  const int d = 2;
  std::vector<DyadicBox> boxes = {
      DyadicBox::Of({Iv(0, 1), Iv(0, 1), kLam}),
      DyadicBox::Of({Iv(1, 1), Iv(1, 1), kLam}),
      DyadicBox::Of({kLam, Iv(0, 1), Iv(0, 1)}),
      DyadicBox::Of({kLam, Iv(1, 1), Iv(1, 1)}),
      DyadicBox::Of({Iv(0, 1), kLam, Iv(1, 1)}),  // T' gaps
      DyadicBox::Of({Iv(1, 1), kLam, Iv(0, 1)}),
  };
  MaterializedOracle oracle(3);
  oracle.AddAll(boxes);
  UniformSpace space(3, d);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  auto out = RunCollect(oracle, space, opt);
  auto expected = BruteUncovered(boxes, 3, d);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
  EXPECT_FALSE(out.empty());
}

TEST(Tetris, SinkCanStopEarly) {
  MaterializedOracle oracle(2);
  UniformSpace space(2, 3);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  Tetris engine(&oracle, &space, opt);
  int seen = 0;
  RunStatus status = engine.Run([&](const DyadicBox&) {
    return ++seen < 3;
  });
  EXPECT_EQ(status, RunStatus::kStoppedBySink);
  EXPECT_EQ(seen, 3);
}

TEST(Tetris, LoadBudgetTriggersRestartSignal) {
  MaterializedOracle oracle(2);
  // Many thin boxes so reloaded mode must load a lot.
  for (uint64_t x = 0; x < 8; ++x) {
    oracle.Add(DyadicBox::Of({Iv(x, 3), kLam}));
  }
  UniformSpace space(2, 3);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  opt.load_budget = 2;
  Tetris engine(&oracle, &space, opt);
  EXPECT_EQ(engine.Run([](const DyadicBox&) { return true; }),
            RunStatus::kBudgetExceeded);
}

TEST(Tetris, StatsAreConsistent) {
  MaterializedOracle oracle(2);
  oracle.AddAll(Example44Boxes());
  UniformSpace space(2, 2);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  TetrisStats stats;
  auto out = RunCollect(oracle, space, opt, &stats);
  EXPECT_EQ(stats.outputs, static_cast<int64_t>(out.size()));
  EXPECT_LE(stats.boxes_loaded, static_cast<int64_t>(oracle.size()));
  EXPECT_EQ(stats.resolutions,
            stats.gap_resolutions + stats.output_resolutions);
}

TEST(Tetris, NoCacheModeStillCorrect) {
  MaterializedOracle oracle(2);
  oracle.AddAll(Example44Boxes());
  UniformSpace space(2, 2);
  TetrisOptions cached, uncached;
  cached.init = uncached.init = TetrisOptions::Init::kPreloaded;
  uncached.cache_resolvents = false;
  TetrisStats s_cached, s_uncached;
  auto a = RunCollect(oracle, space, cached, &s_cached);
  auto b = RunCollect(oracle, space, uncached, &s_uncached);
  EXPECT_EQ(a, b);
  // Without caching the engine may repeat resolutions but never fewer.
  EXPECT_GE(s_uncached.resolutions, s_cached.resolutions);
}

TEST(Tetris, SaoPermutationPreservesOutput) {
  std::vector<DyadicBox> boxes = Example44Boxes();
  MaterializedOracle oracle(2);
  oracle.AddAll(boxes);
  UniformSpace space(2, 2);
  for (auto sao : {std::vector<int>{0, 1}, std::vector<int>{1, 0}}) {
    TetrisOptions opt;
    opt.init = TetrisOptions::Init::kReloaded;
    opt.sao = sao;
    auto out = RunCollect(oracle, space, opt);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(out[1], (std::vector<uint64_t>{3, 2}));
  }
}

TEST(Tetris, OneDimensionalIntersection) {
  // Two "unary relations" as complements: gaps of {1,3} and {3,5} over
  // d=3 -> intersection {3}.
  auto gaps_of = [](std::set<uint64_t> vals) {
    std::vector<DyadicBox> out;
    uint64_t prev = 0;
    for (uint64_t v : vals) {
      for (uint64_t x = prev; x < v; ++x) {
        out.push_back(DyadicBox::Of({Iv(x, 3)}));
      }
      prev = v + 1;
    }
    for (uint64_t x = prev; x < 8; ++x) {
      out.push_back(DyadicBox::Of({Iv(x, 3)}));
    }
    return out;
  };
  MaterializedOracle oracle(1);
  for (const auto& b : gaps_of({1, 3})) oracle.Add(b);
  for (const auto& b : gaps_of({3, 5})) oracle.Add(b);
  UniformSpace space(1, 3);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kReloaded;
  auto out = RunCollect(oracle, space, opt);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (std::vector<uint64_t>{3}));
}

// Property sweep: random box sets, all engine configurations, outputs
// must equal the brute-force complement.
struct BcpCase {
  int n;
  int d;
  int boxes;
  uint64_t seed;
};

class TetrisProperty : public ::testing::TestWithParam<BcpCase> {};

TEST_P(TetrisProperty, MatchesBruteForce) {
  const auto [n, d, num_boxes, seed] = GetParam();
  Rng rng(seed);
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<DyadicBox> boxes;
    for (int i = 0; i < num_boxes; ++i) {
      DyadicBox b = DyadicBox::Universal(n);
      for (int j = 0; j < n; ++j) {
        // Bias toward longer intervals so outputs stay non-trivial.
        int len = static_cast<int>(rng.Below(d + 1));
        if (rng.Chance(0.3)) len = d;
        b[j] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
      }
      boxes.push_back(b);
    }
    auto expected = BruteUncovered(boxes, n, d);
    std::sort(expected.begin(), expected.end());

    MaterializedOracle oracle(n);
    oracle.AddAll(boxes);
    UniformSpace space(n, d);
    // One pass enters no node twice, so it visits at most the full split
    // tree: n·d halvings from <λ,...,λ> down to the unit boxes.
    const int64_t full_tree = (int64_t{1} << (n * d + 1)) - 1;
    for (auto init : {TetrisOptions::Init::kPreloaded,
                      TetrisOptions::Init::kReloaded}) {
      for (bool cache : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " d=" << d << " iter=" << iter
                     << " init=" << static_cast<int>(init)
                     << " cache=" << cache);
        TetrisOptions opt;
        opt.init = init;
        opt.cache_resolvents = cache;
        TetrisStats stats;
        auto out = RunCollect(oracle, space, opt, &stats);
        ASSERT_EQ(out, expected);
        EXPECT_LE(stats.skeleton_nodes, full_tree);
      }
    }
    // Coverage decision must agree with the measure.
    double uncovered = UncoveredMeasure(boxes, n, d);
    EXPECT_DOUBLE_EQ(uncovered, static_cast<double>(expected.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TetrisProperty,
    ::testing::Values(BcpCase{1, 5, 10, 1}, BcpCase{2, 3, 8, 2},
                      BcpCase{2, 4, 20, 3}, BcpCase{3, 2, 10, 4},
                      BcpCase{3, 3, 25, 5}, BcpCase{4, 2, 15, 6},
                      BcpCase{2, 4, 3, 7}, BcpCase{3, 3, 60, 8}));

// Pins the skeleton's work on fixed instances: every TetrisStats counter
// but the byte-level kb_peak_bytes, the oracle probes and the output of
// each Tetris-family engine. Lemma 4.5 makes these counters the cost
// measure, so any change to which box the KB lookup returns, which
// dimension is split, which resolvent is built or the insert order shows
// up here even when the output stays right.
struct PinnedRun {
  const char* instance;
  EngineKind kind;
  int64_t resolutions, gap_resolutions, output_resolutions, kb_inserts,
      boxes_loaded, skeleton_nodes, outputs, restarts, oracle_probes;
  size_t tuples;
  uint64_t digest;  // FNV-1a over the canonical tuples' values
};

uint64_t TupleDigest(const std::vector<Tuple>& tuples) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Tuple& t : tuples) {
    for (uint64_t v : t) h = (h ^ v) * 0x100000001b3ULL;
  }
  return h;
}

QueryInstance PinnedInstance(const std::string& name) {
  if (name == "full_grid_6") return FullGridTriangle(6);
  if (name == "msb_4_open") return MsbTriangle(4, /*closed_variant=*/false);
  if (name == "random_200_8") return RandomTriangle(200, 8, /*seed=*/11);
  if (name == "striped_path") return StripedEmptyPath(2, 80, 6, /*seed=*/7);
  return StripedEmptyCycle(2, 80, 6, /*seed=*/7);
}

// Columns: resolutions, gap, output, kb_inserts, boxes_loaded,
// skeleton_nodes, outputs, restarts, oracle_probes, tuples, digest.
const PinnedRun kPinnedRuns[] = {
    {"full_grid_6", EngineKind::kTetrisPreloaded,
     258, 0, 258, 20, 20, 517, 216, 0, 0, 216, 0x564edde86ad488c9ULL},
    {"full_grid_6", EngineKind::kTetrisReloaded,
     258, 0, 258, 15, 15, 534, 216, 0, 224, 216, 0x564edde86ad488c9ULL},
    {"full_grid_6", EngineKind::kTetrisPreloadedNoCache,
     258, 0, 258, 20, 20, 517, 216, 0, 0, 216, 0x564edde86ad488c9ULL},
    {"full_grid_6", EngineKind::kTetrisPreloadedLB,
     243, 6, 237, 26, 20, 488, 216, 0, 0, 216, 0x564edde86ad488c9ULL},
    {"full_grid_6", EngineKind::kTetrisReloadedLB,
     267, 9, 258, 24, 15, 565, 216, 0, 224, 216, 0x564edde86ad488c9ULL},
    {"msb_4_open", EngineKind::kTetrisPreloaded,
     271, 271, 0, 48, 48, 543, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"msb_4_open", EngineKind::kTetrisReloaded,
     271, 271, 0, 48, 48, 753, 0, 0, 46, 0, 0xcbf29ce484222325ULL},
    {"msb_4_open", EngineKind::kTetrisPreloadedNoCache,
     271, 271, 0, 48, 48, 543, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"msb_4_open", EngineKind::kTetrisPreloadedLB,
     53, 53, 0, 86, 48, 215, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"msb_4_open", EngineKind::kTetrisReloadedLB,
     100, 100, 0, 189, 103, 441, 0, 2, 59, 0, 0xcbf29ce484222325ULL},
    {"random_200_8", EngineKind::kTetrisPreloaded,
     1158, 1111, 47, 4456, 4456, 2317, 2, 0, 0, 2, 0x215c0325cb5b0c46ULL},
    {"random_200_8", EngineKind::kTetrisReloaded,
     1420, 1373, 47, 2563, 2563, 8356, 2, 0, 384, 2, 0x215c0325cb5b0c46ULL},
    {"random_200_8", EngineKind::kTetrisPreloadedNoCache,
     1158, 1111, 47, 4456, 4456, 2317, 2, 0, 0, 2, 0x215c0325cb5b0c46ULL},
    {"random_200_8", EngineKind::kTetrisPreloadedLB,
     11704, 11657, 47, 14571, 4439, 32952, 2, 0, 0, 2, 0x215c0325cb5b0c46ULL},
    {"random_200_8", EngineKind::kTetrisReloadedLB,
     19546, 19454, 92, 23601, 5692, 59760, 2, 7, 792, 2, 0x215c0325cb5b0c46ULL},
    {"striped_path", EngineKind::kTetrisPreloaded,
     3, 3, 0, 625, 625, 7, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"striped_path", EngineKind::kTetrisReloaded,
     170, 170, 0, 300, 300, 1624, 0, 0, 102, 0, 0xcbf29ce484222325ULL},
    {"striped_path", EngineKind::kTetrisPreloadedNoCache,
     3, 3, 0, 625, 625, 7, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"striped_path", EngineKind::kTetrisPreloadedLB,
     210, 210, 0, 841, 674, 869, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"striped_path", EngineKind::kTetrisReloadedLB,
     325, 325, 0, 967, 673, 1547, 0, 4, 173, 0, 0xcbf29ce484222325ULL},
    {"striped_cycle", EngineKind::kTetrisPreloaded,
     3, 3, 0, 1286, 1286, 7, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"striped_cycle", EngineKind::kTetrisReloaded,
     5, 5, 0, 37, 35, 109, 0, 0, 4, 0, 0xcbf29ce484222325ULL},
    {"striped_cycle", EngineKind::kTetrisPreloadedNoCache,
     3, 3, 0, 1286, 1286, 7, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"striped_cycle", EngineKind::kTetrisPreloadedLB,
     136, 136, 0, 1477, 1341, 295, 0, 0, 0, 0, 0xcbf29ce484222325ULL},
    {"striped_cycle", EngineKind::kTetrisReloadedLB,
     1826, 1826, 0, 4029, 2368, 9578, 0, 6, 235, 0, 0xcbf29ce484222325ULL},
};

TEST(TetrisWorkCounters, PinnedOnFixedInstances) {
  for (const PinnedRun& want : kPinnedRuns) {
    SCOPED_TRACE(std::string(want.instance) + "/" +
                 EngineKindName(want.kind));
    QueryInstance q = PinnedInstance(want.instance);
    EngineResult r = RunJoin(q.query, want.kind);
    ASSERT_TRUE(r.ok) << r.error;
    const TetrisStats& s = r.stats.tetris;
    EXPECT_EQ(s.resolutions, want.resolutions);
    EXPECT_EQ(s.gap_resolutions, want.gap_resolutions);
    EXPECT_EQ(s.output_resolutions, want.output_resolutions);
    EXPECT_EQ(s.kb_inserts, want.kb_inserts);
    EXPECT_EQ(s.boxes_loaded, want.boxes_loaded);
    EXPECT_EQ(s.skeleton_nodes, want.skeleton_nodes);
    EXPECT_EQ(s.outputs, want.outputs);
    EXPECT_EQ(s.restarts, want.restarts);
    EXPECT_EQ(r.stats.oracle_probes, want.oracle_probes);
    EXPECT_EQ(r.tuples.size(), want.tuples);
    EXPECT_EQ(TupleDigest(r.tuples), want.digest);
  }
}

// An output's unit box is its node box, and a resolvent with an output-
// derived premise equals its node box too, so the skeleton never caches
// it. On a full grid every resolution has such a premise: Ordered
// (tetris-preloaded) and Tree-Ordered (tetris-preloaded-nocache)
// resolution then do identical work, and A holds only the input's gaps.
TEST(TetrisWorkCounters, FullGridCachesNoResolvent) {
  for (int m : {2, 3, 6, 8, 12}) {
    SCOPED_TRACE("full_grid_" + std::to_string(m));
    QueryInstance q = FullGridTriangle(m);
    const EngineResult cached = RunJoin(q.query, EngineKind::kTetrisPreloaded);
    const EngineResult uncached =
        RunJoin(q.query, EngineKind::kTetrisPreloadedNoCache);
    ASSERT_TRUE(cached.ok) << cached.error;
    ASSERT_TRUE(uncached.ok) << uncached.error;
    const TetrisStats& a = cached.stats.tetris;
    const TetrisStats& b = uncached.stats.tetris;
    EXPECT_EQ(a.resolutions, a.output_resolutions);
    EXPECT_EQ(a.resolutions, b.resolutions);
    EXPECT_EQ(a.gap_resolutions, b.gap_resolutions);
    EXPECT_EQ(a.output_resolutions, b.output_resolutions);
    EXPECT_EQ(a.kb_inserts, b.kb_inserts);
    EXPECT_EQ(a.kb_inserts, a.boxes_loaded);
    EXPECT_EQ(a.boxes_loaded, b.boxes_loaded);
    EXPECT_EQ(a.skeleton_nodes, b.skeleton_nodes);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.kb_peak_bytes, b.kb_peak_bytes);
    EXPECT_EQ(cached.tuples, uncached.tuples);
  }
}

// Pins which gap boxes reach the knowledge base and in which order: an
// FNV-1a digest of a ProofLog's axiom list (each loaded box's engine-order
// components, in insertion order). The work counters above can miss a
// reordering that happens to cost the same; this cannot. The runs mirror
// RunJoin's (DefaultSao, SAO-consistent indexes); a `shard` row runs over
// IndexViews of the sub-box <0, 0, 0>, as one shard of a sharded run does.
struct PinnedAxioms {
  const char* instance;
  EngineKind kind;
  bool shard;  // over IndexViews of the sub-box <0, 0, 0>
  size_t axioms;
  uint64_t digest;
};

PinnedAxioms RunAxioms(const char* instance, EngineKind kind, bool shard) {
  const QueryInstance q = PinnedInstance(instance);
  const JoinAlgorithm algo = *TetrisAlgorithmOf(kind);
  const std::vector<int> sao = DefaultSao(q.query, algo);
  const auto owned = MakeSaoConsistentIndexes(q.query, sao, q.depth);
  std::vector<const Index*> indexes = IndexPtrs(owned);
  std::vector<IndexView> views;
  if (shard) {
    views.reserve(indexes.size());
    for (size_t a = 0; a < indexes.size(); ++a) {
      // <0, 0, 0> projected onto the atom: the low half of every column.
      const int k = static_cast<int>(q.query.atoms()[a].var_ids.size());
      DyadicBox box = DyadicBox::Universal(k);
      for (int c = 0; c < k; ++c) box[c] = Iv(0, 1);
      views.emplace_back(indexes[a], box);
      indexes[a] = &views.back();
    }
  }
  RelationOracle oracle(&q.query, indexes, q.depth);
  UniformSpace space(q.query.num_attrs(), q.depth);
  ProofLog log(space.dims(), q.depth);
  TetrisOptions opt;
  opt.init = kind == EngineKind::kTetrisReloaded
                 ? TetrisOptions::Init::kReloaded
                 : TetrisOptions::Init::kPreloaded;
  opt.sao = sao;
  opt.proof_log = &log;
  Tetris engine(&oracle, &space, opt);
  engine.Run([](const DyadicBox&) { return true; });
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const DyadicBox& b : log.axioms()) {
    for (int i = 0; i < b.dims(); ++i) {
      h = (h ^ b[i].bits) * 0x100000001b3ULL;
      h = (h ^ b[i].len) * 0x100000001b3ULL;
    }
  }
  return {instance, kind, shard, log.axiom_count(), h};
}

// Columns: instance, engine, shard, axioms, digest.
const PinnedAxioms kPinnedAxioms[] = {
    {"full_grid_6", EngineKind::kTetrisPreloaded, false, 20,
     0x181becfa9b9eaec4ULL},
    {"full_grid_6", EngineKind::kTetrisReloaded, false, 15,
     0x7ec8082706453579ULL},
    {"msb_4_open", EngineKind::kTetrisPreloaded, false, 48,
     0x6919bdacc4c39ab5ULL},
    {"msb_4_open", EngineKind::kTetrisReloaded, false, 48,
     0x89defdb6d5d2b849ULL},
    {"random_200_8", EngineKind::kTetrisPreloaded, false, 4456,
     0xa9d09cb06318e6e6ULL},
    {"random_200_8", EngineKind::kTetrisReloaded, false, 2563,
     0x00da67c0371dd73bULL},
    {"striped_path", EngineKind::kTetrisPreloaded, false, 625,
     0x06f57f4417e1f797ULL},
    {"striped_path", EngineKind::kTetrisReloaded, false, 300,
     0x22911154a1b0b323ULL},
    {"striped_cycle", EngineKind::kTetrisPreloaded, false, 1286,
     0x1e91c65a894a45e2ULL},
    {"striped_cycle", EngineKind::kTetrisReloaded, false, 35,
     0x909861fc21c4dea1ULL},
    {"random_200_8", EngineKind::kTetrisPreloaded, true, 1156,
     0x940e55b7486cfebcULL},
};

TEST(TetrisWorkCounters, AxiomSequencePinned) {
  for (const PinnedAxioms& want : kPinnedAxioms) {
    SCOPED_TRACE(std::string(want.instance) + "/" +
                 EngineKindName(want.kind) + (want.shard ? "/shard" : ""));
    const PinnedAxioms got = RunAxioms(want.instance, want.kind, want.shard);
    EXPECT_EQ(got.axioms, want.axioms);
    EXPECT_EQ(got.digest, want.digest);
  }
}

}  // namespace
}  // namespace tetris
