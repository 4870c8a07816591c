// The two batch-evaluation workloads: one query per op through RunJoin.
//
//   join-worstcase    AGM-tight full-grid triangle, tetris-preloaded,
//                     8 shards on a private 1-worker pool (so they run in
//                     order on the calling thread), no indexes passed
//                     (RunJoin builds its base indexes per call).
//   join-certificate  striped empty paths and 4-cycles (Appendix B),
//                     tetris-reloaded, unsharded, SAO-consistent indexes
//                     built once in set-up and passed in. One op is one
//                     round over the six queries.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "engine/parallel_executor.h"
#include "engine/shard_planner.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using tetris::EngineKind;
using tetris::EngineOptions;
using tetris::EngineResult;
using tetris::JoinAlgorithm;
using tetris::QueryInstance;

// ---------------------------------------------------------------------

class JoinWorstcase : public Workload {
 public:
  static constexpr uint64_t kM = 24;  // N = m^2 rows/relation, Z = m^3

  std::string Sizes() const override {
    return "full-grid triangle m=24: N=576 rows/relation, Z=13824 tuples; "
           "tetris-preloaded, SAO (A,B,C), 8 shards, 1-worker pool";
  }
  // About 55 ms per query.
  size_t OpCount(int seconds) const override {
    return static_cast<size_t>(seconds) * 18;
  }
  size_t BlockOps() const override { return 5; }
  int SetupReps() const override { return 7; }

  uint64_t InputDigest() const override {
    uint64_t h = 0;
    for (const auto& r : instance_->storage) h = h * 31 + DigestRows(r->rows());
    return h;
  }

  void Setup(size_t, Tracer*) override {
    instance_.reset();
    pool_.reset();
    totals_ = LayerTotals{};
    // One worker: with two, a run's speed tracked how often the host
    // let both run at once, which varied by 25% from run to run.
    pool_ = std::make_unique<tetris::WorkStealingPool>(1);
    instance_ = std::make_unique<QueryInstance>(tetris::FullGridTriangle(kM));
    opts_ = EngineOptions{};
    opts_.order = {0, 1, 2};
    opts_.shards = 8;
    opts_.threads = 0;  // the private pool's full width
    opts_.executor = pool_.get();
    // Warm-up pass: one block of queries (a fresh process's first
    // queries run slower while its heap grows), results discarded.
    for (size_t i = 0; i < BlockOps(); ++i) {
      (void)tetris::RunJoin(instance_->query, EngineKind::kTetrisPreloaded,
                            opts_);
    }
  }

  OpSample RunOp(size_t i, Tracer* tr) override {
    const tetris::JoinQuery& q = instance_->query;
    OpSample sample;
    const Clock::time_point t0 = Clock::now();
    EngineResult r = tetris::RunJoin(q, EngineKind::kTetrisPreloaded, opts_);
    const Clock::time_point t1 = Clock::now();
    sample.ms = MsBetween(t0, t1);
    sample.ok = r.ok && IsGridProduct(r.tuples);
    if (tr != nullptr) {
      tr->Record("engine.run_join", i, t0, t1);
      AddRunStats(r, &totals_);
      const int depth = Probe(tr, "query.min_depth", i,
                              [&] { return q.MinDepth(); });
      tetris::ShardPlanOptions popts;
      popts.shards = opts_.shards;
      popts.depth = depth;
      Probe(tr, "shard.plan", i,
            [&] { return tetris::PlanShards(q, popts).shards.size(); });
      ProbeTetris(tr, i, q, opts_.order, depth,
                  JoinAlgorithm::kTetrisPreloaded, nullptr);
    }
    return sample;
  }

  // Every op is checked inline (after its timer stops).
  size_t Verify() override { return 0; }

 private:
  // The canonical output must be exactly [m]^3 in lexicographic order.
  static bool IsGridProduct(const std::vector<tetris::Tuple>& tuples) {
    if (tuples.size() != kM * kM * kM) return false;
    size_t k = 0;
    for (uint64_t a = 0; a < kM; ++a) {
      for (uint64_t b = 0; b < kM; ++b) {
        for (uint64_t c = 0; c < kM; ++c, ++k) {
          const tetris::Tuple& t = tuples[k];
          if (t.size() != 3 || t[0] != a || t[1] != b || t[2] != c) {
            return false;
          }
        }
      }
    }
    return true;
  }

  std::unique_ptr<tetris::WorkStealingPool> pool_;
  std::unique_ptr<QueryInstance> instance_;
  EngineOptions opts_;
};

// ---------------------------------------------------------------------

class JoinCertificate : public Workload {
 public:
  static constexpr int kDepth = 16;
  static constexpr size_t kRows = 200000;  // per relation

  explicit JoinCertificate(uint64_t seed) : seed_(seed) {}

  std::string Sizes() const override {
    return "striped empty joins at depth 16, 200000 rows/relation: paths "
           "(tw=1, 2^5/2^6/2^7 stripes, SAO {1,0,2}) and 4-cycles (tw=2, "
           "s=3/4/5, SAO {1,3,0,2}); tetris-reloaded with prebuilt "
           "SAO-consistent indexes, unsharded; one op = the six queries";
  }
  // About 27 ms per round. The six queries differ in cost, so an op is
  // a whole round: per-query latencies form six modes, and a percentile
  // landing between two of them jumps from run to run.
  size_t OpCount(int seconds) const override {
    return static_cast<size_t>(seconds) * 36;
  }
  size_t BlockOps() const override { return 6; }
  int SetupReps() const override { return 5; }

  uint64_t InputDigest() const override {
    uint64_t h = 0;
    for (const auto& c : cases_) {
      for (const auto& r : c->instance.storage) {
        h = h * 31 + DigestRows(r->rows());
      }
    }
    return h;
  }

  void Setup(size_t, Tracer* tr) override {
    cases_.clear();
    totals_ = LayerTotals{};
    tetris::Rng rng(seed_);
    struct Spec {
      bool cycle;
      int stripes_log2;
    };
    const Spec specs[] = {{false, 5}, {false, 6}, {false, 7},
                          {true, 3},  {true, 4},  {true, 5}};
    for (const Spec& spec : specs) {
      auto c = std::make_unique<Case>();
      const uint64_t case_seed = rng.Next();
      c->instance =
          spec.cycle ? tetris::StripedEmptyCycle(spec.stripes_log2, kRows,
                                                 kDepth, case_seed)
                     : tetris::StripedEmptyPath(spec.stripes_log2, kRows,
                                                kDepth, case_seed);
      c->sao = spec.cycle ? std::vector<int>{1, 3, 0, 2}
                          : std::vector<int>{1, 0, 2};
      c->indexes = Probe(tr, "index.build", 0, [&] {
        return tetris::MakeSaoConsistentIndexes(c->instance.query, c->sao,
                                                kDepth);
      });
      c->opts.order = c->sao;
      c->opts.depth = kDepth;
      c->opts.indexes = tetris::IndexPtrs(c->indexes);
      cases_.push_back(std::move(c));
    }
    // Warm-up pass: one block of ops.
    for (size_t i = 0; i < BlockOps(); ++i) {
      for (const auto& c : cases_) {
        (void)tetris::RunJoin(c->instance.query, EngineKind::kTetrisReloaded,
                              c->opts);
      }
    }
  }

  OpSample RunOp(size_t i, Tracer* tr) override {
    OpSample sample;
    for (const auto& c : cases_) {
      const tetris::JoinQuery& q = c->instance.query;
      const Clock::time_point t0 = Clock::now();
      EngineResult r = tetris::RunJoin(q, EngineKind::kTetrisReloaded,
                                       c->opts);
      const Clock::time_point t1 = Clock::now();
      const double ms = MsBetween(t0, t1);
      sample.ms += ms;
      // Every striped join is empty.
      sample.ok = sample.ok && r.ok && r.tuples.empty();
      if (tr == nullptr) continue;
      tr->Record("engine.run_join", i, t0, t1);
      AddRunStats(r, &totals_);
      Probe(tr, "query.min_depth", i, [&] { return q.MinDepth(); });
      // The facade's share: RunJoin minus RunTetrisJoin on the same
      // prebuilt indexes.
      totals_.facade_ms.push_back(
          ms - ProbeTetris(tr, i, q, c->sao, kDepth,
                           JoinAlgorithm::kTetrisReloaded, &c->opts.indexes));
    }
    return sample;
  }

  size_t Verify() override { return 0; }

 private:
  struct Case {
    QueryInstance instance;
    std::vector<int> sao;
    std::vector<std::unique_ptr<tetris::Index>> indexes;
    EngineOptions opts;
  };

  uint64_t seed_;
  std::vector<std::unique_ptr<Case>> cases_;
};

}  // namespace

std::unique_ptr<Workload> MakeJoinWorstcase(uint64_t) {
  return std::make_unique<JoinWorstcase>();
}

std::unique_ptr<Workload> MakeJoinCertificate(uint64_t seed) {
  return std::make_unique<JoinCertificate>(seed);
}

}  // namespace perfbench
