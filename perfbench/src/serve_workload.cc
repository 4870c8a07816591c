// serve-mutate: the resident JoinService as it is used, writes beside
// reads, one closed-loop client.
//
// R(A,B), S(B,C), T(A,C) hold 600 seeded random rows each at depth 8.
// Reads cycle through R⋈S⋈T, R⋈S, S⋈T, T⋈R. Every 16th op is a 1-row
// write on R, S, T in rotation; each relation alternates between
// appending a fresh row and deleting a previously appended one. Every
// 256th op replaces one relation with a fresh 600-row version whose
// payload is generated in set-up. The whole sequence is a function of
// the seed and the op count.
//
// Correctness: each timed read's ok flag, tuple count and tuple digest
// are recorded after its timer stops. Verify() replays the same op
// stream through a plain RelationRegistry and compares every read with
// RunJoin(leapfrog) on that registry's snapshot.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "engine/parallel_executor.h"
#include "server/join_service.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using tetris::Relation;
using tetris::Tuple;

constexpr size_t kRows = 600;
constexpr int kDepth = 8;
constexpr size_t kWriteEvery = 16;
constexpr size_t kReplaceEvery = 256;

const char* const kNames[3] = {"R", "S", "T"};
const std::vector<std::string> kAttrs[3] = {{"A", "B"}, {"B", "C"}, {"A", "C"}};
const std::vector<std::string> kShapes[4] = {
    {"R", "S", "T"}, {"R", "S"}, {"S", "T"}, {"T", "R"}};

struct ServeOp {
  OpKind kind = OpKind::kRead;
  int rel = 0;    ///< writes and replaces: index into kNames
  int shape = 0;  ///< reads: index into kShapes
  Tuple row;      ///< appends and deletes
  std::unique_ptr<Relation> replacement;  ///< replaces
};

struct Stream {
  std::vector<Relation> initial;  // R, S, T
  std::vector<ServeOp> ops;
};

// The op stream for `seed`, `n` ops long. A model of each relation's
// rows picks fresh rows to append and present rows to delete, so every
// write changes the relation.
Stream MakeStream(uint64_t seed, size_t n) {
  tetris::Rng rng(seed);
  Stream s;
  std::set<Tuple> model[3];
  std::vector<Tuple> appended[3];  // appended rows still present
  for (int r = 0; r < 3; ++r) {
    s.initial.push_back(
        tetris::RandomRelation(kNames[r], kAttrs[r], kRows, kDepth, rng.Next()));
    for (auto row : s.initial.back().rows()) model[r].insert(row.ToTuple());
  }
  const uint64_t dom = uint64_t{1} << kDepth;
  size_t reads = 0, writes = 0, replaces = 0;
  s.ops.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ServeOp& op = s.ops[i];
    if ((i + 1) % kReplaceEvery == 0) {
      op.kind = OpKind::kReplace;
      op.rel = static_cast<int>(replaces++ % 3);
      op.replacement = std::make_unique<Relation>(tetris::RandomRelation(
          kNames[op.rel], kAttrs[op.rel], kRows, kDepth, rng.Next()));
      model[op.rel].clear();
      for (auto row : op.replacement->rows()) {
        model[op.rel].insert(row.ToTuple());
      }
      appended[op.rel].clear();
    } else if ((i + 1) % kWriteEvery == 0) {
      op.rel = static_cast<int>(writes % 3);
      std::set<Tuple>& m = model[op.rel];
      if ((writes / 3) % 2 == 0) {
        op.kind = OpKind::kAppend;
        do {
          op.row = {rng.Below(dom), rng.Below(dom)};
        } while (m.count(op.row) > 0);
        appended[op.rel].push_back(op.row);
        m.insert(op.row);
      } else {
        op.kind = OpKind::kDelete;
        if (!appended[op.rel].empty()) {
          op.row = appended[op.rel].back();
          appended[op.rel].pop_back();
        } else {
          // A replace dropped this relation's appended rows: delete a
          // present row instead.
          op.row = *std::next(m.begin(), static_cast<long>(rng.Below(m.size())));
        }
        m.erase(op.row);
      }
      ++writes;
    } else {
      op.kind = OpKind::kRead;
      op.shape = static_cast<int>(reads++ % 4);
    }
  }
  return s;
}

struct ReadRecord {
  bool ok = false;
  size_t tuples = 0;
  uint64_t digest = 0;
};

class ServeMutate : public Workload {
 public:
  explicit ServeMutate(uint64_t seed) : seed_(seed) {}

  std::string Sizes() const override {
    return "JoinService on a 1-worker pool, R/S/T with 600 random rows at "
           "depth 8; reads cycle R*S*T, R*S, S*T, T*R; 1-row append/delete "
           "every 16th op; Replace every 256th op";
  }
  // About 100 ops/s; whole 256-op periods of the mix.
  size_t OpCount(int seconds) const override {
    const size_t n = static_cast<size_t>(seconds) * 100;
    return (n + kReplaceEvery - 1) / kReplaceEvery * kReplaceEvery;
  }
  size_t BlockOps() const override { return kReplaceEvery; }
  int SetupReps() const override { return 9; }

  uint64_t InputDigest() const override {
    uint64_t h = 0;
    for (const Relation& r : stream_.initial) h = h * 31 + DigestRows(r.rows());
    return h;
  }

  void Setup(size_t ops, Tracer*) override {
    service_.reset();
    pool_.reset();
    totals_ = LayerTotals{};
    n_ops_ = ops;
    stream_ = MakeStream(seed_, n_ops_);
    reads_.assign(n_ops_, ReadRecord{});
    pool_ = std::make_unique<tetris::WorkStealingPool>(1);
    tetris::ServiceOptions opts;
    opts.executor = pool_.get();
    service_ = std::make_unique<tetris::JoinService>(opts);
    std::string error;
    for (const Relation& r : stream_.initial) service_->Register(r, &error);
    // Warm-up pass: every read shape once (fills the result cache and
    // the index cache).
    for (const auto& shape : kShapes) {
      tetris::QueryRequest req;
      req.relations = shape;
      (void)service_->Execute(req);
    }
    base_ = Counters();
  }

  OpSample RunOp(size_t i, Tracer* tr) override {
    ServeOp& op = stream_.ops[i];
    OpSample sample;
    sample.kind = op.kind;
    std::string error;
    if (op.kind != OpKind::kRead) {
      static const char* const kSpan[] = {"", "server.append",
                                          "server.delete", "server.replace"};
      const Clock::time_point t0 = Clock::now();
      switch (op.kind) {
        case OpKind::kAppend:
          sample.ok = service_->AppendRows(kNames[op.rel], {op.row}, &error);
          break;
        case OpKind::kDelete:
          sample.ok = service_->DeleteRows(kNames[op.rel], {op.row}, &error);
          break;
        default:
          sample.ok = service_->Replace(std::move(*op.replacement), &error);
          break;
      }
      const Clock::time_point t1 = Clock::now();
      sample.ms = MsBetween(t0, t1);
      if (tr != nullptr) {
        tr->Record(kSpan[static_cast<int>(op.kind)], i, t0, t1);
      }
      return sample;
    }

    tetris::QueryRequest req;
    req.relations = kShapes[op.shape];
    const Clock::time_point t0 = Clock::now();
    const tetris::QueryResponse resp = service_->Execute(req);
    const Clock::time_point t1 = Clock::now();
    sample.ms = MsBetween(t0, t1);
    const tetris::EngineResult& r = *resp.result;
    sample.ok = r.ok;
    reads_[i] = {r.ok, r.tuples.size(), DigestRows(r.tuples)};
    if (tr == nullptr) return sample;

    const char* path = resp.cache_hit ? "hit" : resp.patched ? "patched" : "cold";
    tr->Record("server.execute", i, t0, t1, path);
    if (resp.cache_hit) {
      ++totals_.reads_hit;
    } else if (resp.patched) {
      ++totals_.reads_patched;
      totals_.shards_rerun += static_cast<int64_t>(resp.shards_rerun);
      totals_.shards_total += static_cast<int64_t>(resp.shards_total);
      AddRunStats(r, &totals_);
    } else {
      ++totals_.reads_cold;
      AddRunStats(r, &totals_);
    }
    const tetris::RegistrySnapshot snap = Probe(
        tr, "registry.snap", i, [&] { return service_->registry().Snap(); });
    std::vector<const Relation*> rels;
    for (const std::string& name : req.relations) {
      rels.push_back(snap.Find(name)->rel.get());
    }
    const tetris::JoinQuery q = tetris::JoinQuery::Build(rels);
    const int depth =
        Probe(tr, "query.min_depth", i, [&] { return q.MinDepth(); });
    if (!resp.cache_hit) {
      ProbeTetris(tr, i, q, q.AcyclicSao(), depth,
                  tetris::JoinAlgorithm::kTetrisPreloaded, nullptr);
    }
    return sample;
  }

  void FinishPhase() override {
    const LayerTotals now = Counters();
    LayerTotals& t = totals_;
    t.cache_hits = now.cache_hits - base_.cache_hits;
    t.cache_misses = now.cache_misses - base_.cache_misses;
    t.cache_insertions = now.cache_insertions - base_.cache_insertions;
    t.cache_evictions = now.cache_evictions - base_.cache_evictions;
    t.cache_invalidations =
        now.cache_invalidations - base_.cache_invalidations;
    t.cache_survivals = now.cache_survivals - base_.cache_survivals;
    t.cache_bytes = now.cache_bytes;
    t.patched_reads = now.patched_reads - base_.patched_reads;
    t.index_builds = now.index_builds - base_.index_builds;
    t.index_hits = now.index_hits - base_.index_hits;
    t.index_promotes = now.index_promotes - base_.index_promotes;
    t.index_compactions = now.index_compactions - base_.index_compactions;
    t.index_cache_bytes = now.index_cache_bytes;
  }

  size_t Verify() override {
    Stream ref = MakeStream(seed_, n_ops_);
    tetris::RelationRegistry registry;
    std::string error;
    for (Relation& r : ref.initial) registry.Register(std::move(r), &error);
    size_t wrong = 0;
    for (size_t i = 0; i < n_ops_; ++i) {
      ServeOp& op = ref.ops[i];
      switch (op.kind) {
        case OpKind::kAppend:
          registry.AppendRows(kNames[op.rel], {op.row}, &error);
          continue;
        case OpKind::kDelete:
          registry.DeleteRows(kNames[op.rel], {op.row}, &error);
          continue;
        case OpKind::kReplace:
          registry.Replace(std::move(*op.replacement), &error);
          continue;
        case OpKind::kRead:
          break;
      }
      const tetris::RegistrySnapshot snap = registry.Snap();
      std::vector<const Relation*> rels;
      for (const std::string& name : kShapes[op.shape]) {
        rels.push_back(snap.Find(name)->rel.get());
      }
      const tetris::EngineResult want = tetris::RunJoin(
          tetris::JoinQuery::Build(rels), tetris::EngineKind::kLeapfrog);
      const ReadRecord& got = reads_[i];
      if (!want.ok || got.ok != want.ok || got.tuples != want.tuples.size() ||
          got.digest != DigestRows(want.tuples)) {
        ++wrong;
      }
    }
    return wrong;
  }

 private:
  // The service's cumulative counters, in LayerTotals' service fields.
  LayerTotals Counters() const {
    LayerTotals c;
    tetris::ResultCache& cache = service_->cache();
    c.cache_hits = static_cast<int64_t>(cache.hits());
    c.cache_misses = static_cast<int64_t>(cache.misses());
    c.cache_insertions = static_cast<int64_t>(cache.insertions());
    c.cache_evictions = static_cast<int64_t>(cache.evictions());
    c.cache_invalidations = static_cast<int64_t>(cache.invalidations());
    c.cache_survivals = static_cast<int64_t>(cache.survivals());
    c.cache_bytes = static_cast<int64_t>(cache.bytes());
    c.patched_reads = static_cast<int64_t>(service_->patched());
    tetris::IndexCache& ix = service_->registry().index_cache();
    c.index_builds = static_cast<int64_t>(ix.builds());
    c.index_hits = static_cast<int64_t>(ix.hits());
    c.index_promotes = static_cast<int64_t>(ix.promotes());
    c.index_compactions = static_cast<int64_t>(ix.compactions());
    c.index_cache_bytes = static_cast<int64_t>(ix.MemoryBytes());
    return c;
  }

  uint64_t seed_;
  size_t n_ops_ = 0;
  Stream stream_;
  std::vector<ReadRecord> reads_;
  std::unique_ptr<tetris::WorkStealingPool> pool_;
  std::unique_ptr<tetris::JoinService> service_;
  LayerTotals base_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMutate(uint64_t seed) {
  return std::make_unique<ServeMutate>(seed);
}

}  // namespace perfbench
