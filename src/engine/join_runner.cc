#include "engine/join_runner.h"

#include <algorithm>
#include <cassert>

#include "index/sorted_index.h"

namespace tetris {

RelationOracle::RelationOracle(const JoinQuery* query,
                               std::vector<const Index*> indexes, int depth)
    : query_(query), indexes_(std::move(indexes)), d_(depth) {
  assert(indexes_.size() == query_->atoms().size());
}

template <typename Emit>
size_t RelationOracle::EmbedEach(BoxSink sink, Emit&& emit) const {
  DyadicBox q;
  size_t count = 0;
  for (size_t i = 0; i < query_->atoms().size(); ++i) {
    const std::vector<int>& vars = query_->atoms()[i].var_ids;
    q = DyadicBox::Universal(query_->num_attrs());
    // An attribute on several columns gets the intersection of their
    // components. Disjoint ones leave no point of the gap where the
    // columns agree, so the gap embeds to nothing.
    emit(i, [&](const DyadicBox& g) {
      for (int v : vars) q[v] = DyadicInterval::Lambda();
      for (size_t c = 0; c < vars.size(); ++c) {
        DyadicInterval& v = q[vars[c]];
        const DyadicInterval& col = g[static_cast<int>(c)];
        if (!v.ComparableWith(col)) return;
        v = v.IntersectComparable(col);
      }
      ++count;
      sink(q);
    });
  }
  return count;
}

void RelationOracle::Probe(const DyadicBox& point, BoxSink sink) const {
  ++probe_count_;
  EmbedEach(sink, [&](size_t i, BoxSink embed) {
    uint64_t proj[kMaxDims];  // the point's projection onto atom i
    const std::vector<int>& vars = query_->atoms()[i].var_ids;
    for (size_t c = 0; c < vars.size(); ++c) proj[c] = point[vars[c]].bits;
    indexes_[i]->GapsContaining(proj, embed);
  });
}

bool RelationOracle::EnumerateAll(BoxSink sink) const {
  enumerated_ += EmbedEach(
      sink, [&](size_t i, BoxSink embed) { indexes_[i]->AllGaps(embed); });
  return true;
}

bool ChoosesOwnSao(JoinAlgorithm algo) {
  return algo == JoinAlgorithm::kTetrisPreloadedLB ||
         algo == JoinAlgorithm::kTetrisReloadedLB;
}

bool IsPermutation(const std::vector<int>& order, int n) {
  if (order.size() != static_cast<size_t>(n)) return false;
  std::vector<bool> seen(n, false);
  for (int v : order) {
    if (v < 0 || v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

std::vector<int> DefaultSao(const JoinQuery& query, JoinAlgorithm algo) {
  if (ChoosesOwnSao(algo)) return {};
  return algo == JoinAlgorithm::kTetrisReloaded ? query.MinWidthSao()
                                                : query.AcyclicSao();
}

JoinRunResult RunTetrisJoin(const JoinQuery& query,
                            const std::vector<const Index*>& indexes,
                            int depth, JoinAlgorithm algo,
                            std::vector<int> sao) {
  RelationOracle oracle(&query, indexes, depth);
  const int n = query.num_attrs();
  JoinRunResult result;

  auto sink = [&result](const DyadicBox& p) {
    result.tuples.push_back(p.ToPoint());
    return true;
  };

  switch (algo) {
    case JoinAlgorithm::kTetrisPreloaded:
    case JoinAlgorithm::kTetrisReloaded:
    case JoinAlgorithm::kTetrisPreloadedNoCache: {
      TetrisOptions opt;
      opt.init = algo == JoinAlgorithm::kTetrisReloaded
                     ? TetrisOptions::Init::kReloaded
                     : TetrisOptions::Init::kPreloaded;
      opt.cache_resolvents = algo != JoinAlgorithm::kTetrisPreloadedNoCache;
      if (sao.empty()) sao = DefaultSao(query, algo);
      opt.sao = std::move(sao);
      UniformSpace space(n, depth);
      Tetris engine(&oracle, &space, opt);
      engine.Run(sink);
      result.stats = engine.stats();
      break;
    }
    case JoinAlgorithm::kTetrisPreloadedLB:
    case JoinAlgorithm::kTetrisReloadedLB: {
      // The lift defines its own SAO; `sao` reorders the original
      // attributes before lifting (which dimensions get partitioned).
      assert(sao.empty() && "LB variants choose their own SAO");
      TetrisLB lb(&oracle, n, depth,
                  algo == JoinAlgorithm::kTetrisPreloadedLB);
      lb.Run(sink);
      result.stats = lb.stats();
      break;
    }
  }
  result.oracle_probes = oracle.probe_count();
  for (const Index* ix : indexes) result.index_bytes += ix->MemoryBytes();
  // The preloaded variants enumerate B(Q) exactly once (the reloaded
  // ones never do, leaving 0): count that pass, not a second one.
  result.input_gap_boxes = oracle.enumerated_boxes();
  return result;
}

std::vector<int> SaoConsistentColumns(const Atom& a,
                                      const std::vector<int>& sao) {
  std::vector<int> cols(a.var_ids.size());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = static_cast<int>(c);
  if (sao.empty()) return cols;
  auto sao_pos = [&sao](int var) {
    return std::find(sao.begin(), sao.end(), var) - sao.begin();
  };
  std::stable_sort(cols.begin(), cols.end(), [&](int x, int y) {
    return sao_pos(a.var_ids[x]) < sao_pos(a.var_ids[y]);
  });
  return cols;
}

std::vector<std::unique_ptr<Index>> MakeSaoConsistentIndexes(
    const JoinQuery& query, const std::vector<int>& sao, int depth) {
  std::vector<std::unique_ptr<Index>> owned;
  for (const Atom& a : query.atoms()) {
    owned.push_back(std::make_unique<SortedIndex>(
        *a.rel, SaoConsistentColumns(a, sao), depth));
  }
  return owned;
}

std::vector<const Index*> IndexPtrs(
    const std::vector<std::unique_ptr<Index>>& owned) {
  std::vector<const Index*> ptrs;
  ptrs.reserve(owned.size());
  for (const auto& ix : owned) ptrs.push_back(ix.get());
  return ptrs;
}

JoinRunResult RunTetrisJoinDefaultIndexes(const JoinQuery& query,
                                          JoinAlgorithm algo) {
  const int depth = query.MinDepth();
  std::vector<int> sao = DefaultSao(query, algo);
  auto owned = MakeSaoConsistentIndexes(query, sao, depth);
  return RunTetrisJoin(query, IndexPtrs(owned), depth, algo, std::move(sao));
}

}  // namespace tetris
