#include "engine/join_engine.h"

#include <chrono>
#include <optional>

#include "baseline/generic_join.h"
#include "baseline/leapfrog.h"
#include "baseline/pairwise_join.h"
#include "baseline/yannakakis.h"
#include "engine/batch_runner.h"
#include "index/sorted_index.h"

namespace tetris {

// Maps the Tetris-family kinds to their join_runner algorithm; nullopt
// for non-Tetris engines. Exhaustive switch: a new EngineKind fails the
// -Werror build until it is routed here.
std::optional<JoinAlgorithm> TetrisAlgorithmOf(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTetrisPreloaded:
      return JoinAlgorithm::kTetrisPreloaded;
    case EngineKind::kTetrisReloaded:
      return JoinAlgorithm::kTetrisReloaded;
    case EngineKind::kTetrisPreloadedNoCache:
      return JoinAlgorithm::kTetrisPreloadedNoCache;
    case EngineKind::kTetrisPreloadedLB:
      return JoinAlgorithm::kTetrisPreloadedLB;
    case EngineKind::kTetrisReloadedLB:
      return JoinAlgorithm::kTetrisReloadedLB;
    case EngineKind::kLeapfrog:
    case EngineKind::kGenericJoin:
    case EngineKind::kYannakakis:
    case EngineKind::kPairwiseHash:
    case EngineKind::kPairwiseSortMerge:
    case EngineKind::kPairwiseNestedLoop:
      return std::nullopt;
  }
  return std::nullopt;
}

namespace {

// Derives the GAO Leapfrog / Generic Join should run under from the
// column orders of per-atom SortedIndexes: each index's trie order
// constrains its atom's attributes to appear in that relative order, and
// the GAO is any topological order of the union of those constraints
// (smallest attribute id first on ties, so the result is deterministic).
bool DeriveGaoFromIndexes(const JoinQuery& query,
                          const std::vector<const Index*>& indexes,
                          std::vector<int>* gao, std::string* error) {
  const int n = query.num_attrs();
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indeg(n, 0);
  for (size_t i = 0; i < indexes.size(); ++i) {
    const auto* si = dynamic_cast<const SortedIndex*>(indexes[i]);
    if (si == nullptr) {
      *error = "indexes: leapfrog / generic-join derive their trie order "
               "from SortedIndexes only";
      return false;
    }
    const Atom& atom = query.atoms()[i];
    const std::vector<int>& order = si->order();
    for (size_t l = 0; l + 1 < order.size(); ++l) {
      const int u = atom.var_ids[order[l]];
      const int v = atom.var_ids[order[l + 1]];
      if (u == v) continue;  // atom repeats an attribute
      succ[u].push_back(v);
      ++indeg[v];
    }
  }
  gao->clear();
  std::vector<bool> placed(n, false);
  for (int step = 0; step < n; ++step) {
    int pick = -1;
    for (int v = 0; v < n; ++v) {
      if (!placed[v] && indeg[v] == 0) {
        pick = v;
        break;
      }
    }
    if (pick < 0) {
      *error = "indexes: the SortedIndex column orders conflict "
               "(no attribute order is consistent with every trie)";
      return false;
    }
    placed[pick] = true;
    gao->push_back(pick);
    for (int w : succ[pick]) --indeg[w];
  }
  return true;
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTetrisPreloaded:
      return "tetris-preloaded";
    case EngineKind::kTetrisReloaded:
      return "tetris-reloaded";
    case EngineKind::kTetrisPreloadedNoCache:
      return "tetris-preloaded-nocache";
    case EngineKind::kTetrisPreloadedLB:
      return "tetris-preloaded-lb";
    case EngineKind::kTetrisReloadedLB:
      return "tetris-reloaded-lb";
    case EngineKind::kLeapfrog:
      return "leapfrog";
    case EngineKind::kGenericJoin:
      return "generic-join";
    case EngineKind::kYannakakis:
      return "yannakakis";
    case EngineKind::kPairwiseHash:
      return "pairwise-hash";
    case EngineKind::kPairwiseSortMerge:
      return "pairwise-sortmerge";
    case EngineKind::kPairwiseNestedLoop:
      return "pairwise-nestedloop";
  }
  return "unknown";
}

const std::vector<EngineKind>& AllEngineKinds() {
  static const std::vector<EngineKind> kAll = {
      EngineKind::kTetrisPreloaded,
      EngineKind::kTetrisReloaded,
      EngineKind::kTetrisPreloadedNoCache,
      EngineKind::kTetrisPreloadedLB,
      EngineKind::kTetrisReloadedLB,
      EngineKind::kLeapfrog,
      EngineKind::kGenericJoin,
      EngineKind::kYannakakis,
      EngineKind::kPairwiseHash,
      EngineKind::kPairwiseSortMerge,
      EngineKind::kPairwiseNestedLoop,
  };
  return kAll;
}

bool EngineSupports(EngineKind kind, const JoinQuery& query) {
  if (kind != EngineKind::kYannakakis) return true;
  return query.ToHypergraph().IsAlphaAcyclic();
}

std::string ValidateParallelism(int shards, int threads) {
  if (shards < kAutoShards) return "shards: want -1 (auto), 0/1 (off), or >= 2";
  if (threads < 0) return "threads: want 0 (the executor's full width) or >= 1";
  return "";
}

std::string ValidateEngineOptions(const JoinQuery& query, EngineKind kind,
                                  const EngineOptions& options,
                                  bool plans_shards, int* depth) {
  std::string error = ValidateParallelism(options.shards, options.threads);
  if (!error.empty()) return error;
  if (!EngineSupports(kind, query)) {
    return std::string(EngineKindName(kind)) +
           ": engine does not support this query";
  }
  const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind);
  const int n = query.num_attrs();
  if (!options.order.empty()) {
    if (!IsPermutation(options.order, n)) {
      return "order: not a permutation of the query attribute ids";
    }
    if (algo.has_value() && ChoosesOwnSao(*algo)) {
      return "order: Balance-lifted variants choose their own SAO";
    }
  }
  // Every box of a run has one component per dimension: the attributes,
  // or the Balance lift's 2n-2. A plain baseline builds no box.
  const int dims = algo.has_value() && ChoosesOwnSao(*algo) ? 2 * n - 2 : n;
  if ((algo.has_value() || plans_shards) && dims > kMaxDims) {
    return kQueryTooWideError;
  }
  // The Tetris family also builds a box per atom gap and probe point,
  // one component per column: an atom that repeats an attribute has more
  // columns than the query has attributes.
  if (algo.has_value()) {
    for (const Atom& a : query.atoms()) {
      if (a.var_ids.size() > static_cast<size_t>(kMaxDims)) {
        return kQueryTooWideError;
      }
    }
  }
  const std::vector<const Index*>& indexes = options.indexes;
  if (!indexes.empty()) {
    if (indexes.size() != query.atoms().size()) {
      return "indexes: need exactly one index per query atom";
    }
    if (plans_shards && !algo.has_value()) {
      return "indexes: only the Tetris family combines custom indexes with "
             "sharded execution (views restrict probes to the shard box; "
             "the baselines rescan materialized shard copies)";
    }
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (indexes[i]->arity() !=
          static_cast<int>(query.atoms()[i].var_ids.size())) {
        return "indexes: index arity disagrees with its atom";
      }
    }
  }
  // With no explicit depth, caller-supplied indexes set it.
  const int d = options.depth > 0 ? options.depth
                : indexes.empty() ? query.MinDepth()
                                  : indexes[0]->depth();
  if (algo.has_value()) {
    // The engine's grid depth and every index's depth must agree, or
    // probes return gap boxes the space cannot split down to and the
    // run never terminates.
    for (const Index* ix : indexes) {
      if (ix->depth() != d) {
        return "indexes: index depth disagrees with the engine depth "
               "(build them at the same depth, or set "
               "EngineOptions::depth to match)";
      }
    }
  }
  // A grid shallower than the data cannot represent it: indexes and
  // shard boxes built at that depth misbehave silently.
  if ((algo.has_value() || plans_shards) && d < query.MinDepth()) {
    return "depth: too small for the data (need at least "
           "query.MinDepth())";
  }
  if (algo.has_value() && d > kMaxDepth) return kGridTooDeepError;
  if (depth != nullptr) *depth = d;
  return "";
}

EngineResult RunBaselineJoin(const JoinQuery& query, EngineKind kind,
                             const std::vector<int>& gao) {
  EngineResult result;
  result.stats.engine = kind;
  const auto start = std::chrono::steady_clock::now();
  result.ok = true;
  switch (kind) {
    case EngineKind::kLeapfrog:
      result.tuples = LeapfrogTriejoin(query, gao, &result.stats.seeks);
      break;
    case EngineKind::kGenericJoin:
      result.tuples = GenericJoin(query, gao, &result.stats.probes);
      break;
    case EngineKind::kYannakakis: {
      auto out = YannakakisJoin(query, &result.stats.baseline);
      if (out.has_value()) {
        result.tuples = std::move(*out);
      } else {
        result.ok = false;
        result.error = "yannakakis: query is not alpha-acyclic";
      }
      break;
    }
    case EngineKind::kPairwiseHash:
      result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kHash,
                                       &result.stats.baseline);
      break;
    case EngineKind::kPairwiseSortMerge:
      result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kSortMerge,
                                       &result.stats.baseline);
      break;
    case EngineKind::kPairwiseNestedLoop:
      result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kNestedLoop,
                                       &result.stats.baseline);
      break;
    default:
      result.ok = false;
      result.error = "unknown engine kind";
      break;
  }
  if (result.ok) {
    CanonicalizeTuples(&result.tuples);
    result.stats.output_tuples = result.tuples.size();
    result.stats.memory.intermediate_bytes =
        result.stats.baseline.max_intermediate_bytes;
    result.stats.memory.output_bytes = TupleBytes(result.tuples);
  }
  result.stats.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return result;
}

EngineResult RunJoin(const JoinQuery& query, EngineKind kind,
                     const EngineOptions& options) {
  EngineResult result;
  result.stats.engine = kind;
  const auto start = std::chrono::steady_clock::now();

  // A shard count, a thread count other than 1 or a memory budget asks
  // for sharded execution (shards are the unit of parallelism).
  const bool sharded =
      options.shards == kAutoShards || options.shards > 1 ||
      options.memory_budget_bytes > 0 || options.threads != 1;
  int depth = 0;
  result.error =
      ValidateEngineOptions(query, kind, options, sharded, &depth);
  if (!result.error.empty()) return result;

  if (sharded || TetrisAlgorithmOf(kind).has_value()) {
    // A batch of one through the shard pipeline; a plain run is one shard,
    // and 0 or 1 shards on a sharded run mean the planner's choice.
    BatchOptions batch;
    batch.depth = depth;
    batch.shards = !sharded ? 1
                   : options.shards > 1 ? options.shards
                                        : kAutoShards;
    batch.threads = options.threads;
    batch.memory_budget_bytes = options.memory_budget_bytes;
    batch.executor = options.executor;
    result = std::move(RunShardPipeline({{&query, options.order,
                                          options.indexes, nullptr}},
                                        kind, batch)
                           .batch.results[0]);
    if (!sharded) {
      // A plain run reports no shard plan.
      RunStats& s = result.stats;
      s.shards = s.threads = s.plan_bytes = 0;
      s.max_shard_peak_bytes = s.estimated_max_shard_peak_bytes = 0;
      result.shard_runs.clear();
    }
  } else {
    // A plain baseline builds no box, so it answers queries too wide for
    // one. SortedIndexes supply the trie order when no hint does.
    std::vector<int> gao = options.order;
    if (gao.empty() && !options.indexes.empty() &&
        (kind == EngineKind::kLeapfrog || kind == EngineKind::kGenericJoin) &&
        !DeriveGaoFromIndexes(query, options.indexes, &gao, &result.error)) {
      return result;
    }
    result = RunBaselineJoin(query, kind, gao);
  }
  const auto end = std::chrono::steady_clock::now();
  result.stats.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

}  // namespace tetris
