// The resident join service: registry → snapshot → result cache → pool.
//
// JoinService is the front end every later serving feature plugs into.
// One query's life:
//
//   1. SNAPSHOT — RelationRegistry::Snap() pins every named relation
//      version the query touches; concurrent Replace/Append cannot tear
//      the data out from under it.
//   2. CACHE — one entry per query shape, keyed by engine + the
//      output-space signature (grid depth, attribute count, per atom its
//      relation and binding; the order hint deliberately stays OUT of
//      the key: it steers traversal, never the tuple set). The entry
//      counts only at the snapshot's exact epochs: with no touched boxes
//      it is a hit, served without touching the engine; otherwise it
//      holds the touched boxes of the row writes since its result was
//      computed (ResultCache::InvalidateDelta), and the read patches.
//   3. MISS or PATCH — the request passes ValidateEngineOptions once,
//      then runs as one RunShardPipeline call (engine/batch_runner.h) on
//      the configured executor (WorkStealingPool::Global() by default),
//      drawing its base indexes from the registry's (relation, layout)
//      IndexCache and carrying the deadline into the task loop. A patch
//      passes the entry's touched boxes (engine/incremental.h) as
//      ShardQuery::touched, so only the shards they meet re-run, each
//      over the hull of its touched boxes for the Tetris family, and
//      SplicePatch splices the fresh tuples into the cached result. So
//      even a one-shard plan patches a 1-row write on one line of the
//      output space, and since the registry promotes the cached indexes
//      on every write, a patched read builds no index. A Replace, or a
//      touched box covering the whole output space (a value off the
//      grid, a write to a 0-ary relation), drops the entry: the next
//      read is cold.
//   4. PUT — an ok result is cached under the shape's entry.
//
// Mutations route through the service (Register / Replace / AppendRows /
// DeleteRows / Drop) so the result cache is invalidated — delta-
// precisely for row-level mutations — and retired relation versions
// purged in step with the registry.
#ifndef TETRIS_SERVER_JOIN_SERVICE_H_
#define TETRIS_SERVER_JOIN_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/join_engine.h"
#include "server/relation_registry.h"
#include "server/result_cache.h"

namespace tetris {

class WorkStealingPool;  // engine/parallel_executor.h

/// Service-wide knobs, fixed at construction.
struct ServiceOptions {
  /// Deadline applied to queries that don't carry their own. 0 = none.
  double default_deadline_ms = 0.0;
  /// Result-cache capacity. 0 disables result caching entirely, and
  /// with it patched reads (they patch cached results).
  size_t cache_bytes = 64u << 20;
  /// Executor queries fan out on. nullptr = the process-global pool.
  /// Must outlive the service.
  WorkStealingPool* executor = nullptr;
  /// EngineOptions::shards semantics for each query's plan.
  int shards = kAutoShards;
  /// Per-shard resident budget forwarded to every query (0 = none).
  size_t memory_budget_bytes = 0;
};

/// One query over registered relations (natural join by attribute
/// name, like JoinQuery::Build).
struct QueryRequest {
  std::vector<std::string> relations;  ///< registered names, one per atom
  EngineKind engine = EngineKind::kTetrisPreloaded;
  /// SAO/GAO hint with EngineOptions::order semantics; empty = none.
  std::vector<int> order;
  /// Dyadic depth; 0 = the query's MinDepth().
  int depth = 0;
  /// Per-query deadline: < 0 = the service default, 0 = none, > 0 = ms
  /// from the request's arrival in Execute.
  double deadline_ms = -1.0;
  /// Opt out of the result cache (reads AND writes) for this query.
  bool use_cache = true;
};

/// What the service hands back. `result` is never null — failures ride
/// in its ok/error, the same shape as BatchResult's per-query failures.
struct QueryResponse {
  std::shared_ptr<const EngineResult> result;
  bool cache_hit = false;
  bool patched = false;    ///< served by patching a stale cached result
  size_t shards_rerun = 0; ///< patched path: shards actually re-run
  size_t shards_total = 0; ///< patched path: shards in the plan
  double service_ms = 0.0; ///< end-to-end latency inside the service
  uint64_t epoch = 0;      ///< registry epoch of the snapshot served
};

/// Thread-safe resident service; Execute may be called from any number
/// of client threads concurrently.
class JoinService {
 public:
  explicit JoinService(ServiceOptions options = {});

  const ServiceOptions& options() const { return options_; }
  RelationRegistry& registry() { return registry_; }
  ResultCache& cache() { return cache_; }

  /// Mutations, routed through the service so the result cache stays
  /// coherent: row-level mutations invalidate delta-precisely (entries
  /// disjoint from the delta survive, intersecting ones record its
  /// touched boxes and await a patch); Register / Replace / Drop free
  /// every entry of the name. Retired relation versions are purged
  /// either way.
  bool Register(Relation rel, std::string* error);
  bool Replace(Relation rel, std::string* error);
  /// On success, *delta (when non-null) receives the effective delta
  /// the registry installed — what actually changed, duplicates and
  /// absentees filtered out.
  bool AppendRows(const std::string& name, const std::vector<Tuple>& tuples,
                  std::string* error, RelationDelta* delta = nullptr);
  bool DeleteRows(const std::string& name, const std::vector<Tuple>& tuples,
                  std::string* error, RelationDelta* delta = nullptr);
  bool Drop(const std::string& name, std::string* error);

  /// Runs (or serves from cache, or patches) one query. Never throws;
  /// failures are per-query errors in response.result.
  QueryResponse Execute(const QueryRequest& request);

  uint64_t patched() const { return patched_.load(); }  ///< patch-served

 private:
  // A row-level write's cache side: the effective delta `d` goes to
  // ResultCache::InvalidateDelta, then retired versions are purged and
  // `d` is reported through *delta (when non-null).
  void InvalidateRows(RelationDelta d, RelationDelta* delta);

  const ServiceOptions options_;
  RelationRegistry registry_;
  ResultCache cache_;
  std::atomic<uint64_t> patched_{0};
};

}  // namespace tetris

#endif  // TETRIS_SERVER_JOIN_SERVICE_H_
