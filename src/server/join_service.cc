#include "server/join_service.h"

#include <chrono>
#include <utility>

#include "engine/batch_runner.h"
#include "engine/incremental.h"
#include "engine/parallel_executor.h"
#include "query/join_query.h"

namespace tetris {

namespace {

std::shared_ptr<const EngineResult> FailedResult(EngineKind kind,
                                                 std::string error) {
  EngineResult r;
  r.stats.engine = kind;
  r.error = std::move(error);
  return std::make_shared<const EngineResult>(std::move(r));
}

}  // namespace

JoinService::JoinService(ServiceOptions options)
    : options_(options), cache_(options.cache_bytes) {}

bool JoinService::Register(Relation rel, std::string* error) {
  const std::string name = rel.name();
  if (!registry_.Register(std::move(rel), error)) return false;
  cache_.InvalidateRelation(name);
  registry_.PurgeRetired();
  return true;
}

bool JoinService::Replace(Relation rel, std::string* error) {
  const std::string name = rel.name();
  if (!registry_.Replace(std::move(rel), error)) return false;
  cache_.InvalidateRelation(name);
  registry_.PurgeRetired();
  return true;
}

bool JoinService::AppendRows(const std::string& name,
                             const std::vector<Tuple>& tuples,
                             std::string* error, RelationDelta* delta) {
  RelationDelta d;
  if (!registry_.AppendRows(name, tuples, error, &d)) return false;
  InvalidateRows(std::move(d), delta);
  return true;
}

bool JoinService::DeleteRows(const std::string& name,
                             const std::vector<Tuple>& tuples,
                             std::string* error, RelationDelta* delta) {
  RelationDelta d;
  if (!registry_.DeleteRows(name, tuples, error, &d)) return false;
  InvalidateRows(std::move(d), delta);
  return true;
}

void JoinService::InvalidateRows(RelationDelta d, RelationDelta* delta) {
  cache_.InvalidateDelta(d);
  registry_.PurgeRetired();
  if (delta != nullptr) *delta = std::move(d);
}

bool JoinService::Drop(const std::string& name, std::string* error) {
  if (!registry_.Drop(name, error)) return false;
  cache_.InvalidateRelation(name);
  registry_.PurgeRetired();
  return true;
}

QueryResponse JoinService::Execute(const QueryRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  QueryResponse resp;
  auto finish = [&t0, &resp]() -> QueryResponse {
    const auto t1 = std::chrono::steady_clock::now();
    resp.service_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return std::move(resp);
  };

  const double deadline_ms = request.deadline_ms < 0
                                 ? options_.default_deadline_ms
                                 : request.deadline_ms;
  std::chrono::steady_clock::time_point deadline{};
  if (deadline_ms > 0) {
    deadline =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(deadline_ms));
  }

  if (request.relations.empty()) {
    resp.result = FailedResult(request.engine, "query: no relations named");
    return finish();
  }

  // 1. Snapshot: pin every named version for the whole execution.
  const RegistrySnapshot snap = registry_.Snap();
  resp.epoch = snap.epoch;
  std::vector<const Relation*> rels;
  rels.reserve(request.relations.size());
  CacheEntryMeta meta;
  meta.engine = EngineKindName(request.engine);
  for (const std::string& name : request.relations) {
    const RelationVersion* v = snap.Find(name);
    if (v == nullptr) {
      resp.result = FailedResult(request.engine,
                                 "unknown relation '" + name + "'");
      return finish();
    }
    rels.push_back(v->rel.get());
    meta.epochs[name] = v->epoch;
  }
  const JoinQuery query = JoinQuery::Build(rels);
  const int eff_depth =
      request.depth > 0 ? request.depth : query.MinDepth();
  meta.depth = eff_depth;
  meta.num_attrs = query.num_attrs();
  // JoinQuery::Build keeps the request's order: atom i is relation i.
  for (size_t i = 0; i < query.atoms().size(); ++i) {
    meta.atoms.push_back({request.relations[i], query.atoms()[i].var_ids});
  }

  // 2. Result cache: the shape's entry at the snapshot's epochs is a
  // hit (no touched boxes), a patch (the boxes to re-run) or a miss.
  const bool cache_on = request.use_cache && options_.cache_bytes > 0;
  CacheLookup cached;
  if (cache_on) {
    cached = cache_.Lookup(meta);
    if (cached.result != nullptr && cached.touched.empty()) {
      resp.result = std::move(cached.result);
      resp.cache_hit = true;
      return finish();
    }
  }

  // 3. Miss or patch: one option check, then one shard-pipeline run on
  // the executor over the registry's index cache, under the deadline —
  // narrowed to the touched boxes for a patch.
  EngineOptions eopts;
  eopts.order = request.order;
  eopts.depth = eff_depth;
  eopts.shards = options_.shards;
  eopts.threads = 0;  // the executor's full width
  std::string error = ValidateEngineOptions(query, request.engine, eopts,
                                            /*plans_shards=*/true);
  if (!error.empty()) {
    resp.result = FailedResult(request.engine, std::move(error));
    return finish();
  }

  BatchOptions bopts;
  bopts.depth = eff_depth;
  bopts.shards = options_.shards;
  bopts.memory_budget_bytes = options_.memory_budget_bytes;
  bopts.executor = options_.executor;
  bopts.index_cache = &registry_.index_cache();
  bopts.deadline = deadline;
  const bool patch = cached.result != nullptr;
  ShardPipelineResult run = RunShardPipeline(
      {{&query, request.order, {}, patch ? &cached.touched : nullptr}},
      request.engine, bopts);
  EngineResult& fresh = run.batch.results[0];
  if (patch && fresh.ok) {
    PatchResult pr = SplicePatch(std::move(fresh), run.rerun_boxes[0],
                                 cached.result->tuples, eff_depth);
    resp.patched = true;
    resp.shards_rerun = pr.shards_rerun;
    resp.shards_total = pr.shards_total;
    patched_.fetch_add(1);
    fresh = std::move(pr.result);
  }
  // 4. Put: an ok result becomes the shape's cache entry.
  std::shared_ptr<const EngineResult> result =
      std::make_shared<const EngineResult>(std::move(fresh));
  if (cache_on && result->ok) {
    cache_.Put(std::move(meta), result);
  }
  resp.result = std::move(result);

  // The snapshot above still pins the versions this query used; purge
  // whatever mutations retired meanwhile AFTER we are the last pin, so
  // index entries this run re-inserted for a retired version die with
  // it. (Snap is destroyed at return — purge what is already free now;
  // the next query or mutation sweeps the rest.)
  registry_.PurgeRetired();
  return finish();
}

}  // namespace tetris
