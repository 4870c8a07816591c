#include "server/join_service.h"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "engine/batch_runner.h"
#include "engine/incremental.h"
#include "engine/parallel_executor.h"
#include "engine/shard_planner.h"
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

// RAII admission bookkeeping: always undoes the inflight_ count, and —
// once a slot was actually taken — releases it and wakes one waiter.
struct AdmissionSlot {
  JoinService* service;
  bool slotted = false;
  ~AdmissionSlot() {
    if (slotted) {
      {
        std::lock_guard<std::mutex> lock(service->admit_mu_);
        --service->running_;
      }
      service->admit_cv_.notify_one();
    }
    service->inflight_.fetch_sub(1);
  }
};

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

size_t JoinService::PredictPeakBytes(const QueryRequest& request) const {
  const RegistrySnapshot snap = registry_.Snap();
  size_t payload = 0;
  for (const std::string& name : request.relations) {
    const RelationVersion* v = snap.Find(name);
    if (v == nullptr) continue;  // resolution fails later, with its own error
    payload += EstimateAtomBytes(v->rel->size(), v->rel->arity());
  }
  return payload;
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

  // 1. Admission. Over the concurrency limit a query queues (bounded by
  // max_queued, deadline honored while waiting) unless it sheds first:
  // the queue is full, or its predicted peak cost marks it as the kind
  // of query that would hold an execution slot longest.
  inflight_.fetch_add(1);
  AdmissionSlot slot{this};
  if (options_.max_inflight > 0) {
    // Predict before taking admit_mu_ — the estimate snapshots the
    // registry, and holding the admission lock across that would stall
    // every releasing query.
    const size_t predicted =
        (options_.max_queued > 0 && options_.shed_cost_bytes > 0)
            ? PredictPeakBytes(request)
            : 0;
    std::unique_lock<std::mutex> lock(admit_mu_);
    if (running_ >= options_.max_inflight) {
      auto reject = [&](std::string why) -> QueryResponse {
        rejected_.fetch_add(1);
        resp.rejected = true;
        resp.result = FailedResult(request.engine, std::move(why));
        return finish();
      };
      if (options_.max_queued == 0) {
        return reject("admission rejected: " + std::to_string(running_) +
                      " queries in flight (max " +
                      std::to_string(options_.max_inflight) + ")");
      }
      if (waiting_ >= options_.max_queued) {
        return reject("admission rejected: queue full (" +
                      std::to_string(waiting_) + " waiting, max " +
                      std::to_string(options_.max_queued) + ")");
      }
      if (options_.shed_cost_bytes > 0 &&
          predicted > options_.shed_cost_bytes) {
        shed_.fetch_add(1);
        return reject("admission shed: predicted peak " +
                      std::to_string(predicted) + " bytes > threshold " +
                      std::to_string(options_.shed_cost_bytes));
      }
      resp.queued = true;
      queued_.fetch_add(1);
      ++waiting_;
      const auto have_slot = [this] {
        return running_ < options_.max_inflight;
      };
      bool got = true;
      if (deadline_ms > 0) {
        got = admit_cv_.wait_until(lock, deadline, have_slot);
      } else {
        admit_cv_.wait(lock, have_slot);
      }
      --waiting_;
      if (!got) {
        return reject("admission rejected: deadline expired after " +
                      std::to_string(deadline_ms) + " ms queued");
      }
    }
    ++running_;
    slot.slotted = true;
  }
  admitted_.fetch_add(1);

  if (request.relations.empty()) {
    resp.result = FailedResult(request.engine, "query: no relations named");
    return finish();
  }

  // 2. Snapshot: pin every named version for the whole execution.
  const RegistrySnapshot snap = registry_.Snap();
  resp.epoch = snap.epoch;
  std::vector<const Relation*> rels;
  std::unordered_map<const Relation*, std::string> name_of;
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
    name_of.emplace(v->rel.get(), name);
    meta.epochs[name] = v->epoch;
  }
  const JoinQuery query = JoinQuery::Build(rels);
  const int eff_depth =
      request.depth > 0 ? request.depth : query.MinDepth();
  meta.depth = eff_depth;
  meta.num_attrs = query.num_attrs();
  for (const Atom& atom : query.atoms()) {
    meta.atoms.push_back({name_of.at(atom.rel), atom.var_ids});
  }

  // 3. Result cache: the shape's entry at the snapshot's epochs is a
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

  // 4. Miss or patch: one option check, then one shard-pipeline run on
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
