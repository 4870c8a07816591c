// Closed-loop serving bench: drives concurrent clients through the
// resident JoinService (src/server/join_service.h) and reports latency
// percentiles, throughput, and result-cache hit rate.
//
// Three sections:
//   1. cold vs cache-hit latency on a repeated-signature workload —
//      acceptance (always on, single-core safe): hit rate > 0 and the
//      cache-hit latency >= 5x lower than cold;
//   2. cached == uncached tuple identity across ALL engines — a cached
//      result must be byte-identical to a fresh run of the same query;
//   3. closed-loop concurrent clients (4 client threads, each
//      synchronously issuing queries) with p50/p95/p99 service latency
//      and qps — the concurrency acceptance (>= 1.2x the single-client
//      qps) is only meaningful with >= 4 hardware threads; below that
//      it is an explicit SKIPPED, matching bench_sharding/bench_batching.
//
// The exit code is the acceptance signal: any missed always-on check or
// tuple mismatch exits nonzero.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/cli.h"
#include "engine/parallel_executor.h"
#include "server/join_service.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

namespace {

// The sorted-latency percentile (nearest-rank).
double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const size_t idx = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

// Registers the canonical pool {R(A,B), S(B,C), T(A,C)} into `service`.
bool RegisterPool(JoinService* service, size_t tuples, int d, uint64_t seed,
                  cli::RunReporter* rep) {
  const struct {
    const char* name;
    const char* a;
    const char* b;
  } specs[] = {{"R", "A", "B"}, {"S", "B", "C"}, {"T", "A", "C"}};
  uint64_t s = seed;
  for (const auto& spec : specs) {
    std::string error;
    if (!service->Register(
            RandomRelation(spec.name, {spec.a, spec.b}, tuples, d, ++s),
            &error)) {
      rep->Error("!! register %s failed: %s", spec.name, error.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded, EngineKind::kGenericJoin};
  if (auto exit_code = cli::HandleStartup(
          &argc, argv, &opts,
          "bench_serving — closed-loop clients through the resident join "
          "service: latency percentiles, qps, result-cache hit rate")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "serving");
  const size_t tuples = opts.size ? opts.size : 600;
  const int d = 8;
  const uint64_t seed = opts.seed ? opts.seed : 11;
  const int hw = WorkStealingPool::HardwareThreads();
  const size_t clients = 4;
  const size_t requests_per_client = opts.batch ? opts.batch : 64;
  rep.Note("pool {R(A,B), S(B,C), T(A,C)}: %zu tuples per relation, "
           "depth %d; %zu clients x %zu requests",
           tuples, d, clients, requests_per_client);
  rep.Summary("hardware_threads", static_cast<double>(hw),
              hw < 4 ? "concurrency acceptance SKIPPED (needs >= 4 cores)"
                     : "concurrency acceptance (>= 1.2x single-client qps)");

  bool ok = true;

  // --- 1. cold vs cache-hit latency --------------------------------
  for (EngineKind kind : opts.engines) {
    const char* engine = EngineKindName(kind);
    rep.Section(std::string(engine) + ": cold vs cache-hit");
    JoinService service;  // fresh caches per engine
    if (!RegisterPool(&service, tuples, d, seed, &rep)) return 1;

    QueryRequest query;
    query.relations = {"R", "S", "T"};
    query.engine = kind;

    // Cold samples bypass the cache (no reads, no writes) — each one
    // pays the full engine run the hit path amortizes away.
    const int samples = std::max(3, opts.reps);
    double cold_ms = -1.0;
    QueryRequest uncached = query;
    uncached.use_cache = false;
    for (int i = 0; i < samples; ++i) {
      const QueryResponse r = service.Execute(uncached);
      if (!r.result->ok) {
        rep.Error("!! %s cold query failed: %s", engine,
                  r.result->error.c_str());
        return 1;
      }
      if (cold_ms < 0 || r.service_ms < cold_ms) cold_ms = r.service_ms;
    }
    const QueryResponse primed = service.Execute(query);  // fills the cache
    double hit_ms = -1.0;
    size_t hit_count = 0;
    for (int i = 0; i < samples; ++i) {
      const QueryResponse r = service.Execute(query);
      if (r.cache_hit) ++hit_count;
      if (hit_ms < 0 || r.service_ms < hit_ms) hit_ms = r.service_ms;
    }
    const double hit_rate =
        static_cast<double>(hit_count) / static_cast<double>(samples);
    const double ratio = hit_ms > 0 ? cold_ms / hit_ms : 0.0;
    rep.Row("triangle",
            {{"cold_ms", cold_ms},
             {"hit_ms", hit_ms},
             {"hit_speedup_x", ratio},
             {"hit_rate", hit_rate}},
            kind, *primed.result);
    rep.Summary(std::string(engine) + "_hit_rate", hit_rate,
                "acceptance: > 0");
    rep.Summary(std::string(engine) + "_hit_speedup_x", ratio,
                "acceptance: >= 5x (cold / cache-hit latency)");
    if (hit_rate <= 0.0) {
      rep.Error("!! HIT-RATE ACCEPTANCE MISSED: %s repeated-signature hit "
                "rate = %.2f (need > 0)",
                engine, hit_rate);
      ok = false;
    }
    if (ratio < 5.0) {
      rep.Error("!! LATENCY ACCEPTANCE MISSED: %s cache-hit %.4fms vs "
                "cold %.4fms = %.1fx (need >= 5x)",
                engine, hit_ms, cold_ms, ratio);
      ok = false;
    }
  }

  // --- 2. cached == uncached across every engine --------------------
  rep.Section("cached == uncached (all engines)");
  {
    JoinService service;
    // Small instance: every engine (including the quadratic baselines)
    // must finish quickly.
    if (!RegisterPool(&service, std::min<size_t>(tuples, 200), d, seed + 17,
                      &rep)) {
      return 1;
    }
    size_t verified = 0;
    for (EngineKind kind : AllEngineKinds()) {
      QueryRequest query;
      query.relations = {"R", "S", "T"};
      query.engine = kind;
      const QueryResponse cold = service.Execute(query);
      const QueryResponse hit = service.Execute(query);
      QueryRequest fresh = query;
      fresh.use_cache = false;
      const QueryResponse uncached = service.Execute(fresh);
      const char* engine = EngineKindName(kind);
      if (cold.result->ok != uncached.result->ok) {
        rep.Error("!! %s: cached-path ok=%d but uncached ok=%d (%s)",
                  engine, cold.result->ok ? 1 : 0,
                  uncached.result->ok ? 1 : 0,
                  uncached.result->error.c_str());
        ok = false;
        continue;
      }
      if (!cold.result->ok) continue;  // engine rejects this query shape
      if (!hit.cache_hit) {
        rep.Error("!! %s: repeat of an identical query was not served "
                  "from the cache",
                  engine);
        ok = false;
      }
      if (hit.result->tuples != uncached.result->tuples) {
        rep.Error("!! OUTPUT MISMATCH: %s cached result has %zu tuples, "
                  "uncached %zu",
                  engine, hit.result->tuples.size(),
                  uncached.result->tuples.size());
        ok = false;
      }
      ++verified;
    }
    rep.Summary("engines_cache_verified", static_cast<double>(verified),
                "cached tuples identical to uncached on every supporting "
                "engine");
  }

  // --- 3. closed-loop concurrent clients ----------------------------
  rep.Section("closed-loop clients (mixed signatures)");
  {
    JoinService service;
    if (!RegisterPool(&service, tuples, d, seed, &rep)) return 1;
    const EngineKind kind = opts.engines.front();
    // Three signatures cycling per client: triangle + both 2-hop paths.
    const std::vector<std::vector<std::string>> shapes = {
        {"R", "S", "T"}, {"R", "S"}, {"S", "T"}};

    auto run_clients = [&](size_t nclients, std::vector<double>* lat) {
      std::vector<std::vector<double>> per_client(nclients);
      Timer wall;
      std::vector<std::thread> threads;
      threads.reserve(nclients);
      for (size_t c = 0; c < nclients; ++c) {
        threads.emplace_back([&, c]() {
          for (size_t i = 0; i < requests_per_client; ++i) {
            QueryRequest query;
            query.relations = shapes[(c + i) % shapes.size()];
            query.engine = kind;
            // A quarter of the traffic bypasses the cache: the
            // concurrency ratio needs real engine work to scale, and
            // all-hit traffic only measures the cache mutex.
            query.use_cache = (i % 4) != 3;
            const QueryResponse r = service.Execute(query);
            per_client[c].push_back(r.service_ms);
            if (!r.result->ok) per_client[c].back() = -1.0;
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double total_ms = wall.Ms();
      for (const auto& v : per_client) {
        lat->insert(lat->end(), v.begin(), v.end());
      }
      return total_ms;
    };

    // Warm the result cache with every signature first, so both the
    // single-client baseline and the concurrent round measure the same
    // (mostly-hit) steady state — otherwise the ratio reads cache
    // warmth, not concurrency.
    for (const auto& shape : shapes) {
      QueryRequest warm;
      warm.relations = shape;
      warm.engine = kind;
      service.Execute(warm);
    }
    std::vector<double> single_lat;
    const double single_ms = run_clients(1, &single_lat);
    const double single_qps =
        single_ms > 0 ? 1000.0 * static_cast<double>(single_lat.size()) /
                            single_ms
                      : 0.0;
    std::vector<double> lat;
    const double total_ms = run_clients(clients, &lat);
    for (double v : lat) {
      if (v < 0) {
        rep.Error("!! a closed-loop query failed");
        ok = false;
      }
    }
    std::sort(lat.begin(), lat.end());
    const double qps =
        total_ms > 0
            ? 1000.0 * static_cast<double>(lat.size()) / total_ms
            : 0.0;
    const size_t hits = service.cache().hits();
    const size_t lookups = hits + service.cache().misses();
    const double hit_rate =
        lookups > 0 ? static_cast<double>(hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    rep.Summary("closed_loop_p50_ms", Percentile(lat, 50), "");
    rep.Summary("closed_loop_p95_ms", Percentile(lat, 95), "");
    rep.Summary("closed_loop_p99_ms", Percentile(lat, 99), "");
    rep.Summary("closed_loop_qps", qps, "");
    rep.Summary("closed_loop_hit_rate", hit_rate, "acceptance: > 0");
    if (hit_rate <= 0.0) {
      rep.Error("!! HIT-RATE ACCEPTANCE MISSED: closed-loop hit rate = 0");
      ok = false;
    }
    const double qps_x = single_qps > 0 ? qps / single_qps : 0.0;
    if (hw < 4) {
      rep.Summary("concurrent_qps_x", qps_x,
                  "SKIPPED (needs >= 4 cores)");
      rep.Note("   concurrency acceptance SKIPPED (needs >= 4 cores, "
               "have %d)",
               hw);
    } else {
      rep.Summary("concurrent_qps_x", qps_x,
                  "acceptance: >= 1.2x single-client qps at 4 clients");
      if (qps_x < 1.2) {
        rep.Error("!! CONCURRENCY ACCEPTANCE MISSED: 4 clients = %.2fx "
                  "single-client qps (need >= 1.2x on %d hardware "
                  "threads)",
                  qps_x, hw);
        ok = false;
      }
    }
  }

  // --- 4. index residency & overlay promotion -----------------------
  // Operator visibility for the index-cache lifecycle: resident bytes
  // under the permutation-view layout, and the rebuild-free mutation
  // path (a row append must promote cached indexes, not rebuild them).
  rep.Section("index cache residency & promotion");
  {
    JoinService service;
    if (!RegisterPool(&service, tuples, d, seed + 29, &rep)) return 1;
    QueryRequest query;
    query.relations = {"R", "S", "T"};
    query.engine = opts.engines.front();
    service.Execute(query);  // warm: builds the three base indexes
    const IndexCache& ix = service.registry().index_cache();
    const size_t builds_cold = ix.builds();
    std::string error;
    const uint64_t dom = uint64_t{1} << d;
    // Pick a row S definitely lacks so the append is an effective delta.
    Tuple fresh_row{dom - 1, dom - 1};
    {
      const auto snap = service.registry().Snap();
      while (snap.Find("S")->rel->Contains(fresh_row) && fresh_row[1] > 0) {
        --fresh_row[1];
      }
    }
    if (!service.AppendRows("S", {fresh_row}, &error)) {
      rep.Error("!! append failed: %s", error.c_str());
      ok = false;
    }
    QueryRequest miss = query;
    miss.use_cache = false;
    const QueryResponse after = service.Execute(miss);
    if (!after.result->ok) {
      rep.Error("!! post-append query failed: %s",
                after.result->error.c_str());
      ok = false;
    }
    const size_t rebuilds = ix.builds() - builds_cold;
    rep.Summary("index_entries", static_cast<double>(ix.entries()), "");
    rep.Summary("index_builds", static_cast<double>(ix.builds()), "");
    rep.Summary("index_hits", static_cast<double>(ix.hits()), "");
    rep.Summary("index_promotes", static_cast<double>(ix.promotes()),
                "acceptance: >= 1 (append carries cached indexes)");
    rep.Summary("index_compactions", static_cast<double>(ix.compactions()),
                "");
    rep.Summary("index_bytes", static_cast<double>(ix.MemoryBytes()),
                "rows*4 permutation + rows/16*8 fence + overlay");
    rep.Summary("append_index_rebuilds", static_cast<double>(rebuilds),
                "acceptance: 0 (1-row append is rebuild-free)");
    if (ix.promotes() < 1) {
      rep.Error("!! PROMOTION ACCEPTANCE MISSED: append promoted no "
                "cached index");
      ok = false;
    }
    if (rebuilds != 0) {
      rep.Error("!! REBUILD-FREE ACCEPTANCE MISSED: %zu index builds "
                "after a 1-row append",
                rebuilds);
      ok = false;
    }
  }

  return ok && rep.AllAgreed() ? 0 : 1;
}
