// Incremental-maintenance bench: patched re-evaluation (PatchJoin over
// the touched dyadic subcubes) vs from-scratch recomputation, plus the
// resident service's restamp/patch serving paths. Correctness is gated
// by the same differential oracle the test suites use
// (tests/incremental_oracle.h) — a speedup over a wrong answer is
// worthless.
//
// Three sections:
//   1. patched vs scratch over a delta-size sweep (1 row, ~1%, ~10% of
//      a relation; inserts and deletes) — acceptance (always on,
//      single-core safe): the oracle agrees on every point AND the
//      <=1% deltas re-run strictly fewer shards than the plan total.
//      The patched/scratch latency ratio is reported as a summary but
//      not gated (1-core CI noise).
//   2. service-level: effectively-empty deltas (duplicate append,
//      absent delete) must keep the cached entry servable (cache hit,
//      survivals counted), and a real append must serve a patch, not a
//      recompute, rebuild no index, and (Tetris family) take every base
//      index of the patched read from the registry's index cache — all
//      gated.
//   3. one insert+delete round through every engine, gated on the
//      service oracle (patched path == cache-bypassing scratch).
//
// The exit code is the acceptance signal: any oracle mismatch or missed
// check exits nonzero.

#include <algorithm>
#include <string>
#include <vector>

#include "../tests/incremental_oracle.h"
#include "bench_util.h"
#include "engine/cli.h"
#include "engine/incremental.h"
#include "server/join_service.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

namespace {

// Deterministic split-free PRNG, same recurrence as the test suites.
uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

// The triangle {R(A,B), S(B,C), T(A,C)} with mutable tuple sets, rebound
// into fresh Relation objects after every delta (the registry's
// copy-on-write, in miniature).
struct MutableTriangle {
  std::vector<std::string> names = {"R", "S", "T"};
  std::vector<std::vector<std::string>> attrs = {
      {"A", "B"}, {"B", "C"}, {"A", "C"}};
  std::vector<std::vector<Tuple>> tuples;
  std::vector<std::unique_ptr<Relation>> storage;
  JoinQuery query = JoinQuery::Build({});

  void Rebind() {
    storage.clear();
    std::vector<const Relation*> ptrs;
    for (size_t i = 0; i < names.size(); ++i) {
      storage.push_back(std::make_unique<Relation>(
          Relation::Make(names[i], attrs[i], tuples[i])));
      ptrs.push_back(storage.back().get());
    }
    query = JoinQuery::Build(ptrs);
  }
};

MutableTriangle MakeTriangle(size_t n, int d, uint64_t seed) {
  MutableTriangle inst;
  uint64_t s = seed;
  for (size_t i = 0; i < 3; ++i) {
    inst.tuples.push_back(
        RandomRelation(inst.names[i], inst.attrs[i], n, d, ++s).ToTuples());
  }
  inst.Rebind();
  return inst;
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
          "bench_incremental — patched re-evaluation over touched dyadic "
          "subcubes vs from-scratch recomputation, gated by the "
          "differential oracle")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "incremental");
  const size_t tuples = opts.size ? opts.size : 600;
  const int d = 8;
  const uint64_t seed = opts.seed ? opts.seed : 13;
  const int samples = std::max(3, opts.reps);
  // 32 shards split dims round-robin {A,B,C,A,B}: a delta row in S(B,C)
  // pins every B and C split bit, so its touched box meets exactly the
  // 4 shards that vary only in A — the <=1% acceptance below is
  // structural, not statistical.
  const int shards = 32;
  rep.Note("triangle {R(A,B), S(B,C), T(A,C)}: %zu tuples per relation, "
           "depth %d, %d shards; deltas applied to S",
           tuples, d, shards);

  bool ok = true;

  // --- 1. patched vs scratch over a delta-size sweep ----------------
  const size_t one_pct = std::max<size_t>(1, tuples / 100);
  const struct {
    const char* scenario;
    size_t rows;
    bool deletes;   // delete existing rows instead of inserting
    bool gated;     // shards_rerun < shards_total is an acceptance
  } sweep[] = {
      {"insert_1row", 1, false, true},
      {"insert_1pct", one_pct, false, true},
      {"delete_1pct", one_pct, true, true},
      {"insert_10pct", std::max<size_t>(1, tuples / 10), false, false},
  };
  for (EngineKind kind : opts.engines) {
    const char* engine = EngineKindName(kind);
    rep.Section(std::string(engine) + ": patched vs scratch (delta sweep)");
    MutableTriangle inst = MakeTriangle(tuples, d, seed);
    EngineOptions options;
    options.depth = d;
    options.shards = shards;
    options.threads = 0;
    EngineResult old = RunJoin(inst.query, kind, options);
    if (!old.ok) {
      rep.Error("!! %s base run failed: %s", engine, old.error.c_str());
      ok = false;
      continue;
    }
    uint64_t s = seed + 101;
    double speedup_1pct = 0.0;
    double rerun_frac_1pct = 1.0;
    for (const auto& point : sweep) {
      std::vector<Tuple>& rel = inst.tuples[1];  // S
      std::vector<Tuple> changed;
      if (point.deletes) {
        for (size_t k = 0; k < point.rows && !rel.empty(); ++k) {
          const size_t victim = Next(&s) % rel.size();
          changed.push_back(rel[victim]);
          rel.erase(rel.begin() + victim);
        }
      } else {
        for (size_t k = 0; k < point.rows; ++k) {
          const Tuple t = {Next(&s) % (1ull << d), Next(&s) % (1ull << d)};
          changed.push_back(t);
          rel.push_back(t);
        }
      }
      inst.Rebind();
      const std::vector<DyadicBox> touched =
          TouchedOutputBoxes(inst.query, d, "S", changed);

      PatchResult patched;
      const OracleVerdict verdict = PatchedEqualsScratch(
          inst.query, kind, options, old.tuples, touched, &patched);
      if (!verdict.ok) {
        rep.Error("!! ORACLE MISMATCH: %s %s: %s", engine, point.scenario,
                  verdict.message.c_str());
        ok = false;
        break;
      }
      // Timing: best-of-N for both paths, over identical inputs.
      double patch_ms = -1.0;
      double scratch_ms = -1.0;
      for (int i = 0; i < samples; ++i) {
        const PatchResult p =
            PatchJoin(inst.query, kind, options, old.tuples, touched);
        if (patch_ms < 0 || p.result.stats.wall_ms < patch_ms) {
          patch_ms = p.result.stats.wall_ms;
        }
        const EngineResult f = RunJoin(inst.query, kind, options);
        if (scratch_ms < 0 || f.stats.wall_ms < scratch_ms) {
          scratch_ms = f.stats.wall_ms;
        }
      }
      const double speedup = patch_ms > 0 ? scratch_ms / patch_ms : 0.0;
      const double rerun_frac =
          patched.shards_total > 0
              ? static_cast<double>(patched.shards_rerun) /
                    static_cast<double>(patched.shards_total)
              : 1.0;
      cli::EngineRun run;
      run.kind = kind;
      run.result = patched.result;
      rep.Row(point.scenario,
              {{"delta_rows", static_cast<double>(point.rows)},
               {"patched_ms", patch_ms},
               {"scratch_ms", scratch_ms},
               {"speedup_x", speedup},
               {"shards_rerun", static_cast<double>(patched.shards_rerun)},
               {"shards_total", static_cast<double>(patched.shards_total)}},
              run);
      if (point.gated &&
          !(patched.shards_rerun < patched.shards_total)) {
        rep.Error("!! SHARD ACCEPTANCE MISSED: %s %s re-ran %zu/%zu shards "
                  "(a <=1%% delta must re-run strictly fewer)",
                  engine, point.scenario, patched.shards_rerun,
                  patched.shards_total);
        ok = false;
      }
      if (std::string(point.scenario) == "insert_1pct") {
        speedup_1pct = speedup;
        rerun_frac_1pct = rerun_frac;
      }
      old = std::move(patched.result);
    }
    rep.Summary(std::string(engine) + "_patched_speedup_x", speedup_1pct,
                "scratch / patched latency at a 1% insert delta "
                "(reported, not gated)");
    rep.Summary(std::string(engine) + "_small_delta_rerun_frac",
                rerun_frac_1pct,
                "acceptance: < 1.0 (strictly fewer shards re-run)");
  }

  // --- 2. service: survivals + patched serving ----------------------
  rep.Section("service: restamp survivals + patched serving");
  {
    ServiceOptions soptions;
    soptions.shards = shards;
    JoinService service(soptions);
    if (!RegisterPool(&service, tuples, d, seed + 17, &rep)) return 1;
    QueryRequest query;
    query.relations = {"R", "S", "T"};
    query.engine = opts.engines.front();
    query.depth = d;  // explicit: keeps the cache signature stable

    const QueryResponse cold = service.Execute(query);
    if (!cold.result->ok) {
      rep.Error("!! service cold query failed: %s",
                cold.result->error.c_str());
      return 1;
    }

    // Effectively-empty deltas: the entry must survive (restamped) and
    // keep serving hits.
    const Tuple existing =
        service.registry().Snap().Find("S")->rel->row(0).ToTuple();
    std::string error;
    if (!service.AppendRows("S", {existing}, &error) ||
        !service.DeleteRows("S", {{(1ull << d) - 1, (1ull << d) - 1}},
                            &error)) {
      rep.Error("!! row mutation failed: %s", error.c_str());
      return 1;
    }
    const QueryResponse warm = service.Execute(query);
    const double survivals = static_cast<double>(service.cache().survivals());
    rep.Summary("cache_survivals", survivals,
                "acceptance: >= 2 (entry restamped across both no-op "
                "deltas)");
    if (!warm.cache_hit || survivals < 2.0) {
      rep.Error("!! SURVIVAL ACCEPTANCE MISSED: no-op deltas invalidated the "
                "cached entry (hit=%d, survivals=%.0f)",
                warm.cache_hit ? 1 : 0, survivals);
      ok = false;
    }

    // A real one-row append must be served by a patch, and the patched
    // answer must match the cache-bypassing scratch run. It must also be
    // rebuild-free: cached indexes are PROMOTED to the new epoch with a
    // delta overlay (index/sorted_index.h), never rebuilt — gated here
    // so the claim is measured, not just asserted in tests.
    const IndexCache& ix = service.registry().index_cache();
    const size_t builds_before_append = ix.builds();
    if (!service.AppendRows("S", {{3, 5}}, &error)) {
      rep.Error("!! append failed: %s", error.c_str());
      return 1;
    }
    // The patched read on its own: count the index-cache hits it takes.
    // The oracle's Execute then serves that patched result from the
    // cache and compares it against a cache-bypassing scratch run.
    const size_t hits_before_patch = ix.hits();
    const QueryResponse patched_resp = service.Execute(query);
    const size_t patch_index_hits = ix.hits() - hits_before_patch;
    QueryResponse served;
    const OracleVerdict verdict =
        ExecuteMatchesScratch(&service, query, &served);
    if (!verdict.ok || served.result != patched_resp.result) {
      rep.Error("!! ORACLE MISMATCH (service): %s",
                verdict.ok ? "the patched result was not the one served"
                           : verdict.message.c_str());
      ok = false;
    }
    if (!patched_resp.patched) {
      rep.Error("!! PATCH ACCEPTANCE MISSED: a one-row append was served "
                "by a full recompute, not a patch");
      ok = false;
    }
    rep.Summary("service_patched", service.patched() > 0 ? 1.0 : 0.0,
                "acceptance: 1 (append served via the patch path)");
    rep.Summary("service_patch_rerun_frac",
                patched_resp.shards_total > 0
                    ? static_cast<double>(patched_resp.shards_rerun) /
                          static_cast<double>(patched_resp.shards_total)
                    : 1.0,
                "shards re-run by the serving patch (reported)");

    // Rebuild-free gate: the append plus the patched AND scratch
    // re-serves above performed zero full SortedIndex builds, and the
    // patched read took every base index from the cache (one hit per
    // atom; the baselines' patches read no index).
    const size_t rebuilds = ix.builds() - builds_before_append;
    const size_t want_patch_hits =
        TetrisAlgorithmOf(query.engine) ? query.relations.size() : 0;
    rep.Summary("index_rebuilds", static_cast<double>(rebuilds),
                "acceptance: 0 (1-row delta promotes cached indexes)");
    rep.Summary("index_promotes", static_cast<double>(ix.promotes()),
                "acceptance: >= 1 (append carried the cached entries)");
    rep.Summary("patch_index_hits", static_cast<double>(patch_index_hits),
                "acceptance: one per atom (the patched read's base indexes "
                "come from the cache)");
    if (rebuilds != 0 || ix.promotes() < 1 ||
        patch_index_hits != want_patch_hits) {
      rep.Error("!! REBUILD-FREE ACCEPTANCE MISSED: %zu builds, %zu "
                "promotes after a 1-row append, %zu of %zu base indexes "
                "of the patched read from the cache",
                rebuilds, ix.promotes(), patch_index_hits, want_patch_hits);
      ok = false;
    }
  }

  // --- 3. one insert+delete round through every engine --------------
  rep.Section("differential oracle (all engines)");
  {
    // Small 2-hop path so the quadratic baselines finish quickly;
    // α-acyclic, so every engine (Yannakakis included) serves it.
    const size_t small = std::min<size_t>(tuples, 150);
    ServiceOptions soptions;
    soptions.shards = 8;
    JoinService service(soptions);
    std::string error;
    uint64_t s = seed + 29;
    if (!service.Register(RandomRelation("R", {"A", "B"}, small, d, ++s),
                          &error) ||
        !service.Register(RandomRelation("S", {"B", "C"}, small, d, ++s),
                          &error)) {
      rep.Error("!! register failed: %s", error.c_str());
      return 1;
    }
    size_t verified = 0;
    for (EngineKind kind : AllEngineKinds()) {
      QueryRequest query;
      query.relations = {"R", "S"};
      query.engine = kind;
      query.depth = d;
      service.Execute(query);  // warm (ok or canonical rejection)
      const Tuple fresh = {Next(&s) % (1ull << d), Next(&s) % (1ull << d)};
      const auto rel = service.registry().Snap().Find("S")->rel;
      const Tuple victim = rel->row(Next(&s) % rel->size()).ToTuple();
      if (!service.AppendRows("S", {fresh}, &error) ||
          !service.DeleteRows("S", {victim}, &error)) {
        rep.Error("!! row mutation failed: %s", error.c_str());
        return 1;
      }
      const OracleVerdict verdict = ExecuteMatchesScratch(&service, query);
      if (!verdict.ok) {
        rep.Error("!! ORACLE MISMATCH: %s", verdict.message.c_str());
        ok = false;
        continue;
      }
      ++verified;
    }
    rep.Summary("engines_incremental_verified",
                static_cast<double>(verified),
                "patched serving equals scratch on every engine");
  }

  return ok && rep.AllAgreed() ? 0 : 1;
}
