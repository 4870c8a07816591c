// The differential oracle for incremental view maintenance: a patched
// result is correct iff it equals the from-scratch recomputation,
// tuple for tuple. The oracle is deliberately dumb — it re-runs the
// full join and compares canonical tuple sets — because a dumb oracle
// cannot share a bug with the clever path it checks (the same pattern
// as the sharded == unsharded suites).
//
// Two levels:
//
//   * PatchedEqualsScratch — engine-level: PatchJoin over (old tuples,
//     touched boxes) vs a fresh RunJoin of the post-delta query, same
//     options. Also checks failure parity: an engine that rejects the
//     query fresh must reject the patch identically.
//   * ExecuteMatchesScratch — service-level: JoinService::Execute (the
//     cached / restamped / patched path, whatever the service picks)
//     vs the same request with use_cache=false, which bypasses cache
//     and patch entirely and recomputes.
//
// Verdicts are plain data (ok + message), not gtest assertions, so the
// same oracle drives the test suites and the bench's embedded
// acceptance checks.
#ifndef TETRIS_TESTS_INCREMENTAL_ORACLE_H_
#define TETRIS_TESTS_INCREMENTAL_ORACLE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "engine/incremental.h"
#include "engine/join_engine.h"
#include "query/join_query.h"
#include "server/join_service.h"

namespace tetris {

struct OracleVerdict {
  bool ok = true;
  std::string message;
};

namespace oracle_internal {

inline std::vector<Tuple> Canonical(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return tuples;
}

inline OracleVerdict CompareResults(const EngineResult& got,
                                    const EngineResult& want,
                                    const std::string& what) {
  if (got.ok != want.ok) {
    return {false, what + ": ok mismatch — got " +
                       (got.ok ? "ok" : "error (" + got.error + ")") +
                       ", scratch " +
                       (want.ok ? "ok" : "error (" + want.error + ")")};
  }
  if (!got.ok) return {};  // identical rejection is correct behavior
  const std::vector<Tuple> g = Canonical(got.tuples);
  const std::vector<Tuple> w = Canonical(want.tuples);
  if (g == w) return {};
  std::string msg = what + ": tuple sets differ — patched " +
                    std::to_string(g.size()) + " vs scratch " +
                    std::to_string(w.size());
  for (const Tuple& t : w) {
    if (!std::binary_search(g.begin(), g.end(), t)) {
      msg += "; missing (";
      for (size_t i = 0; i < t.size(); ++i) {
        msg += (i != 0 ? "," : "") + std::to_string(t[i]);
      }
      msg += ")";
      break;
    }
  }
  for (const Tuple& t : g) {
    if (!std::binary_search(w.begin(), w.end(), t)) {
      msg += "; spurious (";
      for (size_t i = 0; i < t.size(); ++i) {
        msg += (i != 0 ? "," : "") + std::to_string(t[i]);
      }
      msg += ")";
      break;
    }
  }
  return {false, msg};
}

}  // namespace oracle_internal

/// Engine-level oracle. `query` is built over the POST-delta relation
/// versions; `old_tuples` is the join over the pre-delta versions;
/// `touched` comes from TouchedOutputBoxes over everything that changed
/// in between. Returns ok iff PatchJoin's output equals a fresh RunJoin
/// (or both reject the query identically). When `patch_out` is non-null
/// the patch diagnostics are written there for callers asserting on
/// shard counts.
inline OracleVerdict PatchedEqualsScratch(
    const JoinQuery& query, EngineKind kind, const EngineOptions& options,
    const std::vector<Tuple>& old_tuples,
    const std::vector<DyadicBox>& touched, PatchResult* patch_out = nullptr) {
  PatchResult patched = PatchJoin(query, kind, options, old_tuples, touched);
  const EngineResult scratch = RunJoin(query, kind, options);
  OracleVerdict verdict = oracle_internal::CompareResults(
      patched.result, scratch,
      std::string(EngineKindName(kind)) + " [patched " +
          std::to_string(patched.shards_rerun) + "/" +
          std::to_string(patched.shards_total) + " shards, kept " +
          std::to_string(patched.tuples_kept) + " tuples" +
          (patched.full_recompute ? ", full recompute" : "") + "]");
  if (patch_out != nullptr) *patch_out = std::move(patched);
  return verdict;
}

/// Service-level oracle: whatever path Execute picks for `request`
/// (cache hit, restamped survivor, patch, fresh run) must produce the
/// same tuples as the cache-bypassing scratch run of the same request.
/// Single-writer use only — a mutation between the two Executes would
/// legitimately change the answer. When `resp_out` is non-null the
/// first (observed) response is written there.
inline OracleVerdict ExecuteMatchesScratch(JoinService* service,
                                           const QueryRequest& request,
                                           QueryResponse* resp_out = nullptr) {
  QueryRequest bypass = request;
  bypass.use_cache = false;
  const QueryResponse got = service->Execute(request);
  const QueryResponse want = service->Execute(bypass);
  OracleVerdict verdict = oracle_internal::CompareResults(
      *got.result, *want.result,
      std::string(EngineKindName(request.engine)) + " (service" +
          (got.cache_hit ? ", cache-hit" : "") +
          (got.patched ? ", patched" : "") + ")");
  if (resp_out != nullptr) *resp_out = got;
  return verdict;
}

}  // namespace tetris

#endif  // TETRIS_TESTS_INCREMENTAL_ORACLE_H_
