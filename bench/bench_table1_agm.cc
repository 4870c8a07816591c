// Table 1, row 2: arbitrary joins in O~(N + AGM) — Tetris-Preloaded meets
// the AGM bound (paper, Theorem D.2 / 4.6), like the worst-case optimal
// joins NPRR and Leapfrog Triejoin, and unlike any pairwise plan.
//
// Workload: AGM-tight full-grid triangles (N = m^2 per relation,
// Z = AGM = m^3) plus random triangles. One row per (instance, engine)
// via the JoinEngine facade; the pairwise-hash rows are the ones whose
// intermediates blow past AGM on the grid family.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/cli.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

namespace {

bool RunFamily(const char* name, const std::vector<QueryInstance>& family,
               const cli::HarnessOptions& opts, cli::RunReporter* rep) {
  rep->Section(name);
  std::vector<std::pair<double, double>> fit;
  for (const QueryInstance& qi : family) {
    EngineOptions eopts;
    eopts.order = {0, 1, 2};  // SAO for Tetris, GAO for LFTJ/GJ
    const double agm = std::exp2(qi.query.AgmBoundLog2());
    const std::string scenario =
        "N=" + std::to_string(qi.storage[0]->size());
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts, eopts)) {
      cli::Params params = {
          {"n", static_cast<double>(qi.storage[0]->size())},
          {"z", static_cast<double>(run.result.tuples.size())},
          {"agm", agm},
      };
      rep->Row(scenario, params, run.kind, run.result);
      if (CountsForClaim(run, EngineKind::kTetrisPreloaded)) {
        fit.emplace_back(
            agm, static_cast<double>(run.result.stats.tetris.resolutions));
      }
    }
  }
  const bool bound_ok = GatedSummary(
      rep, "resolutions_vs_agm_exponent", fit, 0.9, 1.1,
      "paper: O~(N + AGM), exponent 1 + o(1) [Thm D.2 / 4.6]");
  return bound_ok && rep->AllAgreed();
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded, EngineKind::kLeapfrog,
                  EngineKind::kGenericJoin, EngineKind::kPairwiseHash};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "bench_table1_agm — Table 1 row 2, O~(N + AGM) "
                             "[Theorem D.2]")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "table1_agm");
  rep.Note("Table 1 row 2: arbitrary queries, O~(N + AGM) [Theorem D.2]");

  const uint64_t max_m = opts.size ? opts.size : 32;
  std::vector<QueryInstance> grids;
  for (uint64_t m : {4u, 8u, 16u, 32u}) {
    if (m <= max_m) grids.push_back(FullGridTriangle(m));
  }
  bool ok = RunFamily("AGM-tight full-grid triangles (Z = AGM = N^1.5)",
                      grids, opts, &rep);

  std::vector<QueryInstance> randoms;
  const size_t max_n = opts.size ? opts.size * opts.size : 4000;
  for (size_t n : {500u, 1000u, 2000u, 4000u}) {
    if (n > max_n) continue;
    randoms.push_back(
        RandomTriangle(n, /*d=*/10, /*seed=*/opts.seed ? opts.seed : n));
  }
  ok = RunFamily("random triangles (sparse; Z near 0)", randoms, opts,
                 &rep) && ok;
  return ok ? 0 : 1;
}
