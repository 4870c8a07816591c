// Table 1, row 3: bounded-width queries in O~(N^fhtw + Z) — Tetris-
// Preloaded with the min-fhtw elimination SAO (paper, Theorem 4.6 /
// Corollary D.10).
//
// Workload: 4-cycle queries (fhtw = 2). Two families: full-grid (where
// Z = N^2 = N^fhtw, the bound is tight) and sparse random (where Z ≈ 0
// and the measured work sits far below the bound — it is an upper bound).
// One row per (instance, engine) via the JoinEngine facade.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/cli.h"
#include "query/hypergraph.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

namespace {

QueryInstance GridCycle(uint64_t m) {
  std::vector<Tuple> grid;
  for (uint64_t a = 0; a < m; ++a) {
    for (uint64_t b = 0; b < m; ++b) grid.push_back({a, b});
  }
  QueryInstance qi;
  for (int h = 0; h < 4; ++h) {
    qi.storage.push_back(std::make_unique<Relation>(Relation::Make(
        "R" + std::to_string(h),
        {"A" + std::to_string(h), "A" + std::to_string((h + 1) % 4)}, grid)));
  }
  qi.Bind();
  return qi;
}

bool RunFamily(const char* name, const std::vector<QueryInstance>& family,
               const cli::HarnessOptions& opts, cli::RunReporter* rep) {
  rep->Section(name);
  std::vector<std::pair<double, double>> fit;
  for (const QueryInstance& qi : family) {
    Hypergraph h = qi.query.ToHypergraph();
    const double fhtw = h.FractionalHypertreeWidth();
    EngineOptions eopts;
    eopts.order = qi.query.MinFhtwSao();
    const double n = static_cast<double>(qi.storage[0]->size());
    const std::string scenario = "N=" + std::to_string(qi.storage[0]->size());
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts, eopts)) {
      const double z = static_cast<double>(run.result.tuples.size());
      const double bound = std::pow(n, fhtw) + z;
      const double res =
          static_cast<double>(run.result.stats.tetris.resolutions);
      cli::Params params = {
          {"n", n},
          {"z", z},
          {"res/bound", res > 0 ? res / bound : 0.0},
      };
      rep->Row(scenario, params, run.kind, run.result);
      if (CountsForClaim(run, EngineKind::kTetrisPreloaded)) {
        fit.emplace_back(bound, res);
      }
    }
  }
  const bool bound_ok = GatedSummary(
      rep, "resolutions_vs_n_fhtw_plus_z_exponent", fit, -INFINITY, 1.1,
      "paper: O~(N^fhtw + Z), exponent <= 1 + o(1) [Thm 4.6 / Cor D.10]");
  return bound_ok && rep->AllAgreed();
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded, EngineKind::kLeapfrog};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "bench_table1_fhtw — Table 1 row 3, O~(N^fhtw + Z) "
                             "[Theorem 4.6]")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "table1_fhtw");
  rep.Note("4-cycle query: fhtw = 2 (computed exactly by the subset DP)");

  const uint64_t max_m = opts.size ? opts.size : 8;
  std::vector<QueryInstance> grids;
  for (uint64_t m : {3u, 4u, 6u, 8u}) {
    if (m <= max_m) grids.push_back(GridCycle(m));
  }
  bool ok = RunFamily("full-grid 4-cycles (Z = N^2: bound tight)", grids,
                      opts, &rep);

  const size_t max_n = opts.size ? opts.size * opts.size : 2000;
  std::vector<QueryInstance> randoms;
  for (size_t n : {250u, 500u, 1000u, 2000u}) {
    if (n > max_n) continue;
    randoms.push_back(
        RandomCycle(4, n, /*d=*/9, /*seed=*/opts.seed ? opts.seed : n));
  }
  ok = RunFamily("random sparse 4-cycles (Z ~ 0: bound loose)", randoms,
                 opts, &rep) && ok;
  return ok ? 0 : 1;
}
