// Table 1, row 1: α-acyclic queries in O~(N + Z) — Tetris-Preloaded with a
// reverse-GYO SAO recovers Yannakakis (paper, Theorem D.8).
//
// Workload: 3-hop path queries (4 attributes), random relations, N sweep.
// One row per (instance, engine) via the JoinEngine facade; the Tetris
// rows carry the resolutions-vs-(N + Z·d) ratio that must stay
// polylog-flat (an output tuple can cost Θ(d) resolutions: backtracking
// from its unit box resolves it with sibling witnesses, at most once per
// level of the split tree).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/cli.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded, EngineKind::kYannakakis,
                  EngineKind::kPairwiseHash};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "bench_table1_acyclic — Table 1 row 1, O~(N + Z) "
                             "[Theorem D.8]")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "table1_acyclic");
  rep.Section("3-hop random paths, N sweep");
  std::vector<std::pair<double, double>> fit;
  const int d = 12;
  const size_t max_n = opts.size ? opts.size : 8192;
  for (size_t n : {512u, 1024u, 2048u, 4096u, 8192u}) {
    if (n > max_n) continue;
    QueryInstance qi =
        RandomPath(3, n, d, /*seed=*/opts.seed ? opts.seed : n);
    EngineOptions eopts;
    eopts.order = qi.query.AcyclicSao();  // reverse GYO: width 1
    eopts.depth = d;
    size_t total_n = 0;
    for (const auto& r : qi.storage) total_n += r->size();
    const std::string scenario = "N=" + std::to_string(total_n);
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts, eopts)) {
      const double z = static_cast<double>(run.result.tuples.size());
      const double nzd = static_cast<double>(total_n) + z * d;
      const double res =
          static_cast<double>(run.result.stats.tetris.resolutions);
      cli::Params params = {
          {"n", static_cast<double>(total_n)},
          {"z", z},
          {"res/(n+zd)", res > 0 ? res / nzd : 0.0},
      };
      rep.Row(scenario, params, run.kind, run.result);
      if (CountsForClaim(run, EngineKind::kTetrisPreloaded)) {
        fit.emplace_back(nzd, res);
      }
    }
  }
  const bool bound_ok = GatedSummary(
      &rep, "resolutions_vs_n_plus_zd_exponent", fit, 0.9, 1.1,
      "paper: O~(N + Z), exponent 1 + o(1), with O~ hiding the "
      "polylog-per-output factor [Thm D.8]");
  return bound_ok && rep.AllAgreed() ? 0 : 1;
}
