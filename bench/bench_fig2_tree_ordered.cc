// Figure 2, Tree-Ordered Geometric Resolution cells:
//
//   * upper:  O~(AGM) for any query           [Theorem 5.1]
//   * lower:  Ω(N^{n/2}) for a tw-1 query     [Theorem 5.2]
//
// Tree-ordered resolution = Tetris with resolvent caching disabled.
// Part 1 (JoinEngine facade) shows caching off still tracks AGM on
// AGM-tight triangles: rows for tetris-preloaded vs tetris-preloaded-
// nocache, engine selection by flag. Part 2 (raw BCP) shows the
// separation that caching buys on a treewidth-1 family: the
// cached/uncached resolution ratio grows with N.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/cli.h"
#include "engine/tetris.h"
#include "workload/box_families.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded,
                  EngineKind::kTetrisPreloadedNoCache};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "bench_fig2_tree_ordered — Figure 2: Tree-Ordered "
                             "resolution (cache off) vs Ordered")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "fig2_tree_ordered");

  rep.Section("Thm 5.1: tree-ordered still meets AGM on grid triangles");
  std::vector<std::pair<double, double>> fit_unc;
  const uint64_t max_m = opts.size ? opts.size : 24;
  for (uint64_t m : {4u, 8u, 16u, 24u}) {
    if (m > max_m) continue;
    QueryInstance qi = FullGridTriangle(m);
    EngineOptions eopts;
    eopts.order = {0, 1, 2};
    const double agm = std::exp2(qi.query.AgmBoundLog2());
    const std::string scenario = "m=" + std::to_string(m);
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts, eopts)) {
      const double res =
          static_cast<double>(run.result.stats.tetris.resolutions);
      cli::Params params = {
          {"n", static_cast<double>(qi.storage[0]->size())},
          {"agm", agm},
          {"res/agm", res > 0 ? res / agm : 0.0},
      };
      rep.Row(scenario, params, run.kind, run.result);
      if (CountsForClaim(run, EngineKind::kTetrisPreloadedNoCache)) {
        fit_unc.emplace_back(agm, res);
      }
    }
  }
  bool bounds_ok = GatedSummary(
      &rep, "uncached_resolutions_vs_agm_exponent", fit_unc, 0.9, 1.1,
      "paper: O~(AGM) without caching, exponent 1 + o(1) [Thm 5.1]");

  rep.Section("Thm 5.2 separation: shared-derivation family (tw=1 "
              "flavour)");
  rep.Note("per-A boxes <a,0,λ> + a shared chain covering <λ,1,λ>: caching "
           "derives the chain once, tree-ordered re-derives it under "
           "every a");
  rep.Note("%4s %8s %12s %12s %10s", "d", "|C|", "res_cached",
           "res_uncached", "ratio");
  std::vector<std::pair<double, double>> fit_cached, fit_uncached;
  for (int dd = 4; dd <= 8; ++dd) {
    auto boxes = TreeOrderedHardFamily(dd);
    MaterializedOracle oracle(3);
    oracle.AddAll(boxes);
    UniformSpace space(3, dd);
    TetrisStats cached, uncached;
    for (bool cache : {true, false}) {
      TetrisOptions opt;
      opt.init = TetrisOptions::Init::kPreloaded;
      opt.cache_resolvents = cache;
      TetrisStats stats;
      if (!IsFullyCovered(oracle, space, opt, &stats)) {
        std::printf("!! EXPECTED FULL COVER\n");
        return 1;
      }
      (cache ? cached : uncached) = stats;
    }
    const double c = static_cast<double>(boxes.size());
    rep.Note("%4d %8zu %12" PRId64 " %12" PRId64 " %10.2f", dd,
             boxes.size(), cached.resolutions, uncached.resolutions,
             static_cast<double>(uncached.resolutions) /
                 static_cast<double>(cached.resolutions));
    fit_cached.emplace_back(c, static_cast<double>(cached.resolutions));
    fit_uncached.emplace_back(c, static_cast<double>(uncached.resolutions));
  }
  bounds_ok = GatedSummary(&rep, "cached_resolutions_vs_c_exponent",
                           fit_cached, -INFINITY, 1.2,
                           "paper: ~|C| with caching [Section 5.1]") &&
              bounds_ok;
  bounds_ok = GatedSummary(&rep, "uncached_resolutions_vs_c_exponent",
                           fit_uncached, 1.5, INFINITY,
                           "paper: Omega(|C|^{n/2}) without caching, n/2 = "
                           "1.5 — caching is what makes certificate bounds "
                           "possible [Thm 5.2]") &&
              bounds_ok;
  return bounds_ok && rep.AllAgreed() ? 0 : 1;
}
