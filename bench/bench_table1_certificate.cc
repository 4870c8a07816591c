// Table 1, rows 4-5: beyond-worst-case (certificate) bounds.
//
//   row 5 (tw = 1): O~(|C| + Z)      [Theorem 4.7]
//   row 4 (tw = w): O~(|C|^{w+1} + Z) [Theorem 4.9]
//
// Workload: striped empty joins (Appendix B flavor) whose box certificate
// has O(2^s) boxes *independent of N*. Two sweeps per row:
//   (a) fix |C|, grow N     — Tetris-Reloaded's work stays flat while
//                             every input-reading baseline grows with N;
//   (b) fix N, grow |C|     — Tetris-Reloaded's work tracks |C|.
// Engine selection and rows go through the JoinEngine facade; the striped
// attribute is indexed first (SAO hint) so the certificate is available
// as single bands — the "right" indexes for the instance.
//
// The four fitted exponents are gated on the paper's bounds (both N
// sweeps within ±0.05 of 0; the path's |C| sweep <= 1.5, the 4-cycle's
// <= w + 1 = 3): a miss prints the bound and exits 1. The default run is
// a ctest entry.

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

bool SweepPath(bool sweep_n, const cli::HarnessOptions& opts,
               cli::RunReporter* rep) {
  rep->Section(sweep_n
                   ? "tw=1 path: fix |C|, grow N (res must stay flat)"
                   : "tw=1 path: fix N, grow |C| (res must track |C|)");
  std::vector<std::pair<double, double>> fit;
  const int d = 14;
  std::vector<std::pair<int, size_t>> params_list;
  if (sweep_n) {
    const size_t max_n = opts.size ? opts.size : 16000;
    for (size_t n : {1000u, 2000u, 4000u, 8000u, 16000u}) {
      if (n <= max_n) params_list.emplace_back(3, n);
    }
  } else {
    for (int s : {1, 2, 3, 4, 5, 6}) {
      params_list.emplace_back(s, opts.size ? opts.size : 4000u);
    }
  }
  bool empty_ok = true;
  for (auto [s, n] : params_list) {
    QueryInstance qi = StripedEmptyPath(
        s, n, d, /*seed=*/opts.seed ? opts.seed : s * 1000 + n);
    EngineOptions eopts;
    // SAO: striped attribute (B = attr id 1) first; elimination width 1.
    eopts.order = {1, 0, 2};
    eopts.depth = d;
    size_t total_n = 0;
    for (const auto& r : qi.storage) total_n += r->size();
    const double cert = static_cast<double>(uint64_t{1} << s);
    const std::string scenario =
        "s=" + std::to_string(s) + "/N=" + std::to_string(total_n);
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts, eopts)) {
      cli::Params row_params = {{"n", static_cast<double>(total_n)},
                                {"cert", cert}};
      rep->Row(scenario, row_params, run);
      if (run.result.ok && !run.result.tuples.empty()) {
        rep->Error("!! EXPECTED EMPTY OUTPUT (%s)",
                  EngineKindName(run.kind));
        empty_ok = false;
      }
      if (CountsForClaim(run, EngineKind::kTetrisReloaded)) {
        fit.emplace_back(
            sweep_n ? static_cast<double>(total_n) : cert,
            static_cast<double>(run.result.stats.tetris.resolutions));
      }
    }
  }
  // Row 5 is near-linear in |C|: the gate sits below the generic
  // |C|^{w+1} = |C|^2 of row 4.
  const bool bound_ok =
      sweep_n ? GatedSummary(rep, "resolutions_vs_n_exponent", fit, -0.05,
                             0.05, "paper: 0 — N-independent")
              : GatedSummary(rep, "resolutions_vs_c_exponent", fit,
                             -INFINITY, 1.5, "paper: <= 1 + o(1)");
  return bound_ok && empty_ok && rep->AllAgreed();
}

bool SweepCycle(bool sweep_n, const cli::HarnessOptions& opts,
                cli::RunReporter* rep) {
  rep->Section(sweep_n
                   ? "tw=2 4-cycle: fix |C|, grow N (res must stay flat)"
                   : "tw=2 4-cycle: fix N, grow |C| (bound |C|^{w+1} = "
                     "|C|^3)");
  std::vector<std::pair<double, double>> fit;
  const int d = 12;
  std::vector<std::pair<int, size_t>> params_list;
  if (sweep_n) {
    const size_t max_n = opts.size ? opts.size : 8000;
    for (size_t n : {500u, 1000u, 2000u, 4000u, 8000u}) {
      if (n <= max_n) params_list.emplace_back(2, n);
    }
  } else {
    for (int s : {1, 2, 3, 4, 5}) {
      params_list.emplace_back(s, opts.size ? opts.size : 2000u);
    }
  }
  bool empty_ok = true;
  for (auto [s, n] : params_list) {
    QueryInstance qi = StripedEmptyCycle(
        s, n, d, /*seed=*/opts.seed ? opts.seed : s * 7 + n);
    EngineOptions eopts;
    // Striped attributes early: A1 and A3 carry the certificate.
    eopts.order = {1, 3, 0, 2};
    eopts.depth = d;
    size_t total_n = 0;
    for (const auto& r : qi.storage) total_n += r->size();
    const double cert = static_cast<double>(uint64_t{2} << s);
    const double bound = cert * cert * cert;
    const std::string scenario =
        "s=" + std::to_string(s) + "/N=" + std::to_string(total_n);
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts, eopts)) {
      const double res =
          static_cast<double>(run.result.stats.tetris.resolutions);
      cli::Params row_params = {{"n", static_cast<double>(total_n)},
                                {"cert", cert},
                                {"res/cert^3", res > 0 ? res / bound : 0.0}};
      rep->Row(scenario, row_params, run);
      if (run.result.ok && !run.result.tuples.empty()) {
        rep->Error("!! EXPECTED EMPTY OUTPUT (%s)",
                  EngineKindName(run.kind));
        empty_ok = false;
      }
      if (CountsForClaim(run, EngineKind::kTetrisReloaded)) {
        fit.emplace_back(sweep_n ? static_cast<double>(total_n) : cert,
                         res);
      }
    }
  }
  const bool bound_ok =
      sweep_n ? GatedSummary(rep, "resolutions_vs_n_exponent", fit, -0.05,
                             0.05, "paper: 0")
              : GatedSummary(rep, "resolutions_vs_c_exponent", fit,
                             -INFINITY, 3.0, "paper: <= w+1 = 3");
  return bound_ok && empty_ok && rep->AllAgreed();
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisReloaded, EngineKind::kLeapfrog,
                  EngineKind::kYannakakis};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "bench_table1_certificate — Table 1 rows 4-5, certificate "
                             "bounds [Theorems 4.7 / 4.9]")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "table1_certificate");
  bool ok = SweepPath(/*sweep_n=*/true, opts, &rep);
  ok = SweepPath(/*sweep_n=*/false, opts, &rep) && ok;
  // The 4-cycle is cyclic: Yannakakis rows come back unsupported, which
  // the reporter prints as skipped.
  ok = SweepCycle(/*sweep_n=*/true, opts, &rep) && ok;
  ok = SweepCycle(/*sweep_n=*/false, opts, &rep) && ok;
  return ok ? 0 : 1;
}
