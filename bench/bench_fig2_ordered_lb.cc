// Figure 2, Ordered vs (general) Geometric Resolution cells:
//
//   * Ordered lower bound:   Ω(|C|^2) on Example F.1 (n = 3); no SAO
//     escapes it (paper, Example F.1 / Theorem 5.4).
//   * Geometric upper bound: O~(|C|^{n/2}) via the Balance lift
//     (paper, Theorem 4.11 / F.7) — exponent 3/2 for n = 3.
//
// Part 1 (raw BCP, engine-independent): the paper's own Example F.1 box
// family, |C| = 6·2^{d-2}, solved (a) by plain Tetris-Preloaded under all
// three cyclic SAOs and (b) by Tetris-Preloaded-LB. The fitted exponents
// are the reproduction of the Figure 2 separation.
//
// Part 2 (JoinEngine facade): the same ordered-vs-lifted comparison on a
// join instance — the MSB-complement triangle, whose empty output has a
// six-box certificate in the relation-order index layout — with engines
// selected by --engines. Plain Tetris lays its indexes out for its SAO,
// where that certificate does not exist (about 2N resolutions); the
// Balance-lifted engines keep relation order and stay certificate-sized.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/balance.h"
#include "engine/cli.h"
#include "engine/tetris.h"
#include "workload/box_families.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

namespace {

int64_t RunOrdered(const std::vector<DyadicBox>& boxes, int d,
                   std::vector<int> sao) {
  MaterializedOracle oracle(3);
  oracle.AddAll(boxes);
  UniformSpace space(3, d);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kPreloaded;
  opt.sao = std::move(sao);
  TetrisStats stats;
  bool covered = IsFullyCovered(oracle, space, opt, &stats);
  if (!covered) {
    std::printf("!! EXPECTED FULL COVER\n");
    std::exit(1);
  }
  return stats.resolutions;
}

int64_t RunLifted(const std::vector<DyadicBox>& boxes, int d) {
  MaterializedOracle oracle(3);
  oracle.AddAll(boxes);
  TetrisLB lb(&oracle, 3, d, /*preloaded=*/true);
  bool uncovered = false;
  RunStatus status = lb.Run([&](const DyadicBox&) {
    uncovered = true;
    return false;
  });
  if (status != RunStatus::kCompleted || uncovered) {
    std::printf("!! EXPECTED FULL COVER (LB)\n");
    std::exit(1);
  }
  return lb.stats().resolutions;
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded,
                  EngineKind::kTetrisPreloadedLB};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "bench_fig2_ordered_lb — Figure 2: Ordered Omega(|C|^2) "
                             "vs Geometric O~(|C|^{3/2})")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "fig2_ordered_lb");

  rep.Section("Example F.1 BCP: ordered (3 cyclic SAOs) vs Balance lift");
  rep.Note("%4s %8s %12s %12s %12s %12s %10s", "d", "|C|", "ord(ABC)",
           "ord(BCA)", "ord(CAB)", "lifted", "lift_ms");
  std::vector<std::pair<double, double>> fit_ord, fit_lift;
  const int max_d = opts.size ? static_cast<int>(opts.size) : 9;
  for (int d = 4; d <= max_d; ++d) {
    auto boxes = ExampleF1Boxes(d);
    const double c = static_cast<double>(boxes.size());
    int64_t o1 = RunOrdered(boxes, d, {0, 1, 2});
    int64_t o2 = RunOrdered(boxes, d, {1, 2, 0});
    int64_t o3 = RunOrdered(boxes, d, {2, 0, 1});
    Timer t;
    int64_t lifted = RunLifted(boxes, d);
    double lift_ms = t.Ms();
    rep.Note("%4d %8zu %12" PRId64 " %12" PRId64 " %12" PRId64
             " %12" PRId64 " %10.1f",
             d, boxes.size(), o1, o2, o3, lifted, lift_ms);
    fit_ord.emplace_back(c, static_cast<double>(std::min({o1, o2, o3})));
    fit_lift.emplace_back(c, static_cast<double>(lifted));
  }
  bool bounds_ok = GatedSummary(
      &rep, "best_ordered_sao_vs_c_exponent", fit_ord, 1.75, INFINITY,
      "paper: Omega(|C|^2) under every SAO [Ex. F.1 / Thm 5.4]");
  bounds_ok = GatedSummary(&rep, "balance_lifted_vs_c_exponent", fit_lift,
                           -INFINITY, 1.6,
                           "paper: O~(|C|^{n/2}) = |C|^{3/2} "
                           "[Thm 4.11 / F.7]") &&
              bounds_ok;

  rep.Section("facade: MSB triangle (six-box certificate), d sweep");
  bool empty_ok = true;
  for (int d = 3; d <= 6; ++d) {
    QueryInstance qi = MsbTriangle(d, /*closed_variant=*/false);
    const std::string scenario = "d=" + std::to_string(d);
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts)) {
      cli::Params params = {
          {"d", static_cast<double>(d)},
          {"n", static_cast<double>(qi.storage[0]->size())}};
      rep.Row(scenario, params, run);
      if (run.result.ok && !run.result.tuples.empty()) {
        rep.Error("!! EXPECTED EMPTY OUTPUT (%s)", EngineKindName(run.kind));
        empty_ok = false;
      }
    }
  }
  return bounds_ok && empty_ok && rep.AllAgreed() ? 0 : 1;
}
