// Boolean Klee's measure problem (paper, Section 2 and Corollaries
// F.8 / F.12): deciding whether a union of boxes covers the space in
// O~(|C|^{n/2}) — and, beyond Chan's |B|^{n/2}, in terms of the
// *certificate* |C| <= |B|.
//
// Part 1: random 3-d cover sets, |B| sweep: resolution counts vs
//         |B|^{3/2}.
// Part 2: planted-certificate families: |B| grows, |C| fixed — the
//         certificate-sensitive run stays flat while |B| explodes.
// Part 3 (JoinEngine facade): the join view of the same phenomenon — the
//         MSB triangle, whose relation-order gap boxes are exactly the
//         Figure 5 cover, evaluated by the engines selected with
//         --engines. Only the Balance-lifted engines keep that layout;
//         the plain ones lay their indexes out for their SAO, where no
//         six-box certificate exists, and stay on default options here
//         so that cost shows.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/cli.h"
#include "engine/measure.h"
#include "workload/box_families.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisReloaded,
                  EngineKind::kTetrisReloadedLB};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "bench_klee — Boolean Klee's measure via Tetris-LB "
                             "[Cor F.8/F.12]")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "klee");

  rep.Section("random 3-d box sets (|C| ~ |B|): resolutions vs |B|^{3/2}");
  rep.Note("%8s %10s %10s %12s %10s %12s", "|B|", "covers", "resolns",
           "res/B^1.5", "lb_ms", "measure_ms");
  std::vector<std::pair<double, double>> fit;
  const int d = 8;
  const size_t max_count = opts.size ? opts.size : 1024;
  for (size_t count : {64u, 128u, 256u, 512u, 1024u}) {
    if (count > max_count) continue;
    auto boxes = RandomBoxes(3, d, count, 1, 3,
                             opts.seed ? opts.seed : count);
    TetrisStats stats;
    Timer t1;
    bool covers = KleeCoversSpace(boxes, 3, d, &stats);
    double lb_ms = t1.Ms();
    Timer t2;
    double uncovered = UncoveredMeasure(boxes, 3, d);
    double measure_ms = t2.Ms();
    if (covers != (uncovered == 0.0)) {
      std::printf("!! COVERAGE DISAGREEMENT\n");
      return 1;
    }
    const double bound = std::pow(static_cast<double>(count), 1.5);
    rep.Note("%8zu %10s %10" PRId64 " %12.3f %10.1f %12.1f", count,
             covers ? "yes" : "no", stats.resolutions,
             stats.resolutions / bound, lb_ms, measure_ms);
    fit.emplace_back(static_cast<double>(count),
                     static_cast<double>(stats.resolutions));
  }
  bool bounds_ok = GatedSummary(
      &rep, "resolutions_vs_b_exponent", fit, -INFINITY, 1.5,
      "paper: O~(|B|^{n/2}), exponent <= n/2 = 1.5 [Cor F.8]");

  rep.Section("planted certificate: |B| grows, |C| = 8 fixed "
              "(reloaded mode)");
  rep.Note("%8s %8s %10s %10s %10s", "|B|", "|C|", "resolns", "loaded",
           "lb_ms");
  std::vector<std::pair<double, double>> fit2;
  for (size_t noise : {100u, 400u, 1600u, 6400u}) {
    auto boxes = PlantedCertificateCover(3, 10, /*cert_log2=*/3, noise,
                                         opts.seed ? opts.seed : noise);
    MaterializedOracle oracle(3);
    oracle.AddAll(boxes);
    TetrisLB lb(&oracle, 3, 10, /*preloaded=*/false);
    Timer t1;
    bool uncovered = false;
    RunStatus status = lb.Run([&](const DyadicBox&) {
      uncovered = true;
      return false;
    });
    double lb_ms = t1.Ms();
    if (status != RunStatus::kCompleted || uncovered) {
      std::printf("!! EXPECTED COVER\n");
      return 1;
    }
    rep.Note("%8zu %8d %10" PRId64 " %10" PRId64 " %10.1f", boxes.size(),
             8, lb.stats().resolutions, lb.stats().boxes_loaded, lb_ms);
    fit2.emplace_back(static_cast<double>(boxes.size()),
                      static_cast<double>(lb.stats().resolutions));
  }
  bounds_ok = GatedSummary(&rep, "resolutions_vs_b_fixed_c_exponent", fit2,
                           -0.05, 0.05,
                           "paper: O~(|C|^{n/2}) with |C| fixed: ~0; "
                           "|B|-based algorithms: >= 1 [Cor F.12]") &&
              bounds_ok;

  rep.Section("facade: MSB triangle — the Figure 5 cover as a join");
  bool empty_ok = true;
  for (int dd = 3; dd <= 6; ++dd) {
    QueryInstance qi = MsbTriangle(dd, /*closed_variant=*/false);
    const std::string scenario = "d=" + std::to_string(dd);
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts)) {
      cli::Params params = {
          {"d", static_cast<double>(dd)},
          {"n", static_cast<double>(qi.storage[0]->size())}};
      rep.Row(scenario, params, run);
      if (run.result.ok && !run.result.tuples.empty()) {
        rep.Error("!! EXPECTED EMPTY OUTPUT (%s)", EngineKindName(run.kind));
        empty_ok = false;
      }
    }
  }
  rep.Note("tetris-reloaded-lb certifies emptiness from the six-box "
           "certificate rather\nthan the input size — the join-side twin "
           "of part 2. That certificate exists\nonly in the relation-order "
           "index layout the Balance-lifted engines keep;\nplain "
           "tetris-reloaded runs over SAO-consistent indexes and does about "
           "2N\nresolutions here.");
  return bounds_ok && empty_ok && rep.AllAgreed() ? 0 : 1;
}
