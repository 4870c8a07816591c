// Boolean Klee's measure problem as a box cover problem (paper, Section 2
// and Corollary F.12): "do these n-dimensional boxes cover the space?"
//
// The demo assembles the paper's Figure 5 cover (the six triangle-query
// gap boxes), perturbs it, and decides coverage with Tetris-LB; it then
// shows the certificate-sensitivity that distinguishes the paper's bound
// O~(|C|^{n/2}) from Chan's O(|B|^{n/2}). The closing section runs the
// join whose relation-order gap boxes *are* the Figure 5 cover — the
// MSB-complement triangle — through the JoinEngine facade with the
// engines selected by `--engine`/`--engines`. Only the Balance-lifted
// engines keep that index layout; plain Tetris lays its indexes out for
// its SAO and does about 2N resolutions on this instance.

#include <cstdio>
#include <string>

#include "engine/cli.h"
#include "engine/measure.h"
#include "workload/box_families.h"
#include "workload/generators.h"

using namespace tetris;

namespace {

DyadicInterval Iv(uint64_t bits, int len) {
  return {bits, static_cast<uint8_t>(len)};
}

std::vector<DyadicBox> Figure5Cover() {
  const DyadicInterval lam = DyadicInterval::Lambda();
  return {
      DyadicBox::Of({Iv(0, 1), Iv(0, 1), lam}),
      DyadicBox::Of({Iv(1, 1), Iv(1, 1), lam}),
      DyadicBox::Of({lam, Iv(0, 1), Iv(0, 1)}),
      DyadicBox::Of({lam, Iv(1, 1), Iv(1, 1)}),
      DyadicBox::Of({Iv(0, 1), lam, Iv(0, 1)}),
      DyadicBox::Of({Iv(1, 1), lam, Iv(1, 1)}),
  };
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisReloaded,
                  EngineKind::kTetrisReloadedLB};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "klee_demo — Boolean Klee's measure as a box cover "
                             "problem")) {
    return *exit_code;
  }

  const int d = 10;  // a 1024^3 grid
  auto cover = Figure5Cover();
  std::printf("Figure 5's six boxes over a %d^3 grid:\n", 1 << d);
  TetrisStats stats;
  bool covers = KleeCoversSpace(cover, 3, d, &stats);
  std::printf("  covers space: %s (%lld resolutions)\n",
              covers ? "YES" : "no",
              static_cast<long long>(stats.resolutions));

  cover.pop_back();
  covers = KleeCoversSpace(cover, 3, d, &stats);
  std::printf("  after removing one box: %s — uncovered volume = %.0f of "
              "%.0f points\n",
              covers ? "YES" : "no", UncoveredMeasure(cover, 3, d),
              static_cast<double>(1 << d) * (1 << d) * (1 << d));

  std::printf("\ncertificate-sensitivity (|C| = 8 planted, |B| grows):\n");
  std::printf("%10s %10s %10s\n", "|B|", "resolns", "covers");
  for (size_t noise : {50u, 500u, 5000u}) {
    auto boxes = PlantedCertificateCover(3, d, 3, noise,
                                         opts.seed ? opts.seed : noise);
    bool c = KleeCoversSpace(boxes, 3, d, &stats);
    std::printf("%10zu %10lld %10s\n", boxes.size(),
                static_cast<long long>(stats.resolutions),
                c ? "yes" : "no");
  }
  std::printf("\nThe resolution count tracks the planted 8-box "
              "certificate, not |B|.\n");

  // The join view: the MSB triangle's gap boxes are the Figure 5 cover,
  // so "the cover fills the space" == "the join is empty".
  cli::RunReporter rep(opts.format, "klee_demo");
  rep.Section("facade: MSB triangle (its gaps = the Figure 5 cover)");
  bool empty_ok = true;
  const int dd = opts.size ? static_cast<int>(opts.size) : 4;
  QueryInstance qi = MsbTriangle(dd, /*closed_variant=*/false);
  for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts)) {
    rep.Row("msb-triangle",
            {{"d", static_cast<double>(dd)},
             {"n", static_cast<double>(qi.storage[0]->size())}},
            run.kind, run.result);
    if (run.result.ok && !run.result.tuples.empty()) {
      rep.Error("!! expected an empty join (%s)", EngineKindName(run.kind));
      empty_ok = false;
    }
  }
  return empty_ok && rep.AllAgreed() ? 0 : 1;
}
