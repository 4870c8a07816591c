// Beyond worst-case: running time proportional to the *certificate*, not
// the input (paper, Section 4.4).
//
// The instance: R(A,B) only has B-values in "even" dyadic stripes, S(B,C)
// only in "odd" ones. The join is empty, and a handful of gap boxes — the
// box certificate — prove it, no matter how many tuples the relations
// hold. Tetris-Reloaded touches O(|C|) boxes; any input-reading engine
// (Leapfrog, Yannakakis, hash join) pays for N. Engines are selected
// through the JoinEngine facade; `--size=<n>` caps the N sweep (the
// default grows to 320k tuples per relation).

#include <cstdio>
#include <string>
#include <vector>

#include "engine/cli.h"
#include "workload/generators.h"

using namespace tetris;

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisReloaded, EngineKind::kLeapfrog,
                  EngineKind::kYannakakis};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "certificate_demo — certificate-sized joins: N grows "
                             "16x, Tetris's work does not")) {
    return *exit_code;
  }

  std::printf("Certificate-sized joins: N grows 16x, Tetris's work does "
              "not\n");
  cli::RunReporter rep(opts.format, "certificate_demo");
  rep.Section("striped empty path, N sweep");
  const int d = 16;
  const size_t max_n = opts.size ? opts.size : 320000;
  bool ok = true;
  for (size_t n : {20000u, 40000u, 80000u, 160000u, 320000u}) {
    if (n > max_n && n != 20000u) continue;  // always run at least one N
    QueryInstance qi = StripedEmptyPath(/*stripes_log2=*/3, n, d,
                                        opts.seed ? opts.seed : n);
    EngineOptions eopts;
    // Index the striped attribute (B) first so its band gaps are the
    // certificate; SAO = (B, A, C) has elimination width 1.
    eopts.order = {1, 0, 2};
    eopts.depth = d;
    size_t total_n = 0;
    for (const auto& r : qi.storage) total_n += r->size();
    const std::string scenario = "N=" + std::to_string(total_n);
    for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts, eopts)) {
      rep.Row(scenario, {{"n", static_cast<double>(total_n)}}, run.kind,
              run.result);
      if (run.result.ok && !run.result.tuples.empty()) {
        rep.Error("!! expected an empty join (%s)",
                 EngineKindName(run.kind));
        ok = false;
      }
    }
  }
  rep.Note("\nTetris-Reloaded loads the same handful of certificate "
           "boxes at every N;\nthe baselines' cost scales with the "
           "input they must at least read.\n(Index build time is "
           "included in wall_ms for the Tetris rows — watch\nthe "
           "loaded/resolns counters for the certificate claim, as in "
           "the paper's\nmodel of pre-built indexes.)");
  return ok && rep.AllAgreed() ? 0 : 1;
}
