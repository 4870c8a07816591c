// Quickstart: evaluate a triangle join with Tetris in ~20 lines.
//
//   Q(A,B,C) = R(A,B) ⋈ S(B,C) ⋈ T(A,C)
//
// Build relations, bind them into a JoinQuery, pick an engine through the
// JoinEngine facade, run. The result carries the output tuples plus the
// paper's cost counters (geometric resolutions, boxes loaded, ...) and
// the memory counters, and swapping --engine swaps the whole evaluator:
//
//   quickstart                         # Tetris-Reloaded (default)
//   quickstart --engine=leapfrog       # same output, different counters
//   quickstart --engines=all           # comparison table of all eleven

#include <cstdio>
#include <string>

#include "engine/cli.h"

using namespace tetris;

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisReloaded};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "quickstart — smallest end-to-end join through the "
                             "JoinEngine facade")) {
    return *exit_code;
  }

  // A 6-node directed triangle-ish graph, stored three times under the
  // three attribute pairs of the triangle query.
  Relation r = Relation::Make("R", {"A", "B"},
                              {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}});
  Relation s = Relation::Make("S", {"B", "C"},
                              {{1, 2}, {2, 0}, {0, 1}, {4, 5}, {5, 1}});
  Relation t = Relation::Make("T", {"A", "C"},
                              {{0, 2}, {1, 0}, {2, 1}, {3, 5}, {4, 1}});

  JoinQuery q = JoinQuery::Build({&r, &s, &t});
  std::printf("query attributes:");
  for (const auto& a : q.attrs()) std::printf(" %s", a.c_str());
  std::printf("\nlog2(AGM bound) = %.2f\n\n", q.AgmBoundLog2());

  if (opts.engines.size() > 1 ||
      opts.format != cli::OutputFormat::kTable) {
    // Engine sweep (or machine-readable output): one row per engine,
    // same canonical output.
    cli::RunReporter rep(opts.format, "quickstart");
    rep.Section("triangle query, all selected engines");
    for (const cli::EngineRun& run : cli::RunEngines(q, opts)) {
      rep.Row("triangle", {{"n", 5.0}}, run.kind, run.result);
    }
    return rep.AllAgreed() ? 0 : 1;
  }

  // Single engine, human format: the annotated walkthrough (--reps is
  // honored through RunEngines).
  cli::EngineRun single = cli::RunEngines(q, opts)[0];
  EngineResult& res = single.result;
  if (!res.ok) {
    std::printf("error: %s\n", res.error.c_str());
    return 1;
  }

  std::printf("engine: %s\n", EngineKindName(res.stats.engine));
  std::printf("output (%zu tuples):\n", res.tuples.size());
  for (const Tuple& tu : res.tuples) {
    std::printf("  (A=%llu, B=%llu, C=%llu)\n",
                static_cast<unsigned long long>(tu[0]),
                static_cast<unsigned long long>(tu[1]),
                static_cast<unsigned long long>(tu[2]));
  }
  std::printf("\nengine counters:\n");
  std::printf("  geometric resolutions: %lld\n",
              static_cast<long long>(res.stats.tetris.resolutions));
  std::printf("  gap boxes loaded:      %lld\n",
              static_cast<long long>(res.stats.tetris.boxes_loaded));
  std::printf("  oracle probes:         %lld\n",
              static_cast<long long>(res.stats.oracle_probes));
  std::printf("  LFTJ seeks / GJ probes: %lld / %lld\n",
              static_cast<long long>(res.stats.seeks),
              static_cast<long long>(res.stats.probes));
  std::printf("  wall time:             %.3f ms\n", res.stats.wall_ms);
  std::printf("memory counters:\n");
  std::printf("  knowledge base peak:   %zu bytes\n",
              res.stats.memory.kb_bytes);
  std::printf("  indexes:               %zu bytes\n",
              res.stats.memory.index_bytes);
  std::printf("  peak intermediate:     %zu bytes\n",
              res.stats.memory.intermediate_bytes);
  std::printf("  output buffer:         %zu bytes\n",
              res.stats.memory.output_bytes);
  return 0;
}
