// Subgraph listing — the paper's motivating application (Section 1:
// "joins ... capture subgraph listing problems which are central in
// social and biological network analysis").
//
// Lists triangles and 4-cliques in a random graph with every engine
// selected through the JoinEngine facade (default: Tetris-Preloaded,
// Leapfrog Triejoin and the classical pairwise hash plan), and prints
// wall times plus the intermediate-result blow-up that the worst-case
// optimal algorithms avoid. `--size=<nodes>` rescales the graph
// (edges = 8 * nodes); `--engines=all` sweeps the whole matrix.

#include <cstdio>
#include <string>

#include "engine/cli.h"
#include "workload/generators.h"

using namespace tetris;

namespace {

bool RunPattern(cli::RunReporter* rep, const char* name, int k,
                uint64_t nodes, size_t edges,
                const cli::HarnessOptions& opts) {
  QueryInstance qi = CliqueOnRandomGraph(
      k, nodes, edges, /*seed=*/opts.seed ? opts.seed : 42);
  rep->Section(std::string(name) + " on G(" + std::to_string(nodes) +
               " nodes, ~" + std::to_string(edges) + " edges)");
  for (const cli::EngineRun& run : cli::RunEngines(qi.query, opts)) {
    cli::Params params = {
        {"nodes", static_cast<double>(nodes)},
        {"edges", static_cast<double>(edges)},
        {"k", static_cast<double>(k)},
    };
    rep->Row(name, params, run.kind, run.result);
  }
  // Each k-clique appears k! times as an ordered embedding.
  rep->Note("(each clique counted k! times as an ordered embedding)");
  return rep->AllAgreed();
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded, EngineKind::kLeapfrog,
                  EngineKind::kPairwiseHash};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "graph_patterns — subgraph listing with Tetris vs "
                             "worst-case-optimal and pairwise baselines")) {
    return *exit_code;
  }

  std::printf("Subgraph listing with Tetris vs worst-case-optimal and "
              "pairwise baselines\n");
  cli::RunReporter rep(opts.format, "graph_patterns");
  const uint64_t tri_nodes = opts.size ? opts.size : 300;
  const uint64_t clq_nodes = opts.size ? opts.size / 2 + 1 : 120;
  bool ok = RunPattern(&rep, "triangle (3-clique)", 3, tri_nodes,
                       tri_nodes * 8, opts);
  ok = RunPattern(&rep, "4-clique", 4, clq_nodes, clq_nodes * 10, opts) &&
       ok;
  rep.Note("\nNote the pairwise-hash max_int / int_KiB columns: pairwise "
           "plans\nmaterialize the open wedge R⋈S before closing it, "
           "which is exactly the\nblow-up the AGM-bound engines (Tetris, "
           "LFTJ) avoid.");
  return ok ? 0 : 1;
}
