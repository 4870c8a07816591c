// ASCII reproduction of the paper's Figures 1 and 3: the same relation
// R(A,B) = {3}x{1,3,5,7} ∪ {1,3,5,7}x{3} stored in three indexes, and
// the completely different gap-box collections each one yields.
//
//   Figure 1a: the tuples            Figure 1b: gaps, B-tree order (A,B)
//   Figure 3a: gaps, order (B,A)     Figure 3b: gaps, quad-tree
//
// Legend: '#' tuple, '.' empty cell; in gap views, a letter labels the
// gap box covering that cell (gaps are disjoint only per index level, so
// the first covering box wins).
//
// The closing section joins the relation with itself (2-hop paths,
// Q(A,B,C) = R(A,B) ⋈ R'(B,C)) through the JoinEngine facade with each
// index handed to the engine — the downstream effect of the pictures
// above: same output, different certificates. `--engine` selects the
// evaluator.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/cli.h"
#include "index/dyadic_index.h"
#include "index/sorted_index.h"

using namespace tetris;

namespace {

constexpr int kD = 3;  // domain {0..7}

Relation PaperRelation(const char* name, const char* a, const char* b) {
  std::vector<Tuple> ts;
  for (uint64_t v : {1, 3, 5, 7}) {
    ts.push_back({3, v});
    ts.push_back({v, 3});
  }
  return Relation::Make(name, {a, b}, std::move(ts));
}

void PrintTuples(const Relation& r) {
  std::printf("tuples of R (A right, B up):\n");
  for (int b = 7; b >= 0; --b) {
    std::printf("  %d |", b);
    for (int a = 0; a <= 7; ++a) {
      std::printf(" %c",
                  r.Contains({static_cast<uint64_t>(a),
                              static_cast<uint64_t>(b)})
                      ? '#'
                      : '.');
    }
    std::printf("\n");
  }
  std::printf("    +-----------------\n      0 1 2 3 4 5 6 7\n\n");
}

void PrintGaps(const char* title, const Relation& r,
               const std::vector<DyadicBox>& gaps) {
  std::printf("%s: %zu gap boxes\n", title, gaps.size());
  for (int b = 7; b >= 0; --b) {
    std::printf("  %d |", b);
    for (int a = 0; a <= 7; ++a) {
      char c = r.Contains({static_cast<uint64_t>(a),
                           static_cast<uint64_t>(b)})
                   ? '#'
                   : '?';
      if (c == '?') {
        for (size_t g = 0; g < gaps.size(); ++g) {
          if (gaps[g].ContainsPoint({static_cast<uint64_t>(a),
                                     static_cast<uint64_t>(b)},
                                    kD)) {
            c = static_cast<char>('a' + (g % 26));
            break;
          }
        }
      }
      std::printf(" %c", c);
    }
    std::printf("\n");
  }
  std::printf("    +-----------------\n      0 1 2 3 4 5 6 7\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisReloaded};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "index_gaps — Figures 1/3: gap boxes per index, and "
                             "their effect on a join")) {
    return *exit_code;
  }

  Relation r = PaperRelation("R", "A", "B");
  PrintTuples(r);

  // Each index hands its gap boxes to a sink; collect them for printing.
  std::vector<DyadicBox> gaps;
  auto collect = [&gaps](const DyadicBox& b) { gaps.push_back(b); };
  SortedIndex ab(r, {0, 1}, kD);
  ab.AllGaps(collect);
  PrintGaps("Figure 1b — B-tree sorted (A,B)", r, gaps);

  gaps.clear();
  SortedIndex ba(r, {1, 0}, kD);
  ba.AllGaps(collect);
  PrintGaps("Figure 3a — B-tree sorted (B,A)", r, gaps);

  gaps.clear();
  DyadicTreeIndex qt(r, kD);
  qt.AllGaps(collect);
  PrintGaps("Figure 3b — quad-tree (dyadic) index", r, gaps);

  std::printf("Same relation, three indexes, three different gap-box "
              "collections —\nand therefore three different certificates "
              "available to Tetris.\n");

  // The join view: 2-hop paths of the cross, once per index choice.
  Relation r2 = PaperRelation("R2", "B", "C");
  JoinQuery q = JoinQuery::Build({&r, &r2});
  cli::RunReporter rep(opts.format, "index_gaps");
  rep.Section("facade: Q(A,B,C) = R(A,B) ⋈ R'(B,C), per index");
  struct Cfg {
    const char* name;
    std::unique_ptr<Index> first, second;
  };
  std::vector<Cfg> cfgs;
  cfgs.push_back({"btree(A,B) pair",
                  std::make_unique<SortedIndex>(r, std::vector<int>{0, 1}, kD),
                  std::make_unique<SortedIndex>(r2, std::vector<int>{0, 1}, kD)});
  cfgs.push_back({"btree(B,A) pair",
                  std::make_unique<SortedIndex>(r, std::vector<int>{1, 0}, kD),
                  std::make_unique<SortedIndex>(r2, std::vector<int>{1, 0}, kD)});
  cfgs.push_back({"quad-tree pair", std::make_unique<DyadicTreeIndex>(r, kD),
                  std::make_unique<DyadicTreeIndex>(r2, kD)});
  for (const Cfg& cfg : cfgs) {
    EngineOptions eopts;
    eopts.depth = kD;
    eopts.indexes = {cfg.first.get(), cfg.second.get()};
    for (const cli::EngineRun& run : cli::RunEngines(q, opts, eopts)) {
      rep.Row(cfg.name, {{"n", static_cast<double>(r.size())}}, run.kind,
              run.result);
    }
  }
  rep.Note("The Tetris rows' loaded/resolution counters follow the "
           "pictures above;\nthe output column does not.");
  return rep.AllAgreed() ? 0 : 1;
}
