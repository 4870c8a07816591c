// Figures 1 / 3 / 4: the same relation stored in different indices yields
// completely different gap-box collections — size and shape both depend
// on the index (paper, Section 3.2 and Appendix B.2).
//
// Part 1: gap-box counts from btree(A,B), btree(B,A) and the quad-tree
// style dyadic index for (a) the paper's cross relation, (b) the MSB-
// complement relation (footnote 9's exponential separation), (c) uniform
// random relations — plus probe-cost micro numbers.
//
// Part 2 (JoinEngine facade): the downstream effect — a 2-hop path join
// over the cross relation, with each index handed to the engine through
// EngineOptions::indexes, so the certificate the engine sees (and its
// resolution count) changes with the index while the output does not.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/cli.h"
#include "index/dyadic_index.h"
#include "index/sorted_index.h"
#include "workload/generators.h"

using namespace tetris;
using namespace tetris::bench;

namespace {

Relation CrossRelation(int d, const char* a, const char* b) {
  // {c} x odds ∪ odds x {c} around the center value — Figure 1 scaled.
  const uint64_t dom = uint64_t{1} << d;
  const uint64_t c = dom / 2 - 1;
  std::vector<Tuple> ts;
  for (uint64_t v = 1; v < dom; v += 2) {
    ts.push_back({c, v});
    ts.push_back({v, c});
  }
  return Relation::Make("cross", {a, b}, std::move(ts));
}

Relation MsbRelation(int d) {
  const uint64_t dom = uint64_t{1} << d;
  std::vector<Tuple> ts;
  for (uint64_t a = 0; a < dom; ++a) {
    for (uint64_t b = 0; b < dom; ++b) {
      if ((a >> (d - 1)) != (b >> (d - 1))) ts.push_back({a, b});
    }
  }
  return Relation::Make("msb", {"A", "B"}, std::move(ts));
}

void Report(cli::RunReporter* rep, const char* name, const Relation& rel,
            int d) {
  SortedIndex ab(rel, {0, 1}, d);
  SortedIndex ba(rel, {1, 0}, d);
  DyadicTreeIndex qt(rel, d);
  std::vector<DyadicBox> g1, g2, g3;
  // Each index's gaps, collected through its sink.
  auto into = [](std::vector<DyadicBox>* v) {
    return [v](const DyadicBox& b) { v->push_back(b); };
  };
  Timer t1;
  ab.AllGaps(into(&g1));
  double ms1 = t1.Ms();
  Timer t2;
  ba.AllGaps(into(&g2));
  double ms2 = t2.Ms();
  Timer t3;
  qt.AllGaps(into(&g3));
  double ms3 = t3.Ms();
  rep->Note("%-14s %8zu %12zu %12zu %12zu %8.1f %8.1f %8.1f", name,
            rel.size(), g1.size(), g2.size(), g3.size(), ms1, ms2, ms3);
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded, EngineKind::kTetrisReloaded,
                  EngineKind::kLeapfrog};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "bench_gap_extraction — Figures 1/3/4: gap boxes per "
                             "index type")) {
    return *exit_code;
  }

  cli::RunReporter rep(opts.format, "gap_extraction");

  rep.Section("gap boxes per index type");
  rep.Note("%-14s %8s %12s %12s %12s %8s %8s %8s", "relation", "N",
           "btree(A,B)", "btree(B,A)", "dyadic-tree", "ms1", "ms2", "ms3");
  Report(&rep, "cross d=8", CrossRelation(8, "A", "B"), 8);
  Report(&rep, "cross d=10", CrossRelation(10, "A", "B"), 10);
  Report(&rep, "msb d=5", MsbRelation(5), 5);
  Report(&rep, "msb d=7", MsbRelation(7), 7);
  for (int d : {8, 10}) {
    Relation r = RandomRelation("rand", {"A", "B"},
                                size_t{1} << (d + 1), d,
                                opts.seed ? opts.seed : d);
    Report(&rep, d == 8 ? "random d=8" : "random d=10", r, d);
  }
  rep.Note("\nfootnote 9 check (msb relations): the dyadic tree needs "
           "exactly 2 gap boxes at every d; each btree needs ~N/2 bands.");

  rep.Section("facade: 2-hop path over the cross relation, per S-index");
  const int d = opts.size ? static_cast<int>(opts.size) : 8;
  Relation r1 = CrossRelation(d, "A", "B");
  Relation r2 = CrossRelation(d, "B", "C");
  JoinQuery q = JoinQuery::Build({&r1, &r2});
  struct IndexConfig {
    const char* name;
    std::unique_ptr<Index> first, second;
  };
  std::vector<IndexConfig> configs;
  configs.push_back({"btree(A,B)+btree(B,C)",
                     std::make_unique<SortedIndex>(r1, std::vector<int>{0, 1}, d),
                     std::make_unique<SortedIndex>(r2, std::vector<int>{0, 1}, d)});
  configs.push_back({"btree(B,A)+btree(C,B)",
                     std::make_unique<SortedIndex>(r1, std::vector<int>{1, 0}, d),
                     std::make_unique<SortedIndex>(r2, std::vector<int>{1, 0}, d)});
  configs.push_back({"dyadic-tree on both",
                     std::make_unique<DyadicTreeIndex>(r1, d),
                     std::make_unique<DyadicTreeIndex>(r2, d)});
  for (const IndexConfig& cfg : configs) {
    EngineOptions eopts;
    eopts.depth = d;
    eopts.indexes = {cfg.first.get(), cfg.second.get()};
    for (const cli::EngineRun& run : cli::RunEngines(q, opts, eopts)) {
      cli::Params params = {{"d", static_cast<double>(d)},
                            {"n", static_cast<double>(r1.size())}};
      rep.Row(cfg.name, params, run.kind, run.result);
    }
  }
  rep.Note("Same join, same output, different certificates: only the "
           "Tetris rows'\nloaded/resolution counters move with the index "
           "(baselines read the\nrelations directly).");
  return rep.AllAgreed() ? 0 : 1;
}
